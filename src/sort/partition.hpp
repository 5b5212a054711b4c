// Local partition kernels.
//
// Two-way partitioning with duplicate handling: JQuick handles duplicate
// keys by "carefully switching between the compare functions '<' and '<='"
// (Section VIII-A, citing [8]): on alternating recursion levels, elements
// equal to the pivot are counted as small or as large, which splits runs
// of duplicates across both sides.
//
// k-way partitioning for the sample sorters: a branchless splitter-tree
// classification (the super-scalar sample sort technique of Sanders &
// Winkel) replacing per-element binary search + per-bucket push_back.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace jsort {

/// Partitions `data` in place by `pivot` and returns the length of the
/// small side, which it leaves as the prefix. With less_equal == false,
/// small = {x | x < pivot}; with less_equal == true, small = {x | x <=
/// pivot}. Stable: each side keeps its input order.
std::size_t PartitionInPlace(std::span<double> data, double pivot,
                             bool less_equal);

/// Result of a k-way partition: the elements reordered bucket-major into
/// one flat allocation. Bucket b holds the elements x with exactly b
/// splitters <= x (upper_bound semantics: ties go right), each bucket
/// stable in input order.
struct KWayBuckets {
  std::vector<double> elements;         // bucket-major
  std::vector<std::int64_t> offsets;    // k+1 bucket boundaries

  int BucketCount() const { return static_cast<int>(offsets.size()) - 1; }
  std::int64_t Count(int b) const {
    return offsets[static_cast<std::size_t>(b) + 1] -
           offsets[static_cast<std::size_t>(b)];
  }
  std::span<const double> Bucket(int b) const {
    return {elements.data() + offsets[static_cast<std::size_t>(b)],
            static_cast<std::size_t>(Count(b))};
  }
};

/// Classifies `data` against the sorted `splitters` (k-1 splitters, k
/// buckets) with a branchless implicit search tree: each element descends
/// the complete binary tree over the splitters in log2(k) comparison->
/// integer steps (no data-dependent branches), a count pass sizes the
/// buckets, and a placement pass writes each element once into the single
/// flat allocation. Replaces the per-element std::upper_bound +
/// per-bucket push_back loop of the sample sorters.
KWayBuckets PartitionKWay(std::span<const double> data,
                          std::span<const double> splitters);

}  // namespace jsort
