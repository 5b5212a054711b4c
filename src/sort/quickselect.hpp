// Quickselect kernels.
//
// QuickselectSmallest is used by JQuick's direct finish, the paper's
// two-process base case (Section VII) widened to every task the cost
// model prices cheaper to finish than to split: after the all-gather of
// the members' slices, each member selects its own slots of the union --
// the smallest PrefixBefore(r) + cap elements, then the largest cap of
// those. The distributed top-k's heap route (src/query) selects each
// rank's k smallest with it.
//
// QuickselectKth is the three-way selection underneath: it reports the
// k-th order statistic together with the three-way split boundary around
// it. QuickselectSmallest is its one caller; the distributed selection
// (src/query) partitions its windows itself.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace jsort {

/// Result of QuickselectKth: the k-th smallest element (0-based) and the
/// three-way split the selection leaves behind. After the call, `data` is
/// reordered so that
///   data[0 .. less)            < value,
///   data[less .. less_equal)  == value   (contains index k), and
///   data[less_equal .. n)      > value.
struct KthSplit {
  double value = 0.0;
  std::size_t less = 0;        // #elements of data strictly < value
  std::size_t less_equal = 0;  // #elements of data <= value
};

/// Selects the k-th smallest element of `data` (0-based; requires
/// k < data.size(), data non-empty). Randomized three-way quickselect,
/// expected O(n); duplicate-heavy inputs cost no extra rounds because the
/// equal run is discarded wholesale each level.
KthSplit QuickselectKth(std::span<double> data, std::size_t k,
                        std::uint64_t seed = 0x9E3779B9u);

/// Reorders `data` so its first k elements are the k smallest (in
/// arbitrary order) and the remaining elements are all >= them. Randomized
/// quickselect with expected O(n) time; k may be 0 or data.size().
void QuickselectSmallest(std::span<double> data, std::size_t k,
                         std::uint64_t seed = 0x9E3779B9u);

}  // namespace jsort
