// Process groups.
//
// A Group maps dense group ranks 0..size-1 to *world* ranks. Two storage
// formats exist, mirroring the discussion in Section III of the paper and
// the sparse-storage work of Chaarawi & Gabriel:
//   * Range format: a list of (first, last, stride) triplets over world
//     ranks. Storage and construction are O(#ranges); lookups are
//     O(#ranges). MPI_Group_range_incl produces this format.
//   * Explicit format: a flat array of world ranks plus a reverse-lookup
//     hash map, i.e. the representation MPICH / Open MPI / Intel MPI build
//     for every communicator. Construction is O(size) in time and space --
//     this is precisely the linear cost RBC avoids, and the substrate
//     charges virtual compute time for it so the cost shows up in the
//     figure-5/6/7 benchmarks.
#pragma once

#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mpisim/error.hpp"

namespace mpisim {

/// Inclusive rank range with stride, in the spirit of
/// MPI_Group_range_incl triplets. Represents first, first+stride, ...,
/// up to and including the largest value <= last (stride > 0).
struct RankRange {
  int first = 0;
  int last = -1;
  int stride = 1;

  int size() const {
    if (last < first) return 0;
    return (last - first) / stride + 1;
  }
  int at(int i) const { return first + i * stride; }
};

class Group {
 public:
  /// Empty group.
  Group() = default;

  /// The group of all p world ranks, in range format (O(1) storage).
  static Group World(int p);

  /// Range-format group over *world* ranks. O(#ranges) storage.
  static Group FromRanges(std::vector<RankRange> ranges);

  /// Explicit-format group; builds the reverse map (O(size) time/space).
  static Group FromExplicit(std::vector<int> world_ranks);

  int Size() const { return size_; }

  /// World rank of group rank i. O(1) explicit, O(#ranges) range format.
  int WorldRank(int i) const;

  /// Group rank of a world rank, or -1 if not a member.
  int RankOfWorld(int world_rank) const;

  bool IsExplicit() const { return explicit_.has_value(); }

  /// Number of stored entries: #ranges for range format, size for explicit.
  /// This is the "memory footprint" axis of the sparse-storage discussion.
  std::size_t StorageEntries() const;

  /// Converts to explicit format. This is the deliberately-linear step that
  /// native communicator construction performs; callers charge virtual
  /// compute time proportional to Size().
  Group Materialized() const;

  /// If this group is exactly the contiguous sub-range f'..l' (stride 1) of
  /// `parent`'s group ranks, returns (f', l'). Used by the Section-VI
  /// MPI_Icomm_create_group proposal to take the O(1) local path.
  std::optional<std::pair<int, int>> AsContiguousRangeOf(
      const Group& parent) const;

  /// If the mapping group rank -> world rank is affine (w = base + i*stride,
  /// i.e. the group is a single range), returns (base, stride). Lets
  /// derived-group constructors stay in O(#ranges) instead of
  /// materializing.
  std::optional<std::pair<int, int>> AffineMap() const;

 private:
  int size_ = 0;
  // Range format (empty when explicit_ is set).
  std::vector<RankRange> ranges_;
  // Explicit format.
  std::optional<std::vector<int>> explicit_;
  std::unordered_map<int, int> reverse_;  // world rank -> group rank
};

}  // namespace mpisim
