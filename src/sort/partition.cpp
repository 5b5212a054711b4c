#include "sort/partition.hpp"

#include <algorithm>
#include <limits>

namespace jsort {
namespace {

/// Fills tree[node] (1-based heap order) with the medians of the padded
/// splitter array s[lo..hi), the standard implicit-search-tree layout:
/// descending with i = 2i + (x >= tree[i]) reproduces upper_bound over s.
void FillTree(std::span<const double> s, std::size_t lo, std::size_t hi,
              std::size_t node, std::vector<double>& tree) {
  if (lo >= hi) return;
  const std::size_t mid = lo + (hi - lo) / 2;
  tree[node] = s[mid];
  FillTree(s, lo, mid, 2 * node, tree);
  FillTree(s, mid + 1, hi, 2 * node + 1, tree);
}

}  // namespace

KWayBuckets PartitionKWay(std::span<const double> data,
                          std::span<const double> splitters) {
  const int k = static_cast<int>(splitters.size()) + 1;
  KWayBuckets r;
  r.offsets.assign(static_cast<std::size_t>(k) + 1, 0);
  if (k == 1) {
    r.elements.assign(data.begin(), data.end());
    r.offsets[1] = static_cast<std::int64_t>(data.size());
    return r;
  }

  // Implicit complete binary tree over the splitters, padded to a power of
  // two with +inf so every leaf path has the same length. Elements equal
  // to +inf still land in the last real bucket via the clamp below (a pad
  // compares <= them, pushing the raw index past k-1).
  int log2cap = 1;
  while ((1 << log2cap) < k) ++log2cap;
  const int cap = 1 << log2cap;
  std::vector<double> padded(static_cast<std::size_t>(cap) - 1,
                             std::numeric_limits<double>::infinity());
  std::copy(splitters.begin(), splitters.end(), padded.begin());
  std::vector<double> tree(static_cast<std::size_t>(cap));
  FillTree(padded, 0, padded.size(), 1, tree);

  // Classification pass: branchless tree descent per element; the bucket
  // oracle is kept so the placement pass does not re-descend.
  const std::size_t n = data.size();
  std::vector<std::uint32_t> oracle(n);
  std::vector<std::int64_t> counts(static_cast<std::size_t>(k), 0);
  const std::uint32_t last = static_cast<std::uint32_t>(k) - 1;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = data[i];
    std::uint32_t node = 1;
    for (int l = 0; l < log2cap; ++l) {
      node = 2 * node + static_cast<std::uint32_t>(x >= tree[node]);
    }
    const std::uint32_t b =
        std::min(node - static_cast<std::uint32_t>(cap), last);
    oracle[i] = b;
    ++counts[b];
  }

  for (int b = 0; b < k; ++b) {
    r.offsets[static_cast<std::size_t>(b) + 1] =
        r.offsets[static_cast<std::size_t>(b)] +
        counts[static_cast<std::size_t>(b)];
  }

  // Placement pass: one flat allocation, per-bucket write cursors.
  r.elements.resize(n);
  std::vector<std::int64_t> cursor(r.offsets.begin(), r.offsets.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    r.elements[static_cast<std::size_t>(
        cursor[oracle[i]]++)] = data[i];
  }
  return r;
}

std::size_t PartitionInPlace(std::span<double> data, double pivot,
                             bool less_equal) {
  auto mid =
      less_equal
          ? std::stable_partition(data.begin(), data.end(),
                                  [pivot](double x) { return x <= pivot; })
          : std::stable_partition(data.begin(), data.end(),
                                  [pivot](double x) { return x < pivot; });
  return static_cast<std::size_t>(mid - data.begin());
}

}  // namespace jsort
