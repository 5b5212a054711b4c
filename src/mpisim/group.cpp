#include "mpisim/group.hpp"

namespace mpisim {

Group Group::World(int p) {
  if (p <= 0) throw UsageError("Group::World: p must be positive");
  return FromRanges({RankRange{0, p - 1, 1}});
}

Group Group::FromRanges(std::vector<RankRange> ranges) {
  Group g;
  g.size_ = 0;
  for (const RankRange& r : ranges) {
    if (r.stride <= 0) throw UsageError("Group: stride must be positive");
    if (r.first < 0) throw UsageError("Group: negative rank in range");
    g.size_ += r.size();
  }
  g.ranges_ = std::move(ranges);
  return g;
}

Group Group::FromExplicit(std::vector<int> world_ranks) {
  Group g;
  g.size_ = static_cast<int>(world_ranks.size());
  g.reverse_.reserve(world_ranks.size());
  for (int i = 0; i < g.size_; ++i) {
    if (world_ranks[i] < 0) throw UsageError("Group: negative world rank");
    auto [it, inserted] = g.reverse_.emplace(world_ranks[i], i);
    (void)it;
    if (!inserted) throw UsageError("Group: duplicate world rank");
  }
  g.explicit_ = std::move(world_ranks);
  return g;
}

int Group::WorldRank(int i) const {
  if (i < 0 || i >= size_) throw UsageError("Group::WorldRank: out of range");
  if (explicit_) return (*explicit_)[i];
  for (const RankRange& r : ranges_) {
    const int n = r.size();
    if (i < n) return r.at(i);
    i -= n;
  }
  throw UsageError("Group::WorldRank: corrupt group");
}

int Group::RankOfWorld(int world_rank) const {
  if (explicit_) {
    auto it = reverse_.find(world_rank);
    return it == reverse_.end() ? -1 : it->second;
  }
  int base = 0;
  for (const RankRange& r : ranges_) {
    if (world_rank >= r.first && world_rank <= r.last &&
        (world_rank - r.first) % r.stride == 0) {
      return base + (world_rank - r.first) / r.stride;
    }
    base += r.size();
  }
  return -1;
}

std::size_t Group::StorageEntries() const {
  if (explicit_) return explicit_->size();
  return ranges_.size();
}

Group Group::Materialized() const {
  if (explicit_) return *this;
  std::vector<int> ranks;
  ranks.reserve(size_);
  for (const RankRange& r : ranges_) {
    for (int i = 0; i < r.size(); ++i) ranks.push_back(r.at(i));
  }
  return FromExplicit(std::move(ranks));
}

std::optional<std::pair<int, int>> Group::AsContiguousRangeOf(
    const Group& parent) const {
  if (size_ == 0) return std::nullopt;
  const int f = parent.RankOfWorld(WorldRank(0));
  if (f < 0) return std::nullopt;
  // Fast path: both groups are single stride-1 ranges over world ranks.
  if (!explicit_ && ranges_.size() == 1 && ranges_[0].stride == 1 &&
      !parent.explicit_ && parent.ranges_.size() == 1 &&
      parent.ranges_[0].stride == 1) {
    return std::make_pair(f, f + size_ - 1);
  }
  if (f + size_ - 1 >= parent.Size()) return std::nullopt;
  for (int i = 1; i < size_; ++i) {
    if (parent.RankOfWorld(WorldRank(i)) != f + i) return std::nullopt;
  }
  return std::make_pair(f, f + size_ - 1);
}

std::optional<std::pair<int, int>> Group::AffineMap() const {
  if (explicit_ || ranges_.size() != 1) return std::nullopt;
  return std::make_pair(ranges_[0].first, ranges_[0].stride);
}

}  // namespace mpisim
