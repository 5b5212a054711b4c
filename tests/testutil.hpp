// Shared helpers for the multi-rank tests.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "mpisim/mpisim.hpp"
#include "rbc/rbc.hpp"

namespace testutil {

/// Runs `fn(world)` on p ranks with default options.
inline void RunRanks(int p, const std::function<void(mpisim::Comm&)>& fn) {
  mpisim::Runtime::Exec(p, fn);
}

/// Runs `fn(world, rt)` on p ranks with access to the runtime.
inline void RunRanks(
    mpisim::Runtime::Options opts,
    const std::function<void(mpisim::Comm&, mpisim::Runtime&)>& fn) {
  mpisim::Runtime rt(opts);
  rt.Run([&](mpisim::Comm& world) { fn(world, rt); });
}

/// Runs `fn(rbc_world)` on p ranks with an RBC communicator over the world.
inline void RunRbc(int p, const std::function<void(rbc::Comm&)>& fn) {
  RunRanks(p, [&](mpisim::Comm& world) {
    rbc::Comm rw;
    rbc::Create_RBC_Comm(world, &rw);
    fn(rw);
  });
}

/// Flat 8, flat 64, and eight nodes of eight ranks with the network's
/// alpha 25x and beta 4x shared memory's (bench_topo's two-level model).
inline std::vector<std::pair<std::string, mpisim::Runtime::Options>>
SmallMachines() {
  mpisim::Runtime::Options two_level;
  two_level.topology = topo::Topology::OfNodeSizes({8, 8, 8, 8, 8, 8, 8, 8});
  two_level.num_ranks = two_level.topology.TotalRanks();
  two_level.cost.inter_alpha = 25.0 * two_level.cost.alpha;
  two_level.cost.inter_beta = 4.0 * two_level.cost.beta;
  return {{"flat8", {.num_ranks = 8}},
          {"flat64", {.num_ranks = 64}},
          {"8x8", two_level}};
}

/// Runs `fn(world)` on every rank of a fresh runtime and returns, per
/// rank, its end clock and traffic counters followed by what `fn`
/// returned -- to compare runs.
inline std::vector<std::vector<double>> EndFootprints(
    const mpisim::Runtime::Options& opts,
    const std::function<std::vector<double>(mpisim::Comm&)>& fn) {
  std::vector<std::vector<double>> out(
      static_cast<std::size_t>(opts.num_ranks));
  mpisim::Runtime rt(opts);
  rt.Run([&](mpisim::Comm& world) {
    const std::vector<double> extra = fn(world);
    const mpisim::RankContext& rc = mpisim::Ctx();
    const mpisim::Stats& s = rc.stats;
    std::vector<double>& mine = out[static_cast<std::size_t>(world.Rank())];
    mine = {rc.clock.Now(),
            static_cast<double>(s.messages_sent),
            static_cast<double>(s.bytes_sent),
            static_cast<double>(s.messages_received),
            static_cast<double>(s.bytes_received),
            static_cast<double>(s.inter_messages_sent),
            static_cast<double>(s.inter_bytes_sent)};
    mine.insert(mine.end(), extra.begin(), extra.end());
  });
  return out;
}

/// Per-destination buckets in the bucket-major flat layout
/// exchange::ExchangeBuckets takes: bucket i is elements[offsets[i],
/// offsets[i+1]) and goes to rank dests[i] = i.
struct FlatBuckets {
  std::vector<double> elements;
  std::vector<std::int64_t> offsets{0};
  std::vector<int> dests;

  explicit FlatBuckets(const std::vector<std::vector<double>>& buckets) {
    for (const std::vector<double>& b : buckets) {
      elements.insert(elements.end(), b.begin(), b.end());
      offsets.push_back(static_cast<std::int64_t>(elements.size()));
      dests.push_back(static_cast<int>(dests.size()));
    }
  }
};

/// (destination, payload) entries as exchange::ExchangeBuckets takes them:
/// one bucket per entry, ordered by destination, a destination's entries
/// in entry order -- so its message is their concatenation in entry
/// order, and every rank passing the same number of entries (empty ones
/// included) passes the same bucket count.
struct DestBuckets {
  std::vector<double> elements;
  std::vector<std::int64_t> offsets{0};
  std::vector<int> dests;

  explicit DestBuckets(
      std::vector<std::pair<int, std::vector<double>>> entries) {
    std::stable_sort(
        entries.begin(), entries.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [dest, payload] : entries) {
      elements.insert(elements.end(), payload.begin(), payload.end());
      offsets.push_back(static_cast<std::int64_t>(elements.size()));
      dests.push_back(dest);
    }
  }
};

/// Thread-safe per-rank result collector.
template <typename T>
class PerRank {
 public:
  explicit PerRank(int p) : values_(p) {}

  void Set(int rank, T value) {
    std::lock_guard<std::mutex> lock(mu_);
    values_[static_cast<std::size_t>(rank)] = std::move(value);
  }

  const std::vector<T>& Values() const { return values_; }
  const T& operator[](int rank) const {
    return values_[static_cast<std::size_t>(rank)];
  }

 private:
  std::mutex mu_;
  std::vector<T> values_;
};

}  // namespace testutil
