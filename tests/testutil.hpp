// Shared helpers for the multi-rank tests.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <mutex>
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

/// Per-destination buckets in the bucket-major flat layout
/// exchange::ExchangeBuckets takes: bucket i is elements[offsets[i],
/// offsets[i+1]).
struct FlatBuckets {
  std::vector<double> elements;
  std::vector<std::int64_t> offsets{0};

  explicit FlatBuckets(const std::vector<std::vector<double>>& buckets) {
    for (const std::vector<double>& b : buckets) {
      elements.insert(elements.end(), b.begin(), b.end());
      offsets.push_back(static_cast<std::int64_t>(elements.size()));
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
