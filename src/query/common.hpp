// Shared vocabulary of the query subsystem (jsort::query).
//
// Queries are the workload the paper's O(1) communicator splits pay off
// most for: small, latency-sensitive requests that want an *answer*
// (top-k, an order statistic, a percentile) rather than a globally
// sorted array. Every kernel here runs over the jsort::Transport
// abstraction, so the rbc / mpi / icomm split backends are one axis, and
// every kernel is deterministic in (data, config) alone -- backends
// produce bit-identical answers.
#pragma once

#include "sort/transport.hpp"

namespace jsort::query {

/// Logical tags of the query collectives. Disjoint from the sorters'
/// working tags and the service's verification tags (7050/7051); within
/// one group the query kernels run their collectives strictly
/// sequentially, so one small block per kernel suffices.
inline constexpr int kSelectTagBase = 7100;
inline constexpr int kTopKTagBase = 7110;
inline constexpr int kQuantileTagBase = 7120;
inline constexpr int kQueryVerifyTagBase = 7130;

}  // namespace jsort::query
