// Datatypes and reduction operators understood by the substrate.
//
// mpisim deliberately supports a closed set of fixed-size datatypes (no
// derived types); this covers everything RBC and the sorting applications
// need while keeping envelope matching trivial.
#pragma once

#include <cstddef>
#include <cstdint>

#include "mpisim/error.hpp"

namespace mpisim {

/// Wire datatypes. Each has a fixed size; payloads are always
/// `count * SizeOf(datatype)` bytes.
enum class Datatype : std::uint8_t {
  kByte,
  kInt32,
  kUint32,
  kInt64,
  kUint64,
  kFloat32,
  kFloat64,
  /// (key, value) pair of doubles; reductions on it compare `first`.
  kPairDoubleDouble,
  /// (key, value) pair of int64; reductions on it compare `first`.
  kPairInt64Int64,
};

/// POD pair used with Datatype::kPairDoubleDouble.
struct PairDD {
  double first;
  double second;
};

/// POD pair used with Datatype::kPairInt64Int64.
struct PairII {
  std::int64_t first;
  std::int64_t second;
};

/// Size in bytes of one element of `dt`.
constexpr std::size_t SizeOf(Datatype dt) {
  switch (dt) {
    case Datatype::kByte: return 1;
    case Datatype::kInt32: return 4;
    case Datatype::kUint32: return 4;
    case Datatype::kInt64: return 8;
    case Datatype::kUint64: return 8;
    case Datatype::kFloat32: return 4;
    case Datatype::kFloat64: return 8;
    case Datatype::kPairDoubleDouble: return 16;
    case Datatype::kPairInt64Int64: return 16;
  }
  return 0;  // unreachable
}

/// Reduction operators. All are associative; kSum/kProd/kMin/kMax/bitwise
/// are also commutative. kMaxPairFirst / kMinPairFirst act on the pair
/// datatypes and select the whole pair whose `first` component wins, which
/// is how the sorter implements distributed weighted-reservoir pivot picks.
enum class ReduceOp : std::uint8_t {
  kSum,
  kProd,
  kMin,
  kMax,
  kBand,
  kBor,
  kBxor,
  kMaxPairFirst,
  kMinPairFirst,
};

/// Applies `inout[i] = op(in[i], inout[i])` for i in [0, count).
/// Throws UsageError if (op, dt) is not a supported combination.
void ApplyReduce(ReduceOp op, Datatype dt, const void* in, void* inout,
                 int count);

}  // namespace mpisim
