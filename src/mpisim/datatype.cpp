#include "mpisim/datatype.hpp"

#include <algorithm>
#include <cstring>

namespace mpisim {
namespace {

template <typename T, typename F>
void ApplyTyped(const void* in, void* inout, int count, F f) {
  const T* a = static_cast<const T*>(in);
  T* b = static_cast<T*>(inout);
  for (int i = 0; i < count; ++i) b[i] = f(a[i], b[i]);
}

template <typename T>
void ApplyArith(ReduceOp op, const void* in, void* inout, int count) {
  switch (op) {
    case ReduceOp::kSum:
      ApplyTyped<T>(in, inout, count, [](T a, T b) { return static_cast<T>(a + b); });
      return;
    case ReduceOp::kProd:
      ApplyTyped<T>(in, inout, count, [](T a, T b) { return static_cast<T>(a * b); });
      return;
    case ReduceOp::kMin:
      ApplyTyped<T>(in, inout, count, [](T a, T b) { return std::min(a, b); });
      return;
    case ReduceOp::kMax:
      ApplyTyped<T>(in, inout, count, [](T a, T b) { return std::max(a, b); });
      return;
    default:
      break;
  }
  throw UsageError("ApplyReduce: operator not defined for this datatype");
}

template <typename T>
void ApplyBitwise(ReduceOp op, const void* in, void* inout, int count) {
  switch (op) {
    case ReduceOp::kBand:
      ApplyTyped<T>(in, inout, count, [](T a, T b) { return static_cast<T>(a & b); });
      return;
    case ReduceOp::kBor:
      ApplyTyped<T>(in, inout, count, [](T a, T b) { return static_cast<T>(a | b); });
      return;
    case ReduceOp::kBxor:
      ApplyTyped<T>(in, inout, count, [](T a, T b) { return static_cast<T>(a ^ b); });
      return;
    default:
      return ApplyArith<T>(op, in, inout, count);
  }
}

template <typename P>
void ApplyPair(ReduceOp op, const void* in, void* inout, int count) {
  switch (op) {
    case ReduceOp::kMaxPairFirst:
      ApplyTyped<P>(in, inout, count,
                    [](P a, P b) { return a.first > b.first ? a : b; });
      return;
    case ReduceOp::kMinPairFirst:
      ApplyTyped<P>(in, inout, count,
                    [](P a, P b) { return a.first < b.first ? a : b; });
      return;
    default:
      throw UsageError("ApplyReduce: pair datatypes only support k{Max,Min}PairFirst");
  }
}

}  // namespace

void ApplyReduce(ReduceOp op, Datatype dt, const void* in, void* inout,
                 int count) {
  if (count < 0) throw UsageError("ApplyReduce: negative count");
  switch (dt) {
    case Datatype::kByte:
      return ApplyBitwise<std::uint8_t>(op, in, inout, count);
    case Datatype::kInt32:
      return ApplyBitwise<std::int32_t>(op, in, inout, count);
    case Datatype::kUint32:
      return ApplyBitwise<std::uint32_t>(op, in, inout, count);
    case Datatype::kInt64:
      return ApplyBitwise<std::int64_t>(op, in, inout, count);
    case Datatype::kUint64:
      return ApplyBitwise<std::uint64_t>(op, in, inout, count);
    case Datatype::kFloat32:
      return ApplyArith<float>(op, in, inout, count);
    case Datatype::kFloat64:
      return ApplyArith<double>(op, in, inout, count);
    case Datatype::kPairDoubleDouble:
      return ApplyPair<PairDD>(op, in, inout, count);
    case Datatype::kPairInt64Int64:
      return ApplyPair<PairII>(op, in, inout, count);
  }
  throw UsageError("ApplyReduce: unknown datatype");
}

}  // namespace mpisim
