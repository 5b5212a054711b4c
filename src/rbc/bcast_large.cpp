// Large-input broadcast (the Section V-D extension hook): binomial-tree
// *scatter* of ~p equal segments followed by a *ring allgather*. Total
// traffic per rank is ~2*beta*l instead of the binomial broadcast's
// beta*l per tree edge (log p depth), at O(alpha*p) latency -- the classic
// van-de-Geijn scheme, profitable for large payloads.
#include "rbc/collectives.hpp"
#include "rbc/sm.hpp"

namespace rbc {
namespace detail {
namespace {

/// Segment layout: count elements divided into p segments of
/// ceil(count/p) elements (the last one possibly shorter).
struct Segments {
  int count = 0;
  int p = 1;
  std::size_t esize = 0;

  std::int64_t SegBegin(int s) const {
    const std::int64_t step = (count + p - 1) / p;
    return std::min<std::int64_t>(static_cast<std::int64_t>(s) * step, count);
  }
  std::int64_t SegLen(int s) const { return SegBegin(s + 1) - SegBegin(s); }
  /// Elements covered by segments [a, b).
  std::int64_t RangeLen(int a, int b) const {
    return SegBegin(b) - SegBegin(a);
  }
};

class BcastLargeSM final : public RequestImpl {
 public:
  BcastLargeSM(void* buf, int count, Datatype dt, int root, Comm comm,
               int tag)
      : buf_(static_cast<std::byte*>(buf)), dt_(dt), root_(root),
        comm_(std::move(comm)), tag_(tag),
        tree_(BinomialTreeOf(comm_.Rank(), comm_.Size(), root)),
        seg_{count, comm_.Size(), mpisim::SizeOf(dt)} {
    const int p = comm_.Size();
    relrank_ = (comm_.Rank() - root + p) % p;
    if (tree_.parent < 0) {
      ForwardScatter();
    } else {
      // Receive my subtree's segments [relrank_, relrank_ + extent) into
      // place (segments are identified by *relative* rank).
      pending_ = IrecvInternal(
          buf_ + ByteOf(seg_.SegBegin(relrank_)),
          static_cast<int>(seg_.RangeLen(relrank_, relrank_ + tree_.Extent())),
          dt_, tree_.parent, tag_, comm_);
    }
  }

  bool Test(Status*) override {
    if (!scattered_) {
      if (!pending_.Poll()) return false;
      ForwardScatter();
    }
    // A null request (an empty segment) polls complete.
    while (step_ < comm_.Size() - 1) {
      if (!pending_.Poll()) return false;
      ++step_;
      StartRingStep();
    }
    return true;
  }

 private:
  std::size_t ByteOf(std::int64_t elem) const {
    return static_cast<std::size_t>(elem) * seg_.esize;
  }

  /// Forwards the children's segments, back to front, then starts the ring.
  void ForwardScatter() {
    for (int i = static_cast<int>(tree_.children.size()) - 1; i >= 0; --i) {
      const int child_rel = relrank_ + (1 << i);
      const int child_extent = tree_.child_extents[static_cast<std::size_t>(i)];
      const std::int64_t len = seg_.RangeLen(child_rel, child_rel + child_extent);
      SendInternal(buf_ + ByteOf(seg_.SegBegin(child_rel)),
                   static_cast<int>(len), dt_, tree_.children[static_cast<std::size_t>(i)],
                   tag_, comm_);
    }
    scattered_ = true;
    StartRingStep();
  }

  /// Ring allgather over *relative* ranks: in step s, relative rank r
  /// sends segment (r - s) mod p to r+1 and receives segment (r - s - 1)
  /// mod p from r-1. After p-1 steps every rank holds all segments.
  void StartRingStep() {
    const int p = comm_.Size();
    if (step_ >= p - 1) return;
    const int right_rel = (relrank_ + 1) % p;
    const int left_rel = (relrank_ - 1 + p) % p;
    const int send_seg = (relrank_ - step_ + 2 * p) % p;
    const int recv_seg = (relrank_ - step_ - 1 + 2 * p) % p;
    const int right = (right_rel + root_) % p;
    const int left = (left_rel + root_) % p;
    const std::int64_t send_len = seg_.SegLen(send_seg);
    if (send_len > 0) {
      SendInternal(buf_ + ByteOf(seg_.SegBegin(send_seg)),
                   static_cast<int>(send_len), dt_, right, tag_ + 1, comm_);
    }
    const std::int64_t recv_len = seg_.SegLen(recv_seg);
    if (recv_len > 0) {
      pending_ = IrecvInternal(buf_ + ByteOf(seg_.SegBegin(recv_seg)),
                               static_cast<int>(recv_len), dt_, left,
                               tag_ + 1, comm_);
    } else {
      pending_ = Request();
    }
  }

  std::byte* buf_;
  Datatype dt_;
  int root_;
  Comm comm_;
  int tag_;
  Tree tree_;
  Segments seg_;
  int relrank_ = 0;
  bool scattered_ = false;
  int step_ = 0;
  Request pending_;
};

}  // namespace
}  // namespace detail

int BcastLarge(void* buffer, int count, Datatype dt, int root,
               const Comm& comm) {
  detail::ValidateCollective(comm, root, "BcastLarge");
  auto rec = sanitize::MakeOp(sanitize::CollKind::kBcastLarge, root,
                              kTagBcastLarge, count, mpisim::SizeOf(dt));
  const std::size_t bytes = detail::ByteCount(count, dt);
  if (comm.Rank() == root && sanitize::Enabled()) {
    rec.sig = sanitize::PayloadSignature(buffer, bytes);
  }
  sanitize::CollectiveScope san(comm, std::move(rec));
  if (comm.Size() == 1) return 0;
  mpisim::detail::Run(std::make_shared<detail::BcastLargeSM>(
                          buffer, count, dt, root, comm, kTagBcastLarge),
                      "rbc: BcastLarge");
  if (comm.Rank() != root) san.ArmExitSignatureCheck(buffer, bytes);
  return 0;
}

}  // namespace rbc
