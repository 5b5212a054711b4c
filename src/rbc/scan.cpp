// rbc::IscanWithTotal -- the inclusive prefix and the total together, from
// one up-sweep/down-sweep over the binomial tree rooted at rank 0
// (Blelloch, "Prefix Sums and Their Applications", CMU-CS-90-190, 1990):
// 2(p-1) messages over 2 ceil(log2 p) hops. Iscan followed by a broadcast
// of the last rank's prefix takes as many steps, but each distance-doubling
// round charges a send before its receive, and the pair moves
// p ceil(log2 p) - 2^ceil(log2 p) + p messages (384 at p = 64, against 126).
// An optional rider block folds beside the scan block in the same messages.
#include <cstring>
#include <limits>

#include "rbc/collectives.hpp"
#include "rbc/sm.hpp"

namespace rbc {
namespace detail {
namespace {

/// Up sweep, then down sweep, over BinomialTreeOf(rank, p, 0). Its
/// pre-order is rank order, so a rank's subtree is the run of ranks
/// starting at itself, and child i's run follows the rank itself and the
/// runs of children 0..i-1. Run i -- the fold of the rank's own value and
/// children 0..i-1's subtree sums -- is therefore what precedes child i's
/// run within this rank's run; the last run is the subtree sum. A rider
/// keeps one fold of its subtree; the up message is [subtree sum, rider
/// fold] and the down message [prefix, total, rider total], each one byte
/// block. The rider's part of a message may sit at any offset, so it is
/// folded from an aligned copy.
class ScanWithTotalSM final : public RequestImpl {
 public:
  ScanWithTotalSM(const void* send, void* incl, void* total, int count,
                  Datatype dt, ReduceOp op, const ScanRider& rider, Comm comm,
                  int tag)
      : incl_(incl), total_(total), count_(count), dt_(dt), op_(op),
        rider_(rider), comm_(std::move(comm)), tag_(tag),
        tree_(BinomialTreeOf(comm_.Rank(), comm_.Size(), 0)),
        block_(ByteCount(count, dt)),
        rider_block_(ByteCount(rider.count, rider.dt)),
        runs_((tree_.children.size() + 1) * block_),
        rider_fold_(rider_block_),
        rider_in_(rider_block_),
        incoming_(2 * block_ + rider_block_) {
    if (block_ != 0) std::memcpy(runs_.data(), send, block_);
    if (rider_block_ != 0) {
      std::memcpy(rider_fold_.data(), rider.sendbuf, rider_block_);
    }
    if (tree_.children.empty()) {
      EndUpSweep();
    } else {
      PostChild();
    }
  }

  bool Test(Status*) override {
    if (done_) return true;
    // Up sweep: children one at a time, in list order, so the fold order
    // and the model time never depend on which message arrived first.
    while (child_ < tree_.children.size()) {
      if (!pending_.Poll()) return false;
      std::byte* next = Run(child_ + 1);
      if (block_ != 0) std::memcpy(next, Run(child_), block_);
      // The run so far is the left operand.
      mpisim::ApplyReduce(op_, dt_, incoming_.data(), next, count_);
      if (rider_block_ != 0) {
        std::memcpy(rider_in_.data(), incoming_.data() + block_,
                    rider_block_);
        mpisim::ApplyReduce(rider_.op, rider_.dt, rider_in_.data(),
                            rider_fold_.data(), rider_.count);
      }
      if (++child_ < tree_.children.size()) {
        PostChild();
      } else {
        EndUpSweep();
      }
    }
    if (done_) return true;  // rank 0 ends with its up sweep
    // Down sweep: [fold of the ranks before this one, total, rider total]
    // from the parent.
    if (!pending_.Poll()) return false;
    Finish(incoming_.data(), incoming_.data() + block_);
    return true;
  }

 private:
  std::byte* Run(std::size_t i) { return runs_.data() + i * block_; }

  /// Receives or sends `bytes` raw bytes on the collective's tag.
  Request Irecv(std::size_t bytes, int src) {
    return IrecvInternal(incoming_.data(), static_cast<int>(bytes),
                         Datatype::kByte, src, tag_, comm_);
  }
  void Send(const std::byte* data, std::size_t bytes, int dest) {
    SendInternal(data, static_cast<int>(bytes), Datatype::kByte, dest, tag_,
                 comm_);
  }

  void PostChild() {
    pending_ = Irecv(block_ + rider_block_, tree_.children[child_]);
  }

  /// Stages [subtree sum, rider fold] in the receive buffer, which stays
  /// free until the parent's reply is posted (sends are eager).
  void EndUpSweep() {
    std::byte* up = incoming_.data();
    if (block_ != 0) std::memcpy(up, Run(tree_.children.size()), block_);
    if (rider_block_ != 0) {
      std::memcpy(up + block_, rider_fold_.data(), rider_block_);
    }
    if (tree_.parent < 0) {
      Finish(nullptr, up);
      return;
    }
    Send(up, block_ + rider_block_, tree_.parent);
    pending_ = Irecv(2 * block_ + rider_block_, tree_.parent);
  }

  /// Sends every child [prefix before its run, total, rider total], back
  /// to front -- the deepest subtree first, as Bcast does -- and writes
  /// this rank's results. `excl` is the fold of the ranks before this one,
  /// nullptr on rank 0; `totals` is [total, rider total].
  void Finish(const std::byte* excl, const std::byte* totals) {
    std::vector<std::byte> down(2 * block_ + rider_block_);
    if (down.size() != 0) {
      std::memcpy(down.data() + block_, totals, block_ + rider_block_);
    }
    for (std::size_t i = tree_.children.size(); i-- > 0;) {
      Prefix(excl, Run(i), down.data());
      Send(down.data(), down.size(), tree_.children[i]);
    }
    if (block_ != 0) {
      Prefix(excl, Run(0), incl_);
      std::memcpy(total_, totals, block_);
    }
    if (rider_block_ != 0) {
      std::memcpy(rider_.totalbuf, totals + block_, rider_block_);
    }
    done_ = true;
  }

  /// out = excl op run, or run alone where nothing precedes (excl null).
  void Prefix(const std::byte* excl, const std::byte* run, void* out) const {
    if (block_ == 0) return;
    std::memcpy(out, excl != nullptr ? excl : run, block_);
    if (excl != nullptr) mpisim::ApplyReduce(op_, dt_, run, out, count_);
  }

  void* incl_;
  void* total_;
  int count_;
  Datatype dt_;
  ReduceOp op_;
  ScanRider rider_;
  Comm comm_;
  int tag_;
  Tree tree_;
  std::size_t block_;
  std::size_t rider_block_;
  std::vector<std::byte> runs_;       // run i at i * block_
  std::vector<std::byte> rider_fold_;
  std::vector<std::byte> rider_in_;   // a child's rider fold, aligned
  std::vector<std::byte> incoming_;   // a child's sums, or the parent's
  std::size_t child_ = 0;
  Request pending_;
  bool done_ = false;
};

}  // namespace
}  // namespace detail

int IscanWithTotal(const void* sendbuf, void* inclbuf, void* totalbuf,
                   int count, Datatype dt, ReduceOp op, const Comm& comm,
                   Request* request, int tag, const ScanRider& rider) {
  // The down sweep sends [prefix, total, rider total] as one message.
  const std::size_t down = 2 * detail::ByteCount(count, dt) +
                           detail::ByteCount(rider.count, rider.dt);
  if (down > static_cast<std::size_t>(std::numeric_limits<int>::max())) {
    throw mpisim::UsageError("rbc::IscanWithTotal: count too large");
  }
  auto rec = sanitize::MakeOp(sanitize::CollKind::kScanWithTotal,
                              /*root=*/-1, tag, count, mpisim::SizeOf(dt));
  rec.rider_count = rider.count;
  rec.rider_dtype_size =
      rider.count != 0 ? static_cast<std::uint32_t>(mpisim::SizeOf(rider.dt))
                       : 0;
  return detail::Start(comm, 0, "IscanWithTotal", rec, request, [&] {
    return std::make_shared<detail::ScanWithTotalSM>(
        sendbuf, inclbuf, totalbuf, count, dt, op, rider, comm, tag);
  });
}

}  // namespace rbc
