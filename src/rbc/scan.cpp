// rbc::Scan / rbc::Iscan -- inclusive prefix reduction with
// distance-doubling (Hillis-Steele) rounds over RBC point-to-point
// operations. O(alpha log p + beta l log p).
//
// rbc::IscanWithTotal -- the inclusive prefix and the total together, from
// one up-sweep/down-sweep over the binomial tree rooted at rank 0
// (Blelloch, "Prefix Sums and Their Applications", CMU-CS-90-190, 1990):
// 2(p-1) messages over 2 ceil(log2 p) hops. Iscan followed by a broadcast
// of the last rank's prefix takes as many steps, but each distance-doubling
// round charges a send before its receive, and the pair moves
// p ceil(log2 p) - 2^ceil(log2 p) + p messages (384 at p = 64, against 126).
#include <limits>

#include "rbc/collectives.hpp"
#include "rbc/sanitize.hpp"
#include "rbc/sm.hpp"

namespace rbc {
namespace detail {
namespace {

class ScanSM final : public RequestImpl {
 public:
  ScanSM(const void* send, void* recv, int count, Datatype dt, ReduceOp op,
         Comm comm, int tag)
      : recv_(recv), count_(count), dt_(dt), op_(op), comm_(std::move(comm)),
        tag_(tag), partial_(ByteCount(count, dt)),
        incoming_(partial_.size()) {
    if (!partial_.empty()) std::memcpy(partial_.data(), send, partial_.size());
    AdvanceRounds();
  }

  bool Test(Status*) override {
    if (done_) return true;
    if (!pending_.Poll()) return false;
    // `incoming_` is the fold over ranks < rank: the left operand.
    mpisim::ApplyReduce(op_, dt_, partial_.data(), incoming_.data(), count_);
    partial_.swap(incoming_);
    d_ <<= 1;
    AdvanceRounds();
    return done_;
  }

 private:
  void AdvanceRounds() {
    const int p = comm_.Size();
    const int rank = comm_.Rank();
    while (d_ < p) {
      // Send the pre-round partial before merging this round's input.
      if (rank + d_ < p) {
        SendInternal(partial_.data(), count_, dt_, rank + d_, tag_, comm_);
      }
      if (rank - d_ >= 0) {
        pending_ =
            IrecvInternal(incoming_.data(), count_, dt_, rank - d_, tag_,
                          comm_);
        return;  // this round's data dependency
      }
      d_ <<= 1;
    }
    if (!partial_.empty()) {
      std::memcpy(recv_, partial_.data(), partial_.size());
    }
    done_ = true;
  }

  void* recv_;
  int count_;
  Datatype dt_;
  ReduceOp op_;
  Comm comm_;
  int tag_;
  std::vector<std::byte> partial_;
  std::vector<std::byte> incoming_;
  Request pending_;
  int d_ = 1;
  bool done_ = false;
};

/// Up sweep, then down sweep, over BinomialTreeOf(rank, p, 0). Its
/// pre-order is rank order, so a rank's subtree is the run of ranks
/// starting at itself, and child i's run follows the rank itself and the
/// runs of children 0..i-1. Run i -- the fold of the rank's own value and
/// children 0..i-1's subtree sums -- is therefore what precedes child i's
/// run within this rank's run; the last run is the subtree sum.
class ScanWithTotalSM final : public RequestImpl {
 public:
  ScanWithTotalSM(const void* send, void* incl, void* total, int count,
                  Datatype dt, ReduceOp op, Comm comm, int tag)
      : incl_(incl), total_(total), count_(count), dt_(dt), op_(op),
        comm_(std::move(comm)), tag_(tag),
        tree_(BinomialTreeOf(comm_.Rank(), comm_.Size(), 0)),
        block_(ByteCount(count, dt)),
        runs_((tree_.children.size() + 1) * block_),
        incoming_(2 * block_) {
    if (block_ != 0) std::memcpy(runs_.data(), send, block_);
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
      if (++child_ < tree_.children.size()) {
        PostChild();
      } else {
        EndUpSweep();
      }
    }
    if (done_) return true;  // rank 0 ends with its up sweep
    // Down sweep: [fold of the ranks before this one, total] from the
    // parent.
    if (!pending_.Poll()) return false;
    Finish(incoming_.data(), incoming_.data() + block_);
    return true;
  }

 private:
  std::byte* Run(std::size_t i) { return runs_.data() + i * block_; }

  void PostChild() {
    pending_ = IrecvInternal(incoming_.data(), count_, dt_,
                             tree_.children[child_], tag_, comm_);
  }

  void EndUpSweep() {
    const std::byte* sum = Run(tree_.children.size());
    if (tree_.parent < 0) {
      Finish(nullptr, sum);
      return;
    }
    SendInternal(sum, count_, dt_, tree_.parent, tag_, comm_);
    pending_ = IrecvInternal(incoming_.data(), 2 * count_, dt_, tree_.parent,
                             tag_, comm_);
  }

  /// Sends every child [prefix before its run, total], back to front --
  /// the deepest subtree first, as Bcast does -- and writes this rank's
  /// results. `excl` is the fold of the ranks before this one, nullptr on
  /// rank 0.
  void Finish(const std::byte* excl, const std::byte* total) {
    std::vector<std::byte> down(2 * block_);
    if (block_ != 0) std::memcpy(down.data() + block_, total, block_);
    for (std::size_t i = tree_.children.size(); i-- > 0;) {
      Prefix(excl, Run(i), down.data());
      SendInternal(down.data(), 2 * count_, dt_, tree_.children[i], tag_,
                   comm_);
    }
    if (block_ != 0) {
      Prefix(excl, Run(0), incl_);
      std::memcpy(total_, total, block_);
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
  Comm comm_;
  int tag_;
  Tree tree_;
  std::size_t block_;
  std::vector<std::byte> runs_;      // run i at i * block_
  std::vector<std::byte> incoming_;  // a child's sum, or the parent's pair
  std::size_t child_ = 0;
  Request pending_;
  bool done_ = false;
};

}  // namespace
}  // namespace detail

int Scan(const void* sendbuf, void* recvbuf, int count, Datatype dt,
         ReduceOp op, const Comm& comm) {
  detail::ValidateCollective(comm, 0, "Scan");
  sanitize::CollectiveScope san(
      comm, sanitize::MakeOp(sanitize::CollKind::kScan, /*root=*/-1, kTagScan,
                             count, mpisim::SizeOf(dt)));
  detail::RunToCompletion(std::make_shared<detail::ScanSM>(
                              sendbuf, recvbuf, count, dt, op, comm,
                              kTagScan),
                          "rbc: Scan");
  return 0;
}

int Iscan(const void* sendbuf, void* recvbuf, int count, Datatype dt,
          ReduceOp op, const Comm& comm, Request* request, int tag) {
  detail::ValidateCollective(comm, 0, "Iscan");
  if (request == nullptr) throw mpisim::UsageError("rbc::Iscan: null request");
  auto rec = sanitize::MakeOp(sanitize::CollKind::kScan, /*root=*/-1, tag,
                              count, mpisim::SizeOf(dt));
  rec.nonblocking = true;
  sanitize::CollectiveScope san(comm, std::move(rec));
  *request = Request(std::make_shared<detail::ScanSM>(sendbuf, recvbuf, count,
                                                      dt, op, comm, tag));
  return 0;
}

int IscanWithTotal(const void* sendbuf, void* inclbuf, void* totalbuf,
                   int count, Datatype dt, ReduceOp op, const Comm& comm,
                   Request* request, int tag) {
  detail::ValidateCollective(comm, 0, "IscanWithTotal");
  if (request == nullptr) {
    throw mpisim::UsageError("rbc::IscanWithTotal: null request");
  }
  if (count > std::numeric_limits<int>::max() / 2) {
    // The down sweep sends [prefix, total] as one message of 2 * count.
    throw mpisim::UsageError("rbc::IscanWithTotal: count too large");
  }
  auto rec = sanitize::MakeOp(sanitize::CollKind::kScanWithTotal,
                              /*root=*/-1, tag, count, mpisim::SizeOf(dt));
  rec.nonblocking = true;
  sanitize::CollectiveScope san(comm, std::move(rec));
  *request = Request(std::make_shared<detail::ScanWithTotalSM>(
      sendbuf, inclbuf, totalbuf, count, dt, op, comm, tag));
  return 0;
}

}  // namespace rbc
