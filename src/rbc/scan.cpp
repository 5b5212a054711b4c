// rbc::IscanWithTotal -- the inclusive prefix and the total together, from
// one up-sweep/down-sweep (Blelloch, "Prefix Sums and Their Applications",
// CMU-CS-90-190, 1990) over the in-order binomial tree
// (mpisim::detail::InOrderBinomialTreeOf; Sanders & Traeff, "Parallel
// Prefix (Scan) Algorithms for MPI", EuroPVM/MPI 2006): 2(p-1) messages
// over 2 ceil(log2 p) hops. Every subtree is a run of ranks, so a prefix
// is a fold of whole subtree sums, and ranks 0 and p-1 are leaves: a janus
// process, which sits at an end of both its ranges, sends one message up
// and receives one down per sweep and forwards nothing. Iscan followed by
// a broadcast of the last rank's prefix takes as many steps, but each
// distance-doubling round charges a send before its receive, and the pair
// moves p ceil(log2 p) - 2^ceil(log2 p) + p messages (384 at p = 64,
// against 126). An optional rider block folds beside the scan block in the
// same messages.
#include <cstring>
#include <limits>

#include "rbc/collectives.hpp"
#include "rbc/sm.hpp"

namespace rbc {
namespace detail {
namespace {

/// Up sweep, then down sweep, over InOrderBinomialTreeOf(rank, p). A
/// rank's run is its left children's runs, itself, then its right
/// children's runs, in rank order; its items -- its own value and each
/// child's subtree sum -- sit at those positions. Children are received
/// one at a time, in list order (increasing extent), so the model time
/// never depends on which message arrived first; once all are in, run k
/// becomes the fold of items 0..k, and the prefix before the item at
/// position k is the fold of the ranks before this rank's run, then run
/// k-1. A rider keeps its items the same way and folds them whole. The up
/// message is [subtree sum, rider fold] and the down message [prefix,
/// total, rider total], each one byte block; a rank whose run starts at
/// rank 0 has nothing before it and ignores the prefix slot.
class ScanWithTotalSM final : public RequestImpl {
 public:
  ScanWithTotalSM(const void* send, void* incl, void* total, int count,
                  Datatype dt, ReduceOp op, const ScanRider& rider, Comm comm,
                  int tag)
      : incl_(incl), total_(total), count_(count), dt_(dt), op_(op),
        rider_(rider), comm_(std::move(comm)), tag_(tag),
        tree_(mpisim::detail::InOrderBinomialTreeOf(comm_.Rank(),
                                                    comm_.Size())),
        block_(ByteCount(count, dt)),
        rider_block_(ByteCount(rider.count, rider.dt)),
        runs_((tree_.children.size() + 1) * block_),
        rider_items_((tree_.children.size() + 1) * rider_block_),
        incoming_(2 * block_ + rider_block_) {
    // Positions in rank order, from where the runs start in this rank's.
    int before = 0;  // ranks of this rank's run left of it
    for (std::size_t i = 0; i < tree_.children.size(); ++i) {
      if (tree_.children[i] < comm_.Rank()) {
        ++self_;
        before += tree_.child_extents[i];
      }
    }
    first_ = comm_.Rank() - before;
    for (const int off : tree_.child_offsets) {
      std::size_t at = off > before ? 1 : 0;  // this rank precedes it
      for (const int o : tree_.child_offsets) at += o < off ? 1 : 0;
      pos_.push_back(at);
    }
    if (block_ != 0) std::memcpy(Run(self_), send, block_);
    if (rider_block_ != 0) {
      std::memcpy(RiderItem(self_), rider.sendbuf, rider_block_);
    }
    if (tree_.children.empty()) {
      EndUpSweep();
    } else {
      PostChild();
    }
  }

  bool Test(Status*) override {
    if (done_) return true;
    // Up sweep: each child's [subtree sum, rider fold] to its position.
    while (child_ < tree_.children.size()) {
      if (!pending_.Poll()) return false;
      const std::size_t at = pos_[child_];
      if (block_ != 0) std::memcpy(Run(at), incoming_.data(), block_);
      if (rider_block_ != 0) {
        std::memcpy(RiderItem(at), incoming_.data() + block_, rider_block_);
      }
      if (++child_ < tree_.children.size()) {
        PostChild();
      } else {
        EndUpSweep();
      }
    }
    if (done_) return true;  // the root ends with its up sweep
    // Down sweep: [fold of the ranks before this rank's run, total, rider
    // total] from the parent.
    if (!pending_.Poll()) return false;
    Finish(first_ == 0 ? nullptr : incoming_.data(),
           incoming_.data() + block_);
    return true;
  }

 private:
  std::byte* Run(std::size_t k) { return runs_.data() + k * block_; }
  std::byte* RiderItem(std::size_t k) {
    return rider_items_.data() + k * rider_block_;
  }

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

  /// Folds the items in rank order, the lower positions always the left
  /// operand, and stages [subtree sum, rider fold] in the receive buffer,
  /// which stays free until the parent's reply is posted (sends are
  /// eager).
  void EndUpSweep() {
    std::byte* up = incoming_.data();
    for (std::size_t k = 1; k <= tree_.children.size(); ++k) {
      if (block_ != 0) {
        std::memcpy(up, Run(k), block_);
        std::memcpy(Run(k), Run(k - 1), block_);
        mpisim::ApplyReduce(op_, dt_, up, Run(k), count_);
      }
      if (rider_block_ != 0) {
        mpisim::ApplyReduce(rider_.op, rider_.dt, RiderItem(k), RiderItem(0),
                            rider_.count);
      }
    }
    if (block_ != 0) std::memcpy(up, Run(tree_.children.size()), block_);
    if (rider_block_ != 0) {
      std::memcpy(up + block_, RiderItem(0), rider_block_);
    }
    if (tree_.parent < 0) {
      Finish(nullptr, up);
      return;
    }
    Send(up, block_ + rider_block_, tree_.parent);
    pending_ = Irecv(2 * block_ + rider_block_, tree_.parent);
  }

  /// Sends every child [prefix before its run, total, rider total], back
  /// to front -- the largest subtree first, as Bcast does -- and writes
  /// this rank's results. `excl` is the fold of the ranks before this
  /// rank's run, nullptr where it starts at rank 0; `totals` is [total,
  /// rider total].
  void Finish(const std::byte* excl, const std::byte* totals) {
    std::vector<std::byte> down(2 * block_ + rider_block_);
    if (down.size() != 0) {
      std::memcpy(down.data() + block_, totals, block_ + rider_block_);
    }
    for (std::size_t i = tree_.children.size(); i-- > 0;) {
      const std::size_t at = pos_[i];
      Prefix(excl, at == 0 ? nullptr : Run(at - 1), down.data());
      Send(down.data(), down.size(), tree_.children[i]);
    }
    if (block_ != 0) {
      Prefix(excl, Run(self_), incl_);
      std::memcpy(total_, totals, block_);
    }
    if (rider_block_ != 0) {
      std::memcpy(rider_.totalbuf, totals + block_, rider_block_);
    }
    done_ = true;
  }

  /// out = excl op run, or either alone where the other is null; nothing
  /// where both are (nothing precedes).
  void Prefix(const std::byte* excl, const std::byte* run, void* out) const {
    if (block_ == 0 || (excl == nullptr && run == nullptr)) return;
    std::memcpy(out, excl != nullptr ? excl : run, block_);
    if (excl != nullptr && run != nullptr) {
      mpisim::ApplyReduce(op_, dt_, run, out, count_);
    }
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
  std::vector<std::byte> runs_;         // item, then run, k at k * block_
  std::vector<std::byte> rider_items_;  // rider item k; item 0 the fold
  std::vector<std::byte> incoming_;     // a child's sums, or the parent's
  std::vector<std::size_t> pos_;        // child i's position in the run
  std::size_t self_ = 0;                // this rank's position
  int first_ = 0;                       // first rank of this rank's run
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
