// A Transport decorator that forwards every call to an inner transport and
// decorates its Split children through Wrap. Tests derive from it to
// observe single calls, or to leave one unforwarded; RecordingTransport
// logs every collective start.
#pragma once

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "sort/transport.hpp"

namespace testutil {

class ForwardingTransport : public jsort::Transport {
 public:
  explicit ForwardingTransport(std::shared_ptr<jsort::Transport> inner)
      : inner_(std::move(inner)) {}

  int Rank() const override { return inner_->Rank(); }
  int Size() const override { return inner_->Size(); }
  int WorldRankOf(int r) const override { return inner_->WorldRankOf(r); }

  jsort::Poll Ibcast(void* buf, int count, jsort::Datatype dt, int root,
                     int tag) override {
    return inner_->Ibcast(buf, count, dt, root, tag);
  }
  jsort::Poll Iscan(const void* send, void* recv, int count,
                    jsort::Datatype dt, jsort::ReduceOp op,
                    int tag) override {
    return inner_->Iscan(send, recv, count, dt, op, tag);
  }
  jsort::Poll Ireduce(const void* send, void* recv, int count,
                      jsort::Datatype dt, jsort::ReduceOp op, int root,
                      int tag) override {
    return inner_->Ireduce(send, recv, count, dt, op, root, tag);
  }
  jsort::Poll Igather(const void* send, int count, jsort::Datatype dt,
                      void* recv, int root, int tag) override {
    return inner_->Igather(send, count, dt, recv, root, tag);
  }
  jsort::Poll IscanWithTotal(const void* send, void* incl, void* total,
                             int count, jsort::Datatype dt,
                             jsort::ReduceOp op, int tag,
                             const jsort::ScanRider& rider = {}) override {
    return inner_->IscanWithTotal(send, incl, total, count, dt, op, tag,
                                  rider);
  }
  jsort::Poll Ialltoallv(const void* send, std::span<const int> sendcounts,
                         std::span<const int> sdispls, jsort::Datatype dt,
                         void* recv, std::span<const int> recvcounts,
                         std::span<const int> rdispls, int tag,
                         std::int64_t segment_bytes) override {
    return inner_->Ialltoallv(send, sendcounts, sdispls, dt, recv,
                              recvcounts, rdispls, tag, segment_bytes);
  }
  jsort::Poll IsparseAlltoallv(std::span<const jsort::SparseBlock> sends,
                               jsort::Datatype dt,
                               std::vector<jsort::SparseDelivery>* received,
                               int tag, std::int64_t segment_bytes) override {
    return inner_->IsparseAlltoallv(sends, dt, received, tag, segment_bytes);
  }
  void Send(const void* buf, int count, jsort::Datatype dt, int dest,
            int tag) override {
    inner_->Send(buf, count, dt, dest, tag);
  }
  bool IprobeAny(int tag, jsort::Status* st) override {
    return inner_->IprobeAny(tag, st);
  }
  void Recv(void* buf, int count, jsort::Datatype dt, int src, int tag,
            jsort::Status* st) override {
    inner_->Recv(buf, count, dt, src, tag, st);
  }
  std::shared_ptr<jsort::Transport> Split(int first, int last) override {
    return Wrap(inner_->Split(first, last));
  }
  const char* Name() const override { return inner_->Name(); }

 protected:
  /// Decorates a Split child as this transport is decorated.
  virtual std::shared_ptr<jsort::Transport> Wrap(
      std::shared_ptr<jsort::Transport> child) = 0;

 private:
  std::shared_ptr<jsort::Transport> inner_;
};

/// One collective start seen by a RecordingTransport.
struct CollectiveCall {
  enum Kind {
    kIbcast,
    kIscan,
    kIreduce,
    kIgather,
    kIscanWithTotal,
    kIalltoallv,
    kIsparseAlltoallv,
  };
  Kind kind;
  jsort::ScanRider rider{};  // IscanWithTotal's; empty for the others
};

/// Records, in order, every collective started on this transport (its
/// Split children record their own), and counts those of the whole tree
/// of Split descendants it heads.
class RecordingTransport final : public ForwardingTransport {
 public:
  explicit RecordingTransport(std::shared_ptr<jsort::Transport> inner)
      : RecordingTransport(std::move(inner),
                           std::make_shared<std::vector<CollectiveCall>>()) {}
  /// A Split child: its calls also count towards `tree`.
  RecordingTransport(std::shared_ptr<jsort::Transport> inner,
                     std::shared_ptr<std::vector<CollectiveCall>> tree)
      : ForwardingTransport(std::move(inner)), tree_(std::move(tree)) {}

  const std::vector<CollectiveCall>& calls() const { return calls_; }
  int Count(CollectiveCall::Kind kind) const { return CountOf(calls_, kind); }
  /// Collectives of `kind` started on this transport and on every Split
  /// descendant, its children's children included.
  int CountInTree(CollectiveCall::Kind kind) const {
    return CountOf(*tree_, kind);
  }

  jsort::Poll Ibcast(void* buf, int count, jsort::Datatype dt, int root,
                     int tag) override {
    Record({CollectiveCall::kIbcast});
    return ForwardingTransport::Ibcast(buf, count, dt, root, tag);
  }
  jsort::Poll Iscan(const void* send, void* recv, int count,
                    jsort::Datatype dt, jsort::ReduceOp op,
                    int tag) override {
    Record({CollectiveCall::kIscan});
    return ForwardingTransport::Iscan(send, recv, count, dt, op, tag);
  }
  jsort::Poll Ireduce(const void* send, void* recv, int count,
                      jsort::Datatype dt, jsort::ReduceOp op, int root,
                      int tag) override {
    Record({CollectiveCall::kIreduce});
    return ForwardingTransport::Ireduce(send, recv, count, dt, op, root, tag);
  }
  jsort::Poll Igather(const void* send, int count, jsort::Datatype dt,
                      void* recv, int root, int tag) override {
    Record({CollectiveCall::kIgather});
    return ForwardingTransport::Igather(send, count, dt, recv, root, tag);
  }
  jsort::Poll IscanWithTotal(const void* send, void* incl, void* total,
                             int count, jsort::Datatype dt,
                             jsort::ReduceOp op, int tag,
                             const jsort::ScanRider& rider = {}) override {
    Record({CollectiveCall::kIscanWithTotal, rider});
    return ForwardingTransport::IscanWithTotal(send, incl, total, count, dt,
                                               op, tag, rider);
  }
  jsort::Poll Ialltoallv(const void* send, std::span<const int> sendcounts,
                         std::span<const int> sdispls, jsort::Datatype dt,
                         void* recv, std::span<const int> recvcounts,
                         std::span<const int> rdispls, int tag,
                         std::int64_t segment_bytes) override {
    Record({CollectiveCall::kIalltoallv});
    return ForwardingTransport::Ialltoallv(send, sendcounts, sdispls, dt,
                                           recv, recvcounts, rdispls, tag,
                                           segment_bytes);
  }
  jsort::Poll IsparseAlltoallv(std::span<const jsort::SparseBlock> sends,
                               jsort::Datatype dt,
                               std::vector<jsort::SparseDelivery>* received,
                               int tag, std::int64_t segment_bytes) override {
    Record({CollectiveCall::kIsparseAlltoallv});
    return ForwardingTransport::IsparseAlltoallv(sends, dt, received, tag,
                                                 segment_bytes);
  }

 protected:
  std::shared_ptr<jsort::Transport> Wrap(
      std::shared_ptr<jsort::Transport> child) override {
    return std::make_shared<RecordingTransport>(std::move(child), tree_);
  }

 private:
  static int CountOf(const std::vector<CollectiveCall>& calls,
                     CollectiveCall::Kind kind) {
    int n = 0;
    for (const CollectiveCall& c : calls) n += c.kind == kind ? 1 : 0;
    return n;
  }
  void Record(const CollectiveCall& call) {
    calls_.push_back(call);
    tree_->push_back(call);
  }

  std::vector<CollectiveCall> calls_;
  std::shared_ptr<std::vector<CollectiveCall>> tree_;
};

}  // namespace testutil
