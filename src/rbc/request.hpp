// rbc::Request -- "a smart pointer to a request that implements the
// specific nonblocking operation" (Section V-B) -- and the four completion
// primitives Test / Wait / Testall / Waitall.
#pragma once

#include <memory>
#include <span>

#include "mpisim/request.hpp"
#include "rbc/comm.hpp"

namespace rbc {

namespace detail {

/// Base of every nonblocking-operation state machine: the substrate's. Its
/// completion is cached in the shared state, so every copy of a Request
/// handle observes it (Section V-B: a Request is a smart pointer to the
/// operation state).
using RequestImpl = mpisim::detail::RequestImpl;

}  // namespace detail

/// Smart-pointer request handle (Table I: class rbc::Request). Null
/// requests test as complete.
class Request {
 public:
  Request() = default;
  explicit Request(std::shared_ptr<detail::RequestImpl> impl)
      : impl_(std::move(impl)) {}

  bool IsNull() const { return impl_ == nullptr; }

  /// Progresses the operation; completion is cached in the shared state,
  /// so all copies of this handle observe it.
  bool Poll(Status* st = nullptr) {
    if (impl_ == nullptr) return true;
    return impl_->Progress(st);
  }

 private:
  std::shared_ptr<detail::RequestImpl> impl_;
};

/// Tests the request; sets *flag to 1 on completion, 0 otherwise.
int Test(Request* request, int* flag, Status* st = nullptr);

/// Repeatedly calls Test until the operation completes (Section V-B).
int Wait(Request* request, Status* st = nullptr);

/// Tests all requests; sets *flag to 1 iff all are complete. Progresses
/// every request on each call.
int Testall(std::span<Request> requests, int* flag);

/// Repeatedly calls Testall until all operations complete.
int Waitall(std::span<Request> requests);

}  // namespace rbc
