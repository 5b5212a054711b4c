// Sanitizer bridge for the RBC collective layer.
//
// RBC communicators are range views (first, size, stride) over an mpisim
// communicator: they own no context id, so the substrate's per-context
// ledger cannot key them directly. This header derives a ledger key that
// extends the underlying MPI communicator's identity (context base +
// group hash) with a hash of the range triple, so two different ranges
// over the same MPI communicator keep separate collective sequences --
// exactly the granularity at which RBC's tag discipline requires callers
// to agree.
//
// A hand-rolled RBC schedule (binomial bcast, 1-factor alltoall, NBX
// sparse exchange, ...) is many point-to-point messages; the sanitizer
// deliberately checks the *intent* -- one logical collective record at
// the public entry -- not the individual sends. Internal fences such as
// the sparse exchange's barriers are built inside the schedule core, which
// records nothing. Composition is handled by the substrate's per-rank
// depth guard: a public collective entered inside another one's scope --
// RBC or mpisim -- records nothing, so only the outermost intent counts.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "mpisim/runtime.hpp"
#include "mpisim/sanitizer.hpp"
#include "rbc/comm.hpp"

namespace rbc::sanitize {

// Re-export the substrate vocabulary so rbc call sites write
// sanitize::MakeOp(...) without reaching around this namespace.
using mpisim::sanitize::CollKind;
using mpisim::sanitize::Enabled;
using mpisim::sanitize::MakeOp;
using mpisim::sanitize::OpRecord;
using mpisim::sanitize::PayloadSignature;

/// Widens an int count span for an OpRecord count vector.
inline std::vector<std::int64_t> ToCounts(std::span<const int> v) {
  return std::vector<std::int64_t>(v.begin(), v.end());
}

/// Ledger key of an RBC range: the underlying MPI communicator's
/// (context base, group hash) plus an FNV-1a mix of the range triple.
/// `range` is never 0, so RBC ledgers can't collide with the underlying
/// communicator's own ledger (which uses range == 0).
inline mpisim::sanitize::GroupKey KeyOf(const Comm& comm) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  mix(static_cast<std::uint64_t>(comm.First()));
  mix(static_cast<std::uint64_t>(comm.Size()));
  mix(static_cast<std::uint64_t>(comm.Stride()));
  if (h == 0) h = 1;
  return mpisim::sanitize::GroupKey{comm.Mpi().Base(),
                                    comm.Mpi().GroupHash(), h};
}

inline std::string DescOf(const Comm& comm) {
  return "rbc comm (mpi ctx base " + std::to_string(comm.Mpi().Base()) +
         ", range first=" + std::to_string(comm.First()) +
         " size=" + std::to_string(comm.Size()) +
         " stride=" + std::to_string(comm.Stride()) + ")";
}

/// RAII scope recording one logical RBC collective. Mirrors
/// mpisim::sanitize::Scope (including the throwing destructor used by the
/// exit-signature check); disabled builds construct an empty optional and
/// cost one branch.
class CollectiveScope {
 public:
  CollectiveScope(const Comm& comm, mpisim::sanitize::OpRecord rec) {
    if (!mpisim::sanitize::Enabled()) return;
    scope_.emplace(KeyOf(comm), DescOf(comm), comm.Rank(),
                   mpisim::Ctx().world_rank, comm.Size(), std::move(rec));
  }

  /// See mpisim::sanitize::Scope::ArmExitSignatureCheck.
  void ArmExitSignatureCheck(const void* buf, std::size_t bytes) {
    if (scope_) scope_->ArmExitSignatureCheck(buf, bytes);
  }

 private:
  // std::optional propagates Scope's potentially-throwing destructor.
  std::optional<mpisim::sanitize::Scope> scope_;
};

}  // namespace rbc::sanitize
