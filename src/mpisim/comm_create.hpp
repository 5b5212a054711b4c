// Collective communicator construction, reproducing the mechanisms of the
// open-source MPI implementations the paper measures against (Section III):
//
//  * Context-id agreement uses per-rank context bitmasks combined with an
//    all-reduce (BOR over "used" bits here; MPICH uses BAND over free
//    bits -- equivalent). Under VendorProfile::kSlowCreateGroup the
//    agreement inside CommCreateGroup degrades to a serial ring pass,
//    reproducing the disproportionately slow IBM MPI_Comm_create_group of
//    the paper's Figure 5.
//  * Every constructed communicator materializes an explicit rank array
//    (plus reverse map), charging O(group size) local work -- the linear
//    construction cost that motivates RBC.
//
// Mask context ids are released when the last handle to the communicator
// is dropped (on the owning rank's thread), so long benchmark sweeps do
// not exhaust the id space.
#pragma once

#include <span>

#include "mpisim/comm.hpp"

namespace mpisim {

/// Color value for ranks that opt out of a split (MPI_UNDEFINED).
inline constexpr int kUndefinedColor = -1;

/// Group of the comm ranks listed in `ranks` (MPI_Group_incl): explicit
/// format, O(n) construction.
Group GroupIncl(const Comm& comm, std::span<const int> ranks);

/// Group of the comm-rank ranges in `ranges` (MPI_Group_range_incl):
/// stays in O(#ranges) range format when the communicator's own rank
/// mapping is affine, otherwise falls back to explicit format.
Group GroupRangeIncl(const Comm& comm, std::span<const RankRange> ranges);

/// MPI_Comm_split: blocking collective over the *whole* parent. Performs an
/// allgather of (color, key) pairs -- Omega(alpha log p + beta p), the
/// scaling problem quoted in Section III -- then groups locally. Returns
/// the communicator of the caller's color, or a null Comm for
/// kUndefinedColor.
Comm CommSplit(const Comm& parent, int color, int key);

/// MPI_Comm_create_group: blocking collective over the members of `group`
/// only. Context agreement runs over the parent communicator using `tag`.
/// The calling rank must be a member.
Comm CommCreateGroup(const Comm& parent, const Group& group, int tag);

}  // namespace mpisim
