#include "rbc/p2p.hpp"

#include <string>

#include "rbc/tags.hpp"

namespace rbc {

using mpisim::UsageError;

namespace detail {
namespace {

void ValidateMember(const Comm& comm, const char* op) {
  if (comm.IsNull()) {
    throw UsageError(std::string("rbc::") + op + ": null communicator");
  }
  if (comm.Rank() < 0) {
    throw UsageError(std::string("rbc::") + op +
                     ": calling process is not in the RBC communicator");
  }
}

/// Translates an MPI-comm-rank status into RBC rank space.
Status Translate(const Comm& comm, const Status& st) {
  Status out = st;
  out.source = comm.FromMpi(st.source);
  return out;
}

/// Nonblocking receive from a specific RBC rank: wraps the MPI request and
/// translates the completion status.
class RecvSpecificRequest final : public RequestImpl {
 public:
  RecvSpecificRequest(mpisim::Request inner, Comm comm)
      : inner_(std::move(inner)), comm_(std::move(comm)) {}

  bool Test(Status* st) override {
    Status raw;
    if (!inner_.Test(&raw)) return false;
    if (st != nullptr) *st = Translate(comm_, raw);
    return true;
  }

 private:
  mpisim::Request inner_;
  Comm comm_;
};

/// Nonblocking wildcard receive (Section V-C): every Test first searches
/// for an incoming message sent over this RBC communicator (membership
/// filter); once one is found, the receive is posted for that specific
/// source.
class RecvWildcardRequest final : public RequestImpl {
 public:
  RecvWildcardRequest(void* buf, int count, Datatype dt, int tag, Comm comm)
      : buf_(buf), count_(count), dt_(dt), tag_(tag), comm_(std::move(comm)) {}

  bool Test(Status* st) override {
    if (!posted_) {
      Status probe;
      if (!IprobeInternal(kAnySource, tag_, comm_, &probe)) return false;
      inner_ = mpisim::Irecv(buf_, count_, dt_, comm_.ToMpi(probe.source),
                             tag_, comm_.Mpi());
      posted_ = true;
    }
    Status raw;
    if (!inner_.Test(&raw)) return false;
    if (st != nullptr) *st = Translate(comm_, raw);
    return true;
  }

 private:
  void* buf_;
  int count_;
  Datatype dt_;
  int tag_;
  Comm comm_;
  bool posted_ = false;
  mpisim::Request inner_;
};

}  // namespace

void SendInternal(const void* buf, int count, Datatype dt, int dest, int tag,
                  const Comm& comm) {
  ValidateMember(comm, "Send");
  mpisim::Send(buf, count, dt, comm.ToMpi(dest), tag, comm.Mpi());
}

void RecvInternal(void* buf, int count, Datatype dt, int src, int tag,
                  const Comm& comm, Status* st) {
  ValidateMember(comm, "Recv");
  if (src == kAnySource) {
    Status probe;
    ProbeInternal(kAnySource, tag, comm, &probe);
    src = probe.source;
  }
  Status raw;
  mpisim::Recv(buf, count, dt, comm.ToMpi(src), tag, comm.Mpi(), &raw);
  if (st != nullptr) *st = Translate(comm, raw);
}

Request IsendInternal(const void* buf, int count, Datatype dt, int dest,
                      int tag, const Comm& comm) {
  ValidateMember(comm, "Isend");
  mpisim::Request inner =
      mpisim::Isend(buf, count, dt, comm.ToMpi(dest), tag, comm.Mpi());
  return Request(
      std::make_shared<RecvSpecificRequest>(std::move(inner), comm));
}

Request IrecvInternal(void* buf, int count, Datatype dt, int src, int tag,
                      const Comm& comm) {
  ValidateMember(comm, "Irecv");
  if (src == kAnySource) {
    auto impl =
        std::make_shared<RecvWildcardRequest>(buf, count, dt, tag, comm);
    Request req(std::move(impl));
    req.Poll();  // eager first progress attempt
    return req;
  }
  mpisim::Request inner =
      mpisim::Irecv(buf, count, dt, comm.ToMpi(src), tag, comm.Mpi());
  return Request(
      std::make_shared<RecvSpecificRequest>(std::move(inner), comm));
}

bool IprobeInternal(int src, int tag, const Comm& comm, Status* st) {
  ValidateMember(comm, "Iprobe");
  if (src != kAnySource) {
    Status raw;
    if (!mpisim::Iprobe(comm.ToMpi(src), tag, comm.Mpi(), &raw)) return false;
    if (st != nullptr) *st = Translate(comm, raw);
    return true;
  }
  // Wildcard: MPI_Iprobe may report a message of a *different* RBC
  // communicator; report "no message" unless the source is a member
  // (Section V-C "Probing").
  Status raw;
  if (!mpisim::Iprobe(mpisim::kAnySource, tag, comm.Mpi(), &raw)) return false;
  if (!comm.IsMember(raw.source)) return false;
  if (st != nullptr) *st = Translate(comm, raw);
  return true;
}

void ProbeInternal(int src, int tag, const Comm& comm, Status* st) {
  ValidateMember(comm, "Probe");
  if (src != kAnySource) {
    Status raw;
    mpisim::Probe(comm.ToMpi(src), tag, comm.Mpi(), &raw);
    if (st != nullptr) *st = Translate(comm, raw);
    return;
  }
  mpisim::WaitUntil(
      [&] { return IprobeInternal(kAnySource, tag, comm, st); },
      "rbc: Probe(ANY_SOURCE)");
}

}  // namespace detail

namespace {

void ValidateUserTag(int tag, const char* op) {
  if (tag < 0 || tag >= kReservedTagBase) {
    throw UsageError(std::string("rbc::") + op +
                     ": user tags must be in [0, kReservedTagBase)");
  }
}

}  // namespace

int Send(const void* buf, int count, Datatype dt, int dest, int tag,
         const Comm& comm) {
  ValidateUserTag(tag, "Send");
  detail::SendInternal(buf, count, dt, dest, tag, comm);
  return 0;
}

int Recv(void* buf, int count, Datatype dt, int src, int tag,
         const Comm& comm, Status* st) {
  ValidateUserTag(tag, "Recv");
  detail::RecvInternal(buf, count, dt, src, tag, comm, st);
  return 0;
}

int Isend(const void* buf, int count, Datatype dt, int dest, int tag,
          const Comm& comm, Request* request) {
  ValidateUserTag(tag, "Isend");
  if (request == nullptr) throw UsageError("rbc::Isend: null request");
  *request = detail::IsendInternal(buf, count, dt, dest, tag, comm);
  return 0;
}

int Irecv(void* buf, int count, Datatype dt, int src, int tag,
          const Comm& comm, Request* request) {
  ValidateUserTag(tag, "Irecv");
  if (request == nullptr) throw UsageError("rbc::Irecv: null request");
  *request = detail::IrecvInternal(buf, count, dt, src, tag, comm);
  return 0;
}

int Probe(int src, int tag, const Comm& comm, Status* st) {
  ValidateUserTag(tag, "Probe");
  detail::ProbeInternal(src, tag, comm, st);
  return 0;
}

int Iprobe(int src, int tag, const Comm& comm, int* flag, Status* st) {
  ValidateUserTag(tag, "Iprobe");
  const bool found = detail::IprobeInternal(src, tag, comm, st);
  if (flag != nullptr) *flag = found ? 1 : 0;
  return 0;
}

}  // namespace rbc
