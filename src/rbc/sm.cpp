#include "rbc/sm.hpp"

namespace rbc::detail {

namespace {

class RangeBinding final : public mpisim::detail::Endpoint {
 public:
  explicit RangeBinding(Comm comm) : comm_(std::move(comm)) {}

  int Rank() const override { return comm_.Rank(); }
  int Size() const override { return comm_.Size(); }
  void Send(const void* buf, int count, Datatype dt, int dest,
            int tag) const override {
    SendInternal(buf, count, dt, dest, tag, comm_);
  }
  mpisim::Request Irecv(void* buf, int count, Datatype dt, int src,
                        int tag) const override {
    return mpisim::Irecv(buf, count, dt, comm_.ToMpi(src), tag, comm_.Mpi());
  }
  bool Iprobe(int src, int tag, Status* st) const override {
    return IprobeInternal(src, tag, comm_, st);
  }
  void Recv(void* buf, int count, Datatype dt, int src,
            int tag) const override {
    RecvInternal(buf, count, dt, src, tag, comm_);
  }

 private:
  Comm comm_;
};

}  // namespace

mpisim::detail::EndpointPtr EndpointOf(const Comm& comm) {
  return std::make_shared<RangeBinding>(comm);
}

topo::VnodeMap VnodesOf(const Comm& comm) {
  const mpisim::Runtime& rt = *mpisim::Ctx().runtime;
  return topo::VnodesOf(comm.Size(), [&](int r) {
    return rt.NodeOf(comm.Mpi().WorldRank(comm.ToMpi(r)));
  });
}

Tree NodeSpreadTree(const topo::VnodeMap& vn, int rank, int root) {
  const int m = vn.Count();
  const int u = vn.vnode_of[root];

  // Network edges, created round by round. `local_root[w]` is the rank
  // that receives vnode w's edge (its gateway for the serving vnode).
  struct Edge {
    int from;  // serving rank
    int to;    // vnode reached
  };
  std::vector<Edge> edges;
  std::vector<int> local_root(static_cast<std::size_t>(m), -1);
  local_root[static_cast<std::size_t>(u)] = root;
  std::vector<int> reached{u};
  int next = 1;  // the vnode at distance `next` from u is reached next
  while (next < m) {
    const std::size_t serving = reached.size();
    for (int j = 0; next < m; ++j) {
      bool any = false;
      for (std::size_t x = 0; x < serving && next < m; ++x) {
        const int v = reached[x];
        if (j >= vn.size[static_cast<std::size_t>(v)]) continue;
        any = true;
        const int w = (u + next++) % m;
        local_root[static_cast<std::size_t>(w)] = vn.GatewayOf(w, v);
        edges.push_back({vn.first[static_cast<std::size_t>(v)] + j, w});
        reached.push_back(w);
      }
      if (!any) break;
    }
  }

  // Subtree sizes: `below[w]` counts vnode w's whole subtree, `hang[r]`
  // the ranks below rank r's network edges. An edge's target vnode only
  // serves in later rounds, so walking the edges backwards sees every
  // target's subtree complete.
  std::vector<int> below(vn.size);
  std::vector<int> hang(vn.vnode_of.size(), 0);
  for (auto e = edges.rbegin(); e != edges.rend(); ++e) {
    const int sub = below[static_cast<std::size_t>(e->to)];
    hang[static_cast<std::size_t>(e->from)] += sub;
    below[static_cast<std::size_t>(vn.vnode_of[e->from])] += sub;
  }

  // Member at relative index q (from the local root) of vnode v. A
  // binomial subtree covers a run of relative indices, and its pre-order
  // is that run in increasing order.
  const auto member = [&](int v, int q) {
    const int f = vn.first[static_cast<std::size_t>(v)];
    const int s = vn.size[static_cast<std::size_t>(v)];
    return f + (local_root[static_cast<std::size_t>(v)] - f + q) % s;
  };

  const int v = vn.vnode_of[rank];
  const int f = vn.first[static_cast<std::size_t>(v)];
  const int s = vn.size[static_cast<std::size_t>(v)];
  const int lr = local_root[static_cast<std::size_t>(v)];
  const Tree intra = BinomialTreeOf(rank - f, s, lr - f);
  Tree t;
  if (intra.parent >= 0) {
    t.parent = f + intra.parent;
  } else if (rank != root) {
    for (const Edge& e : edges) {
      if (e.to == v) t.parent = e.from;
    }
  }
  for (auto e = edges.rbegin(); e != edges.rend(); ++e) {
    if (e->from != rank) continue;
    t.children.push_back(local_root[static_cast<std::size_t>(e->to)]);
    t.child_extents.push_back(below[static_cast<std::size_t>(e->to)]);
  }
  for (std::size_t i = 0; i < intra.children.size(); ++i) {
    const int q = (intra.children[i] - (lr - f) + s) % s;
    int extent = 0;
    for (int k = q; k < q + intra.child_extents[i]; ++k) {
      extent += 1 + hang[static_cast<std::size_t>(member(v, k))];
    }
    t.children.push_back(f + intra.children[i]);
    t.child_extents.push_back(extent);
  }
  int offset = 1;
  for (int e : t.child_extents) {
    t.child_offsets.push_back(offset);
    offset += e;
  }

  if (rank == root) {
    // Pre-order in list order: each member of a vnode in relative order,
    // each followed by the subtrees of its network edges, last round
    // first.
    t.order.reserve(vn.vnode_of.size());
    const auto emit = [&](const auto& self, int w) -> void {
      for (int q = 0; q < vn.size[static_cast<std::size_t>(w)]; ++q) {
        const int x = member(w, q);
        t.order.push_back(x);
        for (auto e = edges.rbegin(); e != edges.rend(); ++e) {
          if (e->from == x) self(self, e->to);
        }
      }
    };
    emit(emit, u);
  }
  return t;
}

}  // namespace rbc::detail
