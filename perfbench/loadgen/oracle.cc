#include "perfbench/loadgen/oracle.h"

#include <cstdio>
#include <cstdlib>

#include "graph/components.h"
#include "graph/edge_list.h"
#include "graph/generators.h"
#include "util/random.h"

namespace perfbench {

namespace {

// The dataset seed of bench/bench_common.cc.
constexpr std::uint64_t kDatasetSeed = 2013;

Graph Lcc(islabel::EdgeList edges) {
  const Graph full = Graph::FromEdgeList(std::move(edges));
  return islabel::ExtractLargestComponent(full).graph;
}

/// The oracle is a BFS, exact only while every edge weighs 1, as in both
/// datasets and every generated insert.
void RequireUnitWeight(Weight w) {
  if (w != 1) {
    std::fprintf(stderr, "oracle: edge weight %u, the BFS oracle needs 1\n",
                 static_cast<unsigned>(w));
    std::abort();
  }
}

}  // namespace

Graph MakeDataset(const std::string& name) {
  islabel::Rng rng(kDatasetSeed);
  if (name == "synth-google") {
    const VertexId n = 45000 * 3;
    return Lcc(islabel::GenerateCliqueCommunity(n, 11, 0.4, 0.10, 24.0, &rng));
  }
  if (name == "synth-btc") {
    const VertexId n = 250000 * 2;
    islabel::EdgeList el = islabel::GenerateBarabasiAlbert(n, 1, &rng);
    for (VertexId i = 0; i < n / 10; ++i) {
      el.Add(static_cast<VertexId>(rng.Uniform(n)),
             static_cast<VertexId>(rng.Uniform(n)), 1);
    }
    return Lcc(std::move(el));
  }
  return Graph();
}

Oracle::Oracle(const Graph* base) : base_(base), extra_(base->NumVertices()) {
  for (VertexId v = 0; v < base->NumVertices(); ++v) {
    for (Weight w : base->NeighborWeights(v)) RequireUnitWeight(w);
  }
}

template <class F>
void Oracle::ForEachNeighbor(VertexId v, F&& f) const {
  if (v < base_->NumVertices()) {
    const auto nbrs = base_->Neighbors(v);
    const auto ws = base_->NeighborWeights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) f(nbrs[i], ws[i]);
  }
  for (const auto& [u, w] : extra_[v]) f(u, w);
}

void Oracle::Sssp(VertexId source, DistArray* dist) const {
  dist->assign(NumVertices(), kInfDistance);
  (*dist)[source] = 0;
  Propagate(source, dist);
}

void Oracle::Propagate(VertexId start, DistArray* dist) const {
  // Unit weights and one seed: FIFO order is distance order.
  std::vector<VertexId> queue = {start};
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const VertexId v = queue[head];
    const Distance d = (*dist)[v] + 1;
    ForEachNeighbor(v, [&](VertexId u, Weight) {
      if (d < (*dist)[u]) {
        (*dist)[u] = d;
        queue.push_back(u);
      }
    });
  }
}

void Oracle::AddVertex(const Adjacency& adj) {
  const VertexId v = NumVertices();
  extra_.emplace_back(adj);
  for (const auto& [u, w] : adj) {
    RequireUnitWeight(w);
    extra_[u].emplace_back(v, w);
  }
}

void Oracle::ExtendAfterInsert(DistArray* dist) const {
  const VertexId v = NumVertices() - 1;
  Distance dv = kInfDistance;
  for (const auto& [u, w] : extra_[v]) {
    if ((*dist)[u] != kInfDistance) dv = std::min(dv, (*dist)[u] + w);
  }
  dist->push_back(dv);
  if (dv != kInfDistance) Propagate(v, dist);
}

Distance Oracle::EdgeWeight(VertexId u, VertexId v) const {
  Distance best = kInfDistance;
  if (u < base_->NumVertices() && v < base_->NumVertices()) {
    best = base_->EdgeWeight(u, v);
  }
  if (u < NumVertices()) {
    for (const auto& [x, w] : extra_[u]) {
      if (x == v) best = std::min<Distance>(best, w);
    }
  }
  return best;
}

Graph Oracle::ToGraph() const {
  islabel::EdgeList edges = base_->ToEdgeList();
  edges.EnsureVertices(NumVertices());
  for (VertexId v = base_->NumVertices(); v < NumVertices(); ++v) {
    for (const auto& [u, w] : extra_[v]) edges.Add(v, u, w);
  }
  return Graph::FromEdgeList(std::move(edges));
}

}  // namespace perfbench
