// Benchmark inputs that do not depend on the workload seed (the two
// datasets) and the answer oracle every served response is checked
// against.
//
// The oracle is a plain breadth-first search over the dataset's edge
// list plus every vertex the benchmark inserts; every edge weighs 1, and
// an edge of any other weight stops the process. It is independent of
// the index under test, and a seeded sample of its distance arrays is
// cross-checked against baseline/dijkstra before any request is timed.

#ifndef PERFBENCH_LOADGEN_ORACLE_H_
#define PERFBENCH_LOADGEN_ORACLE_H_

#include <sys/mman.h>

#include <new>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "graph/graph_defs.h"

namespace perfbench {

using islabel::Distance;
using islabel::Graph;
using islabel::VertexId;
using islabel::Weight;
using islabel::kInfDistance;

using Adjacency = std::vector<std::pair<VertexId, Weight>>;

/// Allocates straight from mmap and returns memory with munmap, so the
/// oracle's large, short-lived arrays never stay behind in malloc's
/// arenas, where they would count toward the peak RSS of the program
/// under test. malloc_trim and the peak reset do not make this
/// redundant: with plain vectors insert-read's peak RSS rose by about
/// 65 MiB (BENCHMARK.md, "Noise").
template <class T>
struct MmapAllocator {
  using value_type = T;
  MmapAllocator() = default;
  template <class U>
  MmapAllocator(const MmapAllocator<U>&) {}  // NOLINT: rebinding
  T* allocate(std::size_t n) {
    void* p = ::mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t n) { ::munmap(p, n * sizeof(T)); }
  template <class U>
  bool operator==(const MmapAllocator<U>&) const { return true; }
};

/// Distances from one source, indexed by vertex.
using DistArray = std::vector<Distance, MmapAllocator<Distance>>;

/// "synth-google" (clique communities, 135k vertices) or "synth-btc"
/// (preferential-attachment tree plus 10% random edges, 500k vertices):
/// the recipes of bench/bench_common.cc at 3x and 2x scale, largest
/// connected component, fixed dataset seed. The workload seed never
/// changes the graph, so index size and build work are the same on
/// every run.
Graph MakeDataset(const std::string& name);

/// Exact distances over `base` plus vertices appended with AddVertex.
class Oracle {
 public:
  explicit Oracle(const Graph* base);

  VertexId NumVertices() const { return static_cast<VertexId>(extra_.size()); }
  /// The dataset, without the inserted vertices.
  const Graph& base() const { return *base_; }

  /// Distances from `source` over the current graph, into *dist (its
  /// memory is reused).
  void Sssp(VertexId source, DistArray* dist) const;

  /// Appends vertex NumVertices() joined to `adj` (existing vertices,
  /// weight 1).
  void AddVertex(const Adjacency& adj);

  /// Brings `dist`, exact for the graph before the last AddVertex, up to
  /// date: appends the new vertex's distance and lowers every distance a
  /// path through it shortens.
  void ExtendAfterInsert(DistArray* dist) const;

  /// Lightest edge u-v, or kInfDistance when there is none.
  Distance EdgeWeight(VertexId u, VertexId v) const;

  /// The current graph as an islabel::Graph (for the baseline check).
  Graph ToGraph() const;

 private:
  template <class F>
  void ForEachNeighbor(VertexId v, F&& f) const;
  /// Decrease-only BFS from `start`.
  void Propagate(VertexId start, DistArray* dist) const;

  const Graph* base_;
  std::vector<Adjacency> extra_;  // edges added by AddVertex, per vertex
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_ORACLE_H_
