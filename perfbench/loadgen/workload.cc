#include "perfbench/loadgen/workload.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>
#include <unordered_set>

#include "baseline/dijkstra.h"
#include "util/random.h"

namespace perfbench {

namespace {

// Oracle threads. They finish before anything is timed.
constexpr int kOracleThreads = 4;

// Read-only workloads draw every pair's first endpoint from this many
// seeded sources, so the oracle runs one search per source instead of
// one per pair. The second endpoint is uniform over all vertices. The
// sources are stratified by degree (see StratifiedSources), so that the
// share of expensive queries does not swing with the seed.
constexpr std::size_t kSources = 4096;
// uniform-miss: distinct pairs (a repeated pair would be a cache hit),
// enough for a 20 s phase at about 4x today's rate.
constexpr std::size_t kUniformPairs = 1u << 18;
constexpr std::size_t kUniformWarm = 512;
// zipf-hit: a pool far below the 64 MB cache's ~760k entries, sampled
// with exponent 1 (insert-read's targets too), and each connection's
// cyclic list of pool draws. Pool size and exponent are assumptions; see
// "Assumptions" in BENCHMARK.md for what each one moves.
constexpr std::size_t kZipfPool = 4096;
constexpr std::size_t kZipfDraws = 1u << 16;
constexpr double kZipfExponent = 1.0;
// Write-latency probe of the read-only workloads.
constexpr std::size_t kProbeInserts = 15;
// Traced-replay kernel probe of the read-only workloads.
constexpr std::size_t kProbeDistances = 256;
constexpr std::size_t kProbePaths = 128;
constexpr std::size_t kProbeOnes = 32;
// Targets of every one-to-many request (an assumption).
constexpr std::size_t kOneTargets = 8;
// insert-read: sources (stratified by degree, picked uniformly), base
// target pool, reads per round, and rounds per second of timed phase the
// round list must cover.
constexpr std::size_t kRwSources = 64;
constexpr std::size_t kRwTargets = 4096;
constexpr std::size_t kReadsPerRound = 1024;
constexpr double kRoundsPerSecond = 16.0;
// insert-read's request mix (an assumption): these shares are `S T` and
// `path S T`, the rest `one S T1..T8`.
constexpr double kDistanceShare = 0.7;
constexpr double kPathShare = 0.2;
// Oracle sources cross-checked against baseline/dijkstra.
constexpr std::size_t kCrossChecks = 2;

/// P(rank r) proportional to 1 / (r + 1)^exponent over ranks [0, n).
class Zipf {
 public:
  Zipf(std::size_t n, double exponent) : cdf_(n) {
    double sum = 0;
    for (std::size_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  std::size_t Sample(islabel::Rng* rng) const {
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), rng->NextDouble());
    return std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// Runs fn(w, i) for i in [0, n) on kOracleThreads threads; w is the
/// thread's index.
template <class F>
void ParallelFor(std::size_t n, F&& fn) {
  std::vector<std::thread> threads;
  for (int w = 0; w < kOracleThreads; ++w) {
    threads.emplace_back([&, w] {
      for (std::size_t i = w; i < n; i += kOracleThreads) fn(w, i);
    });
  }
  for (std::thread& t : threads) t.join();
}

std::vector<VertexId> DistinctVertices(std::size_t count, VertexId n,
                                       islabel::Rng* rng) {
  std::unordered_set<VertexId> seen;
  std::vector<VertexId> out;
  while (out.size() < count) {
    const auto v = static_cast<VertexId>(rng->Uniform(n));
    if (seen.insert(v).second) out.push_back(v);
  }
  return out;
}

/// One random vertex from each of `count` equal slices of the vertices
/// ordered by degree: a seeded sample whose degree mix is the graph's.
std::vector<VertexId> StratifiedSources(const Graph& g, std::size_t count,
                                        islabel::Rng* rng) {
  std::vector<VertexId> order(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) order[v] = v;
  std::stable_sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    return g.Degree(a) < g.Degree(b);
  });
  std::vector<VertexId> out;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t lo = order.size() * i / count;
    const std::size_t hi = order.size() * (i + 1) / count;
    out.push_back(order[lo + rng->Uniform(hi - lo)]);
  }
  return out;
}

/// A new vertex joined to a random vertex u, one of u's neighbours and
/// one more random vertex: a local friend-of-friend link plus a
/// long-range shortcut that lowers distances across the graph (an
/// assumption about what a new member's first links look like).
Adjacency RandomInsert(const Graph& g, islabel::Rng* rng) {
  const auto u = static_cast<VertexId>(rng->Uniform(g.NumVertices()));
  const auto x = static_cast<VertexId>(rng->Uniform(g.NumVertices()));
  Adjacency adj = {{u, 1}};
  const auto nbrs = g.Neighbors(u);
  if (!nbrs.empty()) {
    const VertexId w = nbrs[rng->Uniform(nbrs.size())];
    if (w != u) adj.emplace_back(w, 1);
  }
  if (x != u && (adj.size() < 2 || adj[1].first != x)) adj.emplace_back(x, 1);
  return adj;
}

/// Compares the oracle's distances from each sampled source with
/// baseline/dijkstra on `g`.
bool CrossCheck(const Graph& g, const std::vector<VertexId>& sources,
                const std::vector<DistArray>& oracle_dists) {
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const islabel::SsspResult ref = islabel::DijkstraSssp(g, sources[i]);
    if (!std::equal(ref.dist.begin(), ref.dist.end(), oracle_dists[i].begin(),
                    oracle_dists[i].end())) {
      std::fprintf(stderr, "oracle disagrees with baseline/dijkstra from %u\n",
                   sources[i]);
      return false;
    }
  }
  return true;
}

bool ParseDistance(std::string_view tok, Distance* out) {
  if (tok == "unreachable") {
    *out = kInfDistance;
    return true;
  }
  if (tok.empty() || tok.size() > 19) return false;
  Distance v = 0;
  for (char c : tok) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<Distance>(c - '0');
  }
  *out = v;
  return true;
}

/// Splits off the next space-separated token of *rest.
std::string_view NextToken(std::string_view* rest) {
  const std::size_t sp = rest->find(' ');
  const std::string_view tok = rest->substr(0, sp);
  rest->remove_prefix(sp == std::string_view::npos ? rest->size() : sp + 1);
  return tok;
}

// ---- read-only workloads ----

struct Pair {
  std::uint32_t source;  // index into the source list
  VertexId other;
  Distance d = kInfDistance;
};

/// Answers every pair with one oracle search per source; cross-checks
/// the first kCrossChecks sources against baseline/dijkstra.
bool AnswerPairs(const Oracle& oracle, const std::vector<VertexId>& sources,
                 std::vector<Pair*>* pairs) {
  std::vector<std::vector<Pair*>> by_source(sources.size());
  for (Pair* p : *pairs) by_source[p->source].push_back(p);
  std::vector<DistArray> sampled(kCrossChecks);
  std::vector<DistArray> scratch(kOracleThreads);
  ParallelFor(sources.size(), [&](int w, std::size_t i) {
    DistArray& dist = scratch[w];
    oracle.Sssp(sources[i], &dist);
    for (Pair* p : by_source[i]) p->d = dist[p->other];
    if (i < kCrossChecks) sampled[i] = dist;
  });
  return CrossCheck(oracle.base(),
                    std::vector<VertexId>(sources.begin(),
                                          sources.begin() + kCrossChecks),
                    sampled);
}

bool MakeReadOnly(const std::string& name, std::uint64_t seed,
                  const Oracle& oracle, Workload* out) {
  const bool uniform = name == "uniform-miss";
  islabel::Rng rng(seed);
  const VertexId n = oracle.NumVertices();
  const std::vector<VertexId> sources =
      StratifiedSources(oracle.base(), kSources, &rng);

  // Distinct unordered pairs, each in a random orientation.
  const std::size_t count = uniform ? kUniformWarm + kUniformPairs : kZipfPool;
  std::vector<Pair> pairs;
  std::vector<bool> swapped;
  std::unordered_set<std::uint64_t> seen;
  while (pairs.size() < count) {
    const auto si = static_cast<std::uint32_t>(rng.Uniform(kSources));
    const auto t = static_cast<VertexId>(rng.Uniform(n));
    const VertexId s = sources[si];
    if (s == t) continue;
    const std::uint64_t key = (static_cast<std::uint64_t>(std::min(s, t)) << 32) |
                              std::max(s, t);
    if (!seen.insert(key).second) continue;
    pairs.push_back({si, t});
    swapped.push_back(rng.Bernoulli(0.5));
  }
  // Kernel probe: distance and path requests, then one-to-many rows of
  // one source each.
  std::vector<Pair> probe;
  const std::size_t singles = kProbeDistances + kProbePaths;
  for (std::size_t i = 0; i < singles; ++i) {
    probe.push_back({static_cast<std::uint32_t>(rng.Uniform(kSources)),
                     static_cast<VertexId>(rng.Uniform(n))});
  }
  for (std::size_t r = 0; r < kProbeOnes; ++r) {
    const auto si = static_cast<std::uint32_t>(rng.Uniform(kSources));
    for (std::size_t j = 0; j < kOneTargets; ++j) {
      probe.push_back({si, static_cast<VertexId>(rng.Uniform(n))});
    }
  }
  std::vector<Pair*> all;
  for (Pair& p : pairs) all.push_back(&p);
  for (Pair& p : probe) all.push_back(&p);
  if (!AnswerPairs(oracle, sources, &all)) return false;

  auto add = [&](Stream* stream, std::size_t i) {
    const VertexId s = sources[pairs[i].source];
    if (swapped[i]) {
      stream->AddDistance(pairs[i].other, s, pairs[i].d);
    } else {
      stream->AddDistance(s, pairs[i].other, pairs[i].d);
    }
  };
  if (uniform) {
    out->depth = 2;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      add(&out->streams[i % kConnections], i);
    }
    for (std::size_t c = 0; c < kConnections; ++c) {
      out->warm_end[c] = kUniformWarm / kConnections;
    }
  } else {
    out->depth = 16;
    out->cycle = true;
    // Warm-up: every pool pair once; then each connection's Zipf draws.
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      add(&out->streams[i % kConnections], i);
    }
    const Zipf zipf(kZipfPool, kZipfExponent);
    for (std::size_t c = 0; c < kConnections; ++c) {
      out->warm_end[c] = out->streams[c].size();
      for (std::size_t i = 0; i < kZipfDraws; ++i) {
        add(&out->streams[c], zipf.Sample(&rng));
      }
    }
  }

  for (std::size_t i = 0; i < singles; ++i) {
    const VertexId s = sources[probe[i].source];
    if (i < kProbeDistances) {
      out->kernel_probe.AddDistance(s, probe[i].other, probe[i].d);
    } else {
      out->kernel_probe.AddPath(s, probe[i].other, probe[i].d);
    }
  }
  for (std::size_t r = 0; r < kProbeOnes; ++r) {
    std::vector<VertexId> targets;
    std::vector<Distance> dists;
    for (std::size_t j = 0; j < kOneTargets; ++j) {
      const Pair& p = probe[singles + r * kOneTargets + j];
      targets.push_back(p.other);
      dists.push_back(p.d);
    }
    out->kernel_probe.AddOne(sources[probe[singles + r * kOneTargets].source],
                             targets, dists);
  }
  for (std::size_t i = 0; i < kProbeInserts; ++i) {
    out->probe_inserts.push_back(RandomInsert(oracle.base(), &rng));
  }
  return true;
}

}  // namespace

// ---- insert-read ----

namespace {

bool MakeInsertRead(std::uint64_t seed, double seconds, Oracle* oracle,
                    Workload* out) {
  islabel::Rng rng(seed);
  const Graph& g = oracle->base();
  const VertexId base_n = g.NumVertices();
  const std::vector<VertexId> sources = StratifiedSources(g, kRwSources, &rng);
  const std::vector<VertexId> pool = DistinctVertices(kRwTargets, base_n, &rng);
  std::vector<DistArray> dist(kRwSources);
  ParallelFor(kRwSources,
              [&](int, std::size_t i) { oracle->Sssp(sources[i], &dist[i]); });

  out->depth = 8;
  const auto rounds =
      static_cast<std::size_t>(std::ceil(seconds * kRoundsPerSecond)) + 1;
  std::size_t reads = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    Round round;
    if (r > 0) {
      round.insert = RandomInsert(g, &rng);
      oracle->AddVertex(round.insert);
      ParallelFor(kRwSources,
                  [&](int, std::size_t i) { oracle->ExtendAfterInsert(&dist[i]); });
    }
    // Targets: the inserted vertices, newest first, then the base pool.
    const std::size_t inserted = oracle->NumVertices() - base_n;
    const Zipf target_zipf(inserted + pool.size(), kZipfExponent);
    auto target = [&] {
      const std::size_t rank = target_zipf.Sample(&rng);
      return rank < inserted ? static_cast<VertexId>(oracle->NumVertices() - 1 - rank)
                             : pool[rank - inserted];
    };
    for (std::size_t c = 0; c < kConnections; ++c) {
      round.begin[c] = out->streams[c].size();
    }
    for (std::size_t q = 0; q < kReadsPerRound; ++q, ++reads) {
      Stream* stream = &out->streams[reads % kConnections];
      const std::size_t si = rng.Uniform(kRwSources);
      const double mix = rng.NextDouble();
      if (mix < kDistanceShare + kPathShare) {
        VertexId s = sources[si];
        VertexId t = target();
        const Distance d = dist[si][t];
        if (rng.Bernoulli(0.5)) std::swap(s, t);
        if (mix < kDistanceShare) {
          stream->AddDistance(s, t, d);
        } else {
          stream->AddPath(s, t, d);
        }
      } else {
        std::vector<VertexId> targets;
        std::vector<Distance> dists;
        for (std::size_t j = 0; j < kOneTargets; ++j) {
          targets.push_back(target());
          dists.push_back(dist[si][targets.back()]);
        }
        stream->AddOne(sources[si], targets, dists);
      }
    }
    for (std::size_t c = 0; c < kConnections; ++c) {
      round.end[c] = out->streams[c].size();
    }
    out->rounds.push_back(std::move(round));
  }
  // The final state covers every insert: check it against baseline/dijkstra.
  return CrossCheck(oracle->ToGraph(),
                    std::vector<VertexId>(sources.begin(),
                                          sources.begin() + kCrossChecks),
                    std::vector<DistArray>(dist.begin(), dist.begin() + kCrossChecks));
}

}  // namespace

// ---- Stream ----

void Stream::AddLine(const std::string& line, const Expect& e) {
  text_ += line;
  text_ += '\n';
  offset_.push_back(static_cast<std::uint32_t>(text_.size()));
  expect_.push_back(e);
}

void Stream::AddDistance(VertexId s, VertexId t, Distance d) {
  AddLine(std::to_string(s) + ' ' + std::to_string(t),
          {Kind::kDistance, s, t, d});
}

void Stream::AddPath(VertexId s, VertexId t, Distance d) {
  AddLine("path " + std::to_string(s) + ' ' + std::to_string(t),
          {Kind::kPath, s, t, d});
}

void Stream::AddOne(VertexId s, const std::vector<VertexId>& targets,
                    const std::vector<Distance>& dists) {
  std::string line = "one " + std::to_string(s);
  for (VertexId t : targets) line += ' ' + std::to_string(t);
  Expect e{Kind::kOne, s};
  e.first = static_cast<std::uint32_t>(one_dists_.size());
  e.count = static_cast<std::uint32_t>(targets.size());
  one_dists_.insert(one_dists_.end(), dists.begin(), dists.end());
  AddLine(line, e);
}

void Outcomes::Count(Verdict v, std::string_view request,
                     std::string_view response) {
  ++completed;
  if (v == Verdict::kError) ++errors;
  if (v == Verdict::kWrong && wrong++ == 0) {
    if (request.ends_with('\n')) request.remove_suffix(1);
    std::string msg;
    msg.reserve(request.size() + response.size() + 16);
    msg += '\'';
    msg.append(request.data(), request.size());
    msg += "' answered '";
    msg.append(response.data(), response.size());
    msg += '\'';
    first_wrong = std::move(msg);
  }
}

void Outcomes::Add(const Outcomes& other) {
  completed += other.completed;
  errors += other.errors;
  if (wrong == 0) first_wrong = other.first_wrong;
  wrong += other.wrong;
}

Verdict CheckResponse(const Stream& stream, std::size_t i,
                      std::string_view line, const Oracle& graph,
                      VertexId num_vertices) {
  if (line.starts_with("error:")) return Verdict::kError;
  const Expect& e = stream.expect(i);
  Distance d = 0;
  switch (e.kind) {
    case Kind::kDistance:
      return ParseDistance(line, &d) && d == e.d ? Verdict::kOk : Verdict::kWrong;
    case Kind::kOne: {
      const Distance* want = stream.one_dists(e);
      for (std::uint32_t j = 0; j < e.count; ++j) {
        if (line.empty() || !ParseDistance(NextToken(&line), &d) || d != want[j]) {
          return Verdict::kWrong;
        }
      }
      return line.empty() ? Verdict::kOk : Verdict::kWrong;
    }
    case Kind::kPath: {
      if (e.d == kInfDistance) {
        return line == "unreachable" ? Verdict::kOk : Verdict::kWrong;
      }
      const std::size_t colon = line.find(':');
      if (colon == std::string_view::npos ||
          !ParseDistance(line.substr(0, colon), &d) || d != e.d) {
        return Verdict::kWrong;
      }
      // " v0 v1 ... vk" after the colon.
      std::string_view rest = line.substr(colon + 1);
      if (!rest.starts_with(' ')) return Verdict::kWrong;
      rest.remove_prefix(1);
      Distance walked = 0;
      VertexId prev = islabel::kInvalidVertex;
      while (!rest.empty()) {
        Distance v = 0;
        if (!ParseDistance(NextToken(&rest), &v) || v >= num_vertices) {
          return Verdict::kWrong;
        }
        if (prev == islabel::kInvalidVertex) {
          if (v != e.s) return Verdict::kWrong;
        } else {
          const Distance w = graph.EdgeWeight(prev, static_cast<VertexId>(v));
          if (w == kInfDistance) return Verdict::kWrong;
          walked += w;
        }
        prev = static_cast<VertexId>(v);
      }
      return prev == e.t && walked == e.d ? Verdict::kOk : Verdict::kWrong;
    }
  }
  return Verdict::kWrong;
}

std::string DatasetOf(const std::string& workload) {
  if (workload == "uniform-miss" || workload == "zipf-hit") return "synth-google";
  if (workload == "insert-read") return "synth-btc";
  return "";
}

bool MakeWorkload(const std::string& name, std::uint64_t seed, double seconds,
                  Oracle* oracle, Workload* out) {
  out->name = name;
  out->dataset = DatasetOf(name);
  if (name == "insert-read") return MakeInsertRead(seed, seconds, oracle, out);
  if (!out->dataset.empty()) return MakeReadOnly(name, seed, *oracle, out);
  std::fprintf(stderr, "unknown workload %s\n", name.c_str());
  return false;
}

}  // namespace perfbench
