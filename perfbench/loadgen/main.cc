// perfbench_loadgen: the serving benchmark's load generator.
//
//   perfbench_loadgen --workload uniform-miss|zipf-hit|insert-read
//                     --seed N --seconds S --trace 0|1 --workdir DIR
//                     [--spans FILE] [--corrupt-expectation]
//
// One process. It generates the workload's dataset and seeded request
// stream, answers every request with the oracle, then sets up the index
// the way `islabel build` and `islabel serve --index DIR --listen ...
// --threads 2` do (Build, Save, Load, one metric registry, 64 MB
// QueryCache, 8192-per-thread flight recorder, event log, TcpServer with
// 2 workers) five times, and serves the last one over loopback to a
// closed-loop client on 2 connections. With --trace 0 it times the
// stream for S seconds and prints the end-to-end metrics as one JSON
// line; with --trace 1 it runs shorter untraced and traced wire phases
// plus an in-process replay that times each layer's public entry point,
// and writes the spans to --spans.
// Any wrong answer makes the exit code 3; --corrupt-expectation plants
// one wrong expectation to prove it.

#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine_pool.h"
#include "core/index.h"
#include "core/path.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "perfbench/loadgen/oracle.h"
#include "perfbench/loadgen/spans.h"
#include "perfbench/loadgen/wire_client.h"
#include "perfbench/loadgen/workload.h"
#include "server/dispatcher.h"
#include "server/protocol.h"
#include "server/query_cache.h"
#include "server/tcp_server.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using islabel::ISLabelIndex;
using islabel::QueryEnginePool;
using islabel::QueryStats;
using islabel::server::QueryCache;
using islabel::server::RequestDispatcher;
using islabel::server::TcpServer;

constexpr int kSetupReps = 5;
// Timed phases report rates and latency quantiles as medians over windows
// of this many reads (insert-read: over rounds of 1,024), so each
// window's p99 has 20 samples beyond it. A window lasts about 1.4 s on
// uniform-miss and 5 ms on zipf-hit, where a few milliseconds' stall of
// the host's vCPUs then moves a few windows rather than every one.
constexpr std::uint64_t kWindowReads = 2000;
constexpr std::uint32_t kServerWorkers = 2;
// Traced runs: each wire phase and the replay get this share of --seconds;
// the replay also stops after this many requests per thread.
constexpr double kTracedPhaseShare = 0.3;
constexpr std::size_t kReplayCap = 20000;
// ... and each wire phase of a traced run stops after this many requests,
// which keeps zipf-hit's span file near 20 MB.
constexpr std::uint64_t kTracedWireCap = 300000;
constexpr int kExitWrong = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string workdir;
  std::string spans;
  bool corrupt = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--corrupt-expectation") {
      a->corrupt = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v);
    } else if (k == "--trace") {
      a->trace = std::atoi(v);
    } else if (k == "--workdir") {
      a->workdir = v;
    } else if (k == "--spans") {
      a->spans = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && !a->workdir.empty() && a->seconds > 0 &&
         (a->trace == 0 || !a->spans.empty());
}

double Seconds(std::uint64_t from_ns, std::uint64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Medians over the windows between consecutive marks.
struct WindowRates {
  double qps = 0;
  double p50_us = 0;
  double p99_us = 0;
  double cpu_us_per_req = 0;         // process CPU minus the generator's
  double client_cpu_us_per_req = 0;  // the generator's own
};

WindowRates MedianRates(const std::vector<WindowMark>& marks) {
  std::vector<double> qps, p50, p99, cpu, client;
  for (std::size_t i = 1; i < marks.size(); ++i) {
    const WindowMark& a = marks[i - 1];
    const WindowMark& b = marks[i];
    const double n = static_cast<double>(b.completed - a.completed);
    if (n == 0) continue;
    const double client_ns = static_cast<double>(b.client_cpu_ns - a.client_cpu_ns);
    qps.push_back(n / Seconds(a.t_ns, b.t_ns));
    p50.push_back(b.p50_us);
    p99.push_back(b.p99_us);
    cpu.push_back((static_cast<double>(b.process_cpu_ns - a.process_cpu_ns) -
                   client_ns) / n / 1e3);
    client.push_back(client_ns / n / 1e3);
  }
  return {Median(qps), Median(p50), Median(p99), Median(cpu), Median(client)};
}

/// Restarts the kernel's count of the process's peak RSS (VmHWM).
bool ResetPeakRss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return clear_refs.good();
}

double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024;
  }
  return 0;
}

std::uint64_t DirBytes(const fs::path& dir) {
  std::uint64_t total = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

/// The serving stack of one set-up, as `islabel serve --index --listen`
/// builds it. Members are destroyed server first, registry last.
struct Served {
  std::unique_ptr<islabel::obs::MetricRegistry> registry;
  std::unique_ptr<islabel::obs::FlightRecorder> recorder;
  std::unique_ptr<islabel::obs::EventLog> event_log;
  std::unique_ptr<ISLabelIndex> index;
  std::shared_ptr<QueryCache> cache;
  std::unique_ptr<TcpServer> server;

  ~Served() { Shutdown(); }
  void Shutdown() {
    if (server != nullptr) {
      server->Stop();
      server->Wait();
      server.reset();
    }
  }
  /// Shuts down and frees everything, in destruction order.
  void Reset() {
    Shutdown();
    cache.reset();
    index.reset();
    event_log.reset();
    recorder.reset();
    registry.reset();
  }
};

struct SetupTimes {
  double total = 0;
  double save = 0;
  double load = 0;
  islabel::BuildStats stats;  // hierarchy and labeling split, sizes
};

/// Build + Save + Load + server Start, as `islabel build` followed by
/// `islabel serve --index DIR --listen ... --threads 2` would: the
/// registry, cache, flight recorder (default capacity) and event log
/// (stderr) are wired as that command wires them.
bool SetUp(const Graph& g, const fs::path& dir, Served* out, SetupTimes* t) {
  fs::remove_all(dir);
  const std::uint64_t t0 = NowNs();
  std::uint64_t t1 = 0;
  {
    islabel::IndexOptions opts;
    opts.num_threads = 1;
    auto built = ISLabelIndex::Build(g, opts);
    if (!built.ok()) {
      std::fprintf(stderr, "build: %s\n", built.status().ToString().c_str());
      return false;
    }
    t->stats = built.value().build_stats();
    t1 = NowNs();
    const islabel::Status st = built.value().Save(dir.string());
    if (!st.ok()) {
      std::fprintf(stderr, "save: %s\n", st.ToString().c_str());
      return false;
    }
  }
  const std::uint64_t t2 = NowNs();
  out->registry = std::make_unique<islabel::obs::MetricRegistry>();
  auto loaded = ISLabelIndex::Load(dir.string(), /*labels_in_memory=*/true);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load: %s\n", loaded.status().ToString().c_str());
    return false;
  }
  out->index = std::make_unique<ISLabelIndex>(std::move(loaded).value());
  const std::uint64_t t3 = NowNs();
  out->index->InstallMetrics(out->registry.get());
  islabel::server::QueryCacheOptions copts;
  copts.metrics = out->registry.get();
  out->cache = std::make_shared<QueryCache>(copts);
  out->index->set_distance_cache(out->cache);
  out->recorder = std::make_unique<islabel::obs::FlightRecorder>(
      islabel::obs::FlightRecorderOptions{});
  islabel::obs::EventLogOptions lopts;
  lopts.sink = [](const std::string& line) {
    std::fprintf(stderr, "%s\n", line.c_str());
  };
  out->event_log = std::make_unique<islabel::obs::EventLog>(lopts);
  islabel::server::TcpServerOptions sopts;
  sopts.num_workers = kServerWorkers;
  sopts.metrics = out->registry.get();
  sopts.flight_recorder = out->recorder.get();
  sopts.event_log = out->event_log.get();
  out->server = std::make_unique<TcpServer>(out->index.get(), out->cache.get(),
                                            sopts);
  const islabel::Status st = out->server->Start();
  if (!st.ok()) {
    std::fprintf(stderr, "server start: %s\n", st.ToString().c_str());
    return false;
  }
  const std::uint64_t t4 = NowNs();
  t->total = Seconds(t0, t4);
  t->save = Seconds(t1, t2);
  t->load = Seconds(t2, t3);
  return true;
}

/// Everything the phases share.
struct Bench {
  Args args;
  Graph graph;
  std::unique_ptr<Oracle> oracle;
  Workload wl;
  Served served;
  WireClient client;
  std::vector<Cursor> cursors;  // read-only workloads: position per connection
  std::size_t next_round = 1;   // insert-read: round 0 is the warm-up
  Outcomes tally;  // every checked response of the run
  std::vector<double> insert_us;
  std::uint64_t insert_ns = 0;      // wall time spent in inserts
  std::uint64_t insert_cpu_ns = 0;  // generator-thread CPU spent in inserts

  ISLabelIndex& index() { return *served.index; }

  /// Applies one insert in-process; no request is in flight.
  bool Insert(const Adjacency& adj, SpanBuffer* spans) {
    const std::uint64_t c0 = ClockNs(CLOCK_THREAD_CPUTIME_ID);
    const std::uint64_t t0 = NowNs();
    const islabel::Status st = index().InsertVertex(index().NumVertices(), adj);
    const std::uint64_t t1 = NowNs();
    insert_cpu_ns += ClockNs(CLOCK_THREAD_CPUTIME_ID) - c0;
    insert_ns += t1 - t0;
    if (!st.ok()) {
      std::fprintf(stderr, "insert: %s\n", st.ToString().c_str());
      return false;
    }
    insert_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    if (spans != nullptr) spans->Add("insert", insert_us.size(), 0, t0, t1);
    return true;
  }

  /// Round r's reads as cursors.
  std::vector<Cursor> RoundCursors(std::size_t r) const {
    std::vector<Cursor> cur(kConnections);
    for (int c = 0; c < kConnections; ++c) {
      cur[c] = {&wl.streams[c], wl.rounds[r].begin[c], wl.rounds[r].begin[c],
                wl.rounds[r].end[c], false};
    }
    return cur;
  }

  /// Counters now, with the generator's CPU net of the inserts it ran
  /// (those are the server's work), closing the window whose latencies
  /// are `window` when given.
  WindowMark Mark(std::uint64_t completed,
                  const LatencyHistogram* window = nullptr) const {
    return {NowNs(),
            completed,
            ClockNs(CLOCK_PROCESS_CPUTIME_ID),
            ClockNs(CLOCK_THREAD_CPUTIME_ID) - insert_cpu_ns,
            window != nullptr ? window->QuantileUs(0.50) : 0,
            window != nullptr ? window->QuantileUs(0.99) : 0};
  }

  /// One wire phase until opts.deadline_ns: the read-only stream from the
  /// cursors, or insert-read rounds (each started before the deadline
  /// runs to completion; with opts.window_reads set, each round is a
  /// window).
  bool WirePhase(RunOptions opts, PhaseResult* out) {
    opts.depth = wl.depth;
    if (wl.rounds.empty()) {
      if (!client.Run(&cursors, opts, *oracle, index().NumVertices(), out)) {
        return false;
      }
      if (out->exhausted) std::fprintf(stderr, "warning: request list ran out\n");
      return true;
    }
    out->start_ns = NowNs();
    const std::uint64_t deadline_ns = opts.deadline_ns;
    const bool windows = opts.window_reads != 0;
    opts.deadline_ns = 0;  // a round always runs to completion
    opts.window_reads = 0;
    if (windows) out->marks.push_back(Mark(0));
    while (NowNs() < deadline_ns) {
      if (next_round >= wl.rounds.size()) {
        std::fprintf(stderr, "warning: insert-read rounds ran out\n");
        out->exhausted = true;
        break;
      }
      const std::size_t r = next_round++;
      if (!Insert(wl.rounds[r].insert, opts.spans)) return false;
      std::vector<Cursor> cur = RoundCursors(r);
      PhaseResult round;
      if (!client.Run(&cur, opts, *oracle, index().NumVertices(), &round)) {
        return false;
      }
      out->Add(round);
      out->latency.Merge(round.latency);
      if (windows) out->marks.push_back(Mark(out->completed, &round.latency));
    }
    out->end_ns = NowNs();
    return true;
  }

  bool WarmUp() {
    PhaseResult warm;
    std::vector<Cursor> cur;
    if (wl.rounds.empty()) {
      for (int c = 0; c < kConnections; ++c) {
        cur.push_back({&wl.streams[c], 0, 0, wl.warm_end[c], false});
        cursors.push_back({&wl.streams[c], wl.warm_end[c], wl.warm_end[c],
                           wl.streams[c].size(), wl.cycle});
      }
    } else {
      cur = RoundCursors(0);
    }
    RunOptions opts;
    opts.depth = wl.depth;
    if (!client.Run(&cur, opts, *oracle, index().NumVertices(), &warm)) {
      return false;
    }
    tally.Add(warm);
    return true;
  }

  /// The write probe of the read-only workloads: inserts after the reads.
  bool WriteProbe(SpanBuffer* spans) {
    for (const Adjacency& adj : wl.probe_inserts) {
      if (!Insert(adj, spans)) return false;
    }
    return true;
  }
};

// ---- traced in-process replay ----

void KernelAttrs(ScopedSpan* span, const QueryStats& qs) {
  span->Attr("label_us", qs.label_fetch_seconds * 1e6);
  span->Attr("search_us", qs.search_seconds * 1e6);
  span->Attr("settled", static_cast<double>(qs.settled));
  span->Attr("relaxed", static_cast<double>(qs.relaxed));
  span->Attr("type", static_cast<double>(qs.location));
}

/// Answers request i of `stream` by calling each layer's public entry
/// point in the server's order, one span each, then runs
/// RequestDispatcher::Execute on the same request in its own span. A
/// kernel probe request (`dispatcher` null) skips the cache and Execute.
void ReplayOne(Bench* b, RequestDispatcher* dispatcher, const Stream& stream,
               std::size_t i, std::uint64_t rid, SpanBuffer* buf,
               Outcomes* res) {
  namespace srv = islabel::server;
  std::string_view text = stream.Text(i);
  text.remove_suffix(1);
  ISLabelIndex& index = b->index();
  QueryCache& cache = *b->served.cache;
  std::string response;
  srv::Request req;
  {
    ScopedSpan root(buf, "request", rid);
    {
      ScopedSpan span(buf, "parse", rid, root.id());
      req = srv::ParseRequest(text);
    }
    QueryStats qs;
    islabel::Status st;
    if (req.kind == srv::RequestKind::kDistance) {
      const std::uint64_t gen = cache.generation();
      Distance d = 0;
      bool hit = false;
      if (dispatcher != nullptr) {
        ScopedSpan span(buf, "cache_lookup", rid, root.id());
        hit = cache.Lookup(req.s, req.t, &d);
        span.Attr("hit", hit ? 1 : 0);
      }
      if (!hit) {
        QueryEnginePool::Lease lease;
        {
          ScopedSpan span(buf, "pool_wait", rid, root.id());
          lease = index.engine_pool()->Acquire();
        }
        {
          ScopedSpan span(buf, "kernel", rid, root.id());
          st = lease->Query(req.s, req.t, &d, &qs);
          KernelAttrs(&span, qs);
        }
        if (dispatcher != nullptr) {
          ScopedSpan span(buf, "cache_insert", rid, root.id());
          cache.Insert(req.s, req.t, d, gen);
        }
      }
      ScopedSpan span(buf, "encode", rid, root.id());
      response = st.ok() ? srv::FormatDistance(d) : srv::FormatError(st);
    } else {
      QueryEnginePool::Lease lease;
      {
        ScopedSpan span(buf, "pool_wait", rid, root.id());
        lease = index.engine_pool()->Acquire();
      }
      std::vector<VertexId> path;
      std::vector<Distance> dists;
      islabel::PathCapture capture;
      if (req.kind == srv::RequestKind::kPath) {
        ScopedSpan span(buf, "kernel_path", rid, root.id());
        st = lease->DistanceWithCapture(req.s, req.t, &capture, &qs);
        if (st.ok()) {
          st = islabel::PathReconstructor(lease.get())
                   .Reconstruct(req.s, req.t, capture, &path);
        }
        KernelAttrs(&span, qs);
      } else {
        ScopedSpan span(buf, "kernel_one", rid, root.id());
        st = lease->QueryOneToMany(req.s, req.targets, &dists, &qs);
        KernelAttrs(&span, qs);
      }
      ScopedSpan span(buf, "encode", rid, root.id());
      if (!st.ok()) {
        response = srv::FormatError(st);
      } else if (req.kind == srv::RequestKind::kPath) {
        response = srv::FormatPath(capture.dist, path);
      } else {
        response = srv::FormatDistances(dists);
      }
    }
  }
  const VertexId nv = index.NumVertices();
  res->Count(CheckResponse(stream, i, response, *b->oracle, nv),
             stream.Text(i), response);
  if (dispatcher == nullptr) return;
  {
    ScopedSpan span(buf, "execute", rid);
    span.Attr("kind", static_cast<double>(req.kind));
    response = dispatcher->Execute(req);
  }
  res->Count(CheckResponse(stream, i, response, *b->oracle, nv),
             stream.Text(i), response);
  if (req.kind == srv::RequestKind::kDistance) {
    // Execute has just answered from the cache: time the two layers it
    // repeated once more, as warm as Execute found them, so that the
    // difference is the dispatcher's own time.
    ScopedSpan span(buf, "execute_repeat", rid);
    Distance d = 0;
    const bool hit = cache.Lookup(req.s, req.t, &d);
    response = hit ? srv::FormatDistance(d) : std::string();
  }
}

/// Replays [cursor.next, cursor.end) of one stream (wrapping when the
/// cursor cycles) until the deadline or `cap` requests. Request ids are
/// (thread + 1) << 40 | ++*seq.
void ReplayCursor(Bench* b, RequestDispatcher* dispatcher, Cursor* cursor,
                  int thread, std::uint64_t* seq, std::uint64_t deadline_ns,
                  std::size_t cap, SpanBuffer* buf, Outcomes* res) {
  for (std::size_t n = 0; n < cap && !cursor->done() && NowNs() < deadline_ns;
       ++n) {
    const std::size_t i = cursor->next++;
    if (cursor->cycle && cursor->next == cursor->end) cursor->next = cursor->begin;
    ReplayOne(b, dispatcher, *cursor->stream, i,
              (static_cast<std::uint64_t>(thread + 1) << 40) | ++*seq, buf, res);
  }
}

/// The traced replay on kConnections threads: each thread continues its
/// connection's stream (insert-read: round by round, inserting between
/// rounds on this thread), then the read-only workloads' kernel probe.
bool Replay(Bench* b, SpanLog* log, double seconds, Outcomes* total) {
  RequestDispatcher dispatcher(&b->index());
  RequestDispatcher::MetricsOptions mopts;
  mopts.registry = b->served.registry.get();
  mopts.flight_recorder = b->served.recorder.get();
  mopts.event_log = b->served.event_log.get();
  dispatcher.InstallMetrics(mopts);
  std::vector<SpanBuffer*> bufs;
  for (int c = 0; c < kConnections; ++c) bufs.push_back(log->NewBuffer());
  std::vector<Outcomes> results(kConnections);
  std::vector<std::uint64_t> seq(kConnections, 0);
  const std::uint64_t deadline = NowNs() + static_cast<std::uint64_t>(seconds * 1e9);
  auto run_threads = [&](auto&& body) {
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c) threads.emplace_back(body, c);
    for (std::thread& t : threads) t.join();
  };
  if (b->wl.rounds.empty()) {
    run_threads([&](int c) {
      ReplayCursor(b, &dispatcher, &b->cursors[c], c, &seq[c], deadline,
                   kReplayCap, bufs[c], &results[c]);
    });
    run_threads([&](int c) {
      // The kernel probe, split between the threads: it samples every
      // kernel entry point even where the workload's cache answers all.
      const Stream& s = b->wl.kernel_probe;
      for (std::size_t i = c; i < s.size(); i += kConnections) {
        ReplayOne(b, nullptr, s, i,
                  (static_cast<std::uint64_t>(c + 1) << 40) | ++seq[c], bufs[c],
                  &results[c]);
      }
    });
  } else {
    SpanBuffer* inserts = log->NewBuffer();
    std::size_t done = 0;
    while (NowNs() < deadline && done < kReplayCap &&
           b->next_round < b->wl.rounds.size()) {
      const std::size_t r = b->next_round++;
      if (!b->Insert(b->wl.rounds[r].insert, inserts)) return false;
      std::vector<Cursor> cur = b->RoundCursors(r);
      run_threads([&](int c) {
        ReplayCursor(b, &dispatcher, &cur[c], c, &seq[c], ~std::uint64_t{0},
                     kReplayCap, bufs[c], &results[c]);
      });
      done += cur[0].end - cur[0].begin;
    }
  }
  for (const Outcomes& r : results) total->Add(r);
  return true;
}

// ---- output ----

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  auto b = std::make_unique<Bench>();
  if (!ParseArgs(argc, argv, &b->args)) {
    std::fprintf(stderr,
                 "usage: perfbench_loadgen --workload W --seed N --seconds S "
                 "--trace 0|1 --workdir DIR [--spans FILE] "
                 "[--corrupt-expectation]\n");
    return 2;
  }
  const Args& args = b->args;
  const std::uint64_t t_start = NowNs();
  b->graph = MakeDataset(DatasetOf(args.workload));
  if (b->graph.NumVertices() == 0) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  b->oracle = std::make_unique<Oracle>(&b->graph);
  if (!MakeWorkload(args.workload, args.seed, args.seconds, b->oracle.get(),
                    &b->wl)) {
    return 1;
  }
  Workload& wl = b->wl;
  if (args.corrupt) {
    // The first request after the warm-up expects a distance one too long.
    const std::size_t i = wl.rounds.empty() ? wl.warm_end[0] : wl.rounds[1].begin[0];
    Expect& e = wl.streams[0].mutable_expect(i);
    if (e.kind == Kind::kOne) {
      e.kind = Kind::kDistance;  // a row can never parse as one distance
    } else {
      e.d = e.d == kInfDistance ? 1 : e.d + 1;
    }
  }
  // The oracle's working memory belongs to input generation, not to the
  // program under test: return it and count the peak RSS from here on.
  malloc_trim(0);
  if (!ResetPeakRss()) std::fprintf(stderr, "warning: peak RSS not reset\n");
  std::fprintf(stderr, "[loadgen] %s: %u vertices, inputs and oracle in %.2f s\n",
               wl.dataset.c_str(), b->graph.NumVertices(),
               Seconds(t_start, NowNs()));

  // Set-up, kSetupReps times; the last one serves.
  const fs::path index_dir = fs::path(args.workdir) / "index";
  std::vector<double> setup_s, hier_s, label_s, save_s, load_s;
  SetupTimes times;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    b->served.Reset();
    if (!SetUp(b->graph, index_dir, &b->served, &times)) return 1;
    setup_s.push_back(times.total);
    hier_s.push_back(times.stats.hierarchy_seconds);
    label_s.push_back(times.stats.labeling_seconds);
    save_s.push_back(times.save);
    load_s.push_back(times.load);
  }
  const double index_bytes = static_cast<double>(DirBytes(index_dir));
  std::fprintf(stderr, "[loadgen] set-up");
  for (double t : setup_s) std::fprintf(stderr, " %.3f", t);
  std::fprintf(stderr, " s, index %.0f bytes\n", index_bytes);

  if (!b->client.Connect(b->served.server->port(), kConnections) || !b->WarmUp()) {
    std::fprintf(stderr, "warm-up over the wire failed\n");
    return 1;
  }
  if (wl.cycle) {
    // zipf-hit: every pool pair must now be cached.
    const auto cs = b->served.cache->GetStats();
    if (cs.entries < wl.warm_end[0] + wl.warm_end[1]) {
      std::fprintf(stderr, "warm-up left %" PRIu64 " cache entries\n", cs.entries);
      return 1;
    }
  }

  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  const auto phase_ns = [&](double share) {
    return static_cast<std::uint64_t>(args.seconds * share * 1e9);
  };
  if (args.trace == 0) {
    PhaseResult timed;
    RunOptions opts;
    opts.deadline_ns = NowNs() + phase_ns(1.0);
    opts.window_reads = kWindowReads;
    if (!b->WirePhase(opts, &timed)) {
      std::fprintf(stderr, "timed phase failed\n");
      return 1;
    }
    b->tally.Add(timed);
    const std::size_t timed_inserts = b->insert_us.size();
    // The peak of set-up and serving. The write probe's inserts rebuild
    // G_k fifteen times in a row, and how much of that churn malloc keeps
    // varied the peak by 15% from run to run, so it stays out.
    const double peak_rss_mb = PeakRssMib();
    if (!b->WriteProbe(nullptr)) return 1;
    attempted = timed.completed;
    const WindowRates rates = MedianRates(timed.marks);
    const double n = static_cast<double>(std::max<std::uint64_t>(timed.completed, 1));
    b->served.Shutdown();
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"index_bytes", index_bytes, "bytes"},
        {"peak_rss_mb", peak_rss_mb, "MiB"},
        {"qps", rates.qps, "req/s"},
        {"p50_us", rates.p50_us, "us"},
        {"p99_us", rates.p99_us, "us"},
        {"cpu_us_per_req", rates.cpu_us_per_req, "us"},
        {"write_p50_us", Median(b->insert_us), "us"},
        {"ok_share",
         static_cast<double>(timed.completed - timed.errors - timed.wrong) / n,
         "ratio"},
    };
    std::fprintf(stderr,
                 "[loadgen] timed %.2f s in %zu windows: %" PRIu64
                 " requests (%" PRIu64 " errors), whole-phase p50 %.1f us "
                 "p99 %.1f us, loadgen %.3f us/req, %zu inserts (%zu timed)\n",
                 Seconds(timed.start_ns, timed.end_ns), timed.marks.size() - 1,
                 timed.completed, timed.errors, timed.latency.QuantileUs(0.50),
                 timed.latency.QuantileUs(0.99), rates.client_cpu_us_per_req,
                 b->insert_us.size(), timed_inserts);
  } else {
    SpanLog log;
    SpanBuffer* gen_spans = log.NewBuffer();
    gen_spans->Reserve(kTracedWireCap + 1024);
    // Untraced, then traced wire phases of equal length.
    PhaseResult plain, traced;
    const WindowMark mark0 = b->Mark(0);
    const std::uint64_t insert_wall0 = b->insert_ns;
    RunOptions opts;
    opts.max_requests = kTracedWireCap;
    opts.deadline_ns = NowNs() + phase_ns(kTracedPhaseShare);
    if (!b->WirePhase(opts, &plain)) return 1;
    const double client_ns =
        static_cast<double>(b->Mark(0).client_cpu_ns - mark0.client_cpu_ns);
    const std::uint64_t insert_wall1 = b->insert_ns;
    const islabel::server::TcpServerStats tcp0 = b->served.server->stats();
    opts.deadline_ns = NowNs() + phase_ns(kTracedPhaseShare);
    opts.spans = gen_spans;
    if (!b->WirePhase(opts, &traced)) return 1;
    const islabel::server::TcpServerStats tcp1 = b->served.server->stats();
    const std::uint64_t insert_wall2 = b->insert_ns;
    b->tally.Add(plain);
    b->tally.Add(traced);
    Outcomes replay;
    if (!Replay(b.get(), &log, args.seconds * kTracedPhaseShare, &replay)) return 1;
    b->tally.Add(replay);
    // Engines serving the last reads (an insert starts a fresh pool).
    const auto engines = b->index().engine_pool()->EnginesCreated();
    if (!b->WriteProbe(gen_spans)) return 1;
    attempted = plain.completed + traced.completed + replay.completed;

    // Read wall time per request, inserts left out.
    const auto per_req_us = [](const PhaseResult& r, std::uint64_t inserts_ns) {
      return static_cast<double>(r.end_ns - r.start_ns - inserts_ns) / 1e3 /
             static_cast<double>(std::max<std::uint64_t>(r.completed, 1));
    };
    const double traced_n = static_cast<double>(std::max<std::uint64_t>(traced.completed, 1));
    const islabel::BuildStats& bs = times.stats;
    const auto cs = b->served.cache->GetStats();
    const islabel::VertexHierarchy& h = b->index().hierarchy();
    std::uint64_t core = 0;
    for (VertexId v = 0; v < h.NumVertices(); ++v) {
      if (h.InCore(v) && !b->index().IsDeleted(v)) ++core;
    }
    log.SetValue("depth", wl.depth);
    log.SetValue("hierarchy.build_s", Median(hier_s));
    log.SetValue("hierarchy.k", bs.k);
    log.SetValue("hierarchy.core_vertices", static_cast<double>(bs.core_vertices));
    log.SetValue("hierarchy.core_edges", static_cast<double>(bs.core_edges));
    log.SetValue("labeling.build_s", Median(label_s));
    log.SetValue("labeling.entries", static_cast<double>(bs.label_entries));
    log.SetValue("labeling.bytes", static_cast<double>(bs.label_bytes));
    log.SetValue("storage.save_s", Median(save_s));
    log.SetValue("storage.load_s", Median(load_s));
    log.SetValue("pool.engines_created", static_cast<double>(engines));
    log.SetValue("cache.evictions", static_cast<double>(cs.evictions));
    log.SetValue("cache.gen_invalidations", static_cast<double>(cs.gen_invalidations));
    log.SetValue("tcp.bytes_in_per_req",
                 static_cast<double>(tcp1.bytes_in - tcp0.bytes_in) / traced_n);
    log.SetValue("tcp.bytes_out_per_req",
                 static_cast<double>(tcp1.bytes_out - tcp0.bytes_out) / traced_n);
    log.SetValue("updates.core_vertices", static_cast<double>(core));
    log.SetValue("updates.core_edges", static_cast<double>(h.g_k.NumEdges()));
    log.SetValue("loadgen.cpu_us_per_req",
                 client_ns / static_cast<double>(std::max<std::uint64_t>(plain.completed, 1)) / 1e3);
    log.SetValue("untraced.wall_us_per_req",
                 per_req_us(plain, insert_wall1 - insert_wall0));
    log.SetValue("traced.wall_us_per_req",
                 per_req_us(traced, insert_wall2 - insert_wall1));
    b->served.Shutdown();
    if (!log.Write(args.spans)) {
      std::fprintf(stderr, "cannot write %s\n", args.spans.c_str());
      return 1;
    }
  }

  const Outcomes& t = b->tally;
  if (t.wrong != 0) {
    std::fprintf(stderr, "WRONG ANSWER: %" PRIu64 " responses, first: %s\n",
                 t.wrong, t.first_wrong.c_str());
  }
  PrintResult(t.wrong == 0, attempted, t.errors + t.wrong, metrics);
  std::error_code ec;
  fs::remove_all(args.workdir, ec);
  return t.wrong == 0 ? 0 : kExitWrong;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
