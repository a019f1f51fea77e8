// Closed-loop pipelining client over loopback TCP. One thread drives
// every connection: it keeps `depth` requests in flight on each, sends
// each refill as one write, and checks every response line against the
// request's expected answer as it arrives.

#ifndef PERFBENCH_LOADGEN_WIRE_CLIENT_H_
#define PERFBENCH_LOADGEN_WIRE_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/loadgen/oracle.h"
#include "perfbench/loadgen/spans.h"
#include "perfbench/loadgen/workload.h"

namespace perfbench {

/// Where one connection is in its stream.
struct Cursor {
  const Stream* stream = nullptr;
  std::size_t next = 0;   // next request to send
  std::size_t begin = 0;  // where a cycling cursor wraps to
  std::size_t end = 0;    // one past the last request
  bool cycle = false;
  bool done() const { return !cycle && next >= end; }
};

/// Latency histogram with fixed memory: exact below 512 ns, then 512
/// log-linear buckets per power of two (resolution under 0.2%), so that
/// recording millions of latencies neither allocates nor moves the
/// process's peak RSS.
class LatencyHistogram {
 public:
  void Record(std::uint64_t ns) {
    ++counts_[Index(ns)];
    ++total_;
  }
  void Merge(const LatencyHistogram& other);
  void Clear();
  /// Nearest-rank quantile (0 < q <= 1) in µs, as its bucket's midpoint.
  double QuantileUs(double q) const;

 private:
  static constexpr int kSubBits = 9;
  static std::size_t Index(std::uint64_t ns);

  std::vector<std::uint64_t> counts_ =
      std::vector<std::uint64_t>(std::size_t{64} << kSubBits);
  std::uint64_t total_ = 0;
};

/// Counters at one window boundary of a timed phase, and the latency
/// quantiles of the window that ends there. The benchmark reports each
/// rate and quantile as the median over windows, so that a burst of load
/// from outside the process moves a few windows and not the result.
struct WindowMark {
  std::uint64_t t_ns = 0;
  std::uint64_t completed = 0;
  std::uint64_t process_cpu_ns = 0;
  std::uint64_t client_cpu_ns = 0;  // the generator thread's own CPU
  double p50_us = 0;
  double p99_us = 0;
};

struct PhaseResult : Outcomes {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  /// A non-cycling cursor ran out before the deadline.
  bool exhausted = false;
  /// Latency of each response: from the write that sent its request to
  /// the read that returned it.
  LatencyHistogram latency;
  std::vector<WindowMark> marks;  // when RunOptions::window_reads is set
};

struct RunOptions {
  int depth = 1;                    // requests in flight per connection
  std::uint64_t deadline_ns = 0;    // stop sending at this time; 0 = never
  std::uint64_t max_requests = 0;   // stop sending after this many; 0 = no cap
  SpanBuffer* spans = nullptr;      // one "wire" span per request when set
  std::uint64_t window_reads = 0;   // mark a window every this many reads; 0 = never
};

class WireClient {
 public:
  WireClient() = default;
  ~WireClient();
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// Opens `count` connections to 127.0.0.1:port.
  bool Connect(std::uint16_t port, int count);

  /// Sends from cursors[c] on connection c until the deadline or the
  /// request cap is reached or every cursor is done, then waits for
  /// every outstanding response. Responses are checked against `graph`
  /// with `num_vertices` live vertices. False on a socket failure.
  bool Run(std::vector<Cursor>* cursors, const RunOptions& opts,
           const Oracle& graph, VertexId num_vertices, PhaseResult* out);

 private:
  struct Inflight {
    std::size_t index = 0;
    std::uint64_t sent_ns = 0;
  };
  struct Conn {
    int fd = -1;
    std::string rbuf;
    std::size_t rpos = 0;
    std::vector<Inflight> ring;  // capacity = depth, FIFO
    std::size_t head = 0;
    std::size_t inflight = 0;
  };

  bool SendBatch(Conn* conn, Cursor* cursor, std::size_t max);

  std::vector<Conn> conns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_WIRE_CLIENT_H_
