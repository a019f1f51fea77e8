#include "perfbench/loadgen/wire_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>

namespace perfbench {

std::size_t LatencyHistogram::Index(std::uint64_t ns) {
  constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  if (ns < kSub) return static_cast<std::size_t>(ns);
  const int e = 63 - __builtin_clzll(ns);  // e >= kSubBits
  const std::uint64_t sub = (ns >> (e - kSubBits)) & (kSub - 1);
  return (static_cast<std::size_t>(e - kSubBits + 1) << kSubBits) + sub;
}

void LatencyHistogram::Clear() {
  std::fill(counts_.begin(), counts_.end(), 0);
  total_ = 0;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
}

double LatencyHistogram::QuantileUs(double q) const {
  if (total_ == 0) return 0;
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total_))));
  std::uint64_t seen = 0;
  std::size_t i = 0;
  while (seen + counts_[i] < rank) seen += counts_[i++];
  constexpr std::size_t kSub = std::size_t{1} << kSubBits;
  if (i < kSub) return static_cast<double>(i) / 1e3;
  const int e = static_cast<int>(i >> kSubBits) + kSubBits - 1;
  const double width = std::ldexp(1.0, e - kSubBits);
  const double lower = static_cast<double>(kSub + (i & (kSub - 1))) * width;
  return (lower + width / 2) / 1e3;
}

WireClient::~WireClient() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
  }
}

bool WireClient::Connect(std::uint16_t port, int count) {
  for (int i = 0; i < count; ++i) {
    Conn conn;
    conn.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (conn.fd < 0) return false;
    conns_.push_back(std::move(conn));
    const int one = 1;
    ::setsockopt(conns_.back().fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(conns_.back().fd, reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      return false;
    }
  }
  return true;
}

bool WireClient::SendBatch(Conn* conn, Cursor* cursor, std::size_t max) {
  const std::size_t room = conn->ring.size() - conn->inflight;
  const std::size_t k = std::min({room, max, cursor->end - cursor->next});
  if (cursor->done() || k == 0) return true;
  const std::string_view text =
      cursor->stream->TextRange(cursor->next, cursor->next + k);
  const std::uint64_t now = NowNs();
  for (std::size_t off = 0; off < text.size();) {
    const ssize_t n =
        ::send(conn->fd, text.data() + off, text.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  for (std::size_t i = 0; i < k; ++i) {
    conn->ring[(conn->head + conn->inflight) % conn->ring.size()] = {
        cursor->next + i, now};
    ++conn->inflight;
  }
  cursor->next += k;
  if (cursor->cycle && cursor->next == cursor->end) cursor->next = cursor->begin;
  return true;
}

bool WireClient::Run(std::vector<Cursor>* cursors, const RunOptions& opts,
                     const Oracle& graph, VertexId num_vertices,
                     PhaseResult* out) {
  const std::size_t n = conns_.size();
  const std::uint64_t deadline_ns = opts.deadline_ns;
  std::uint64_t budget = opts.max_requests == 0 ? ~std::uint64_t{0}
                                                : opts.max_requests;
  for (Conn& c : conns_) {
    c.ring.assign(static_cast<std::size_t>(opts.depth), {});
    c.head = 0;
    c.inflight = 0;
  }
  std::vector<pollfd> pfds(n);
  char chunk[1 << 16];
  out->start_ns = NowNs();
  LatencyHistogram window;
  const auto mark = [&](std::uint64_t now) {
    out->marks.push_back({now, out->completed, ClockNs(CLOCK_PROCESS_CPUTIME_ID),
                          ClockNs(CLOCK_THREAD_CPUTIME_ID),
                          window.QuantileUs(0.50), window.QuantileUs(0.99)});
    window.Clear();
  };
  std::uint64_t next_mark = ~std::uint64_t{0};  // completed count
  if (opts.window_reads != 0) {
    mark(out->start_ns);
    next_mark = out->completed + opts.window_reads;
  }
  bool stopping = false;
  for (;;) {
    bool idle = true;
    bool all_done = true;
    for (std::size_t c = 0; c < n; ++c) {
      if (!stopping) {
        const std::size_t before = conns_[c].inflight;
        if (!SendBatch(&conns_[c], &(*cursors)[c],
                       static_cast<std::size_t>(std::min<std::uint64_t>(budget, 1u << 20)))) {
          return false;
        }
        budget -= conns_[c].inflight - before;
      }
      idle = idle && conns_[c].inflight == 0;
      all_done = all_done && (*cursors)[c].done();
    }
    if (budget == 0) stopping = true;
    if (idle && (stopping || all_done)) {
      if (!stopping && deadline_ns != 0) out->exhausted = true;
      break;
    }
    int timeout_ms = -1;
    if (!stopping && deadline_ns != 0) {
      const std::uint64_t now = NowNs();
      timeout_ms = now >= deadline_ns
                       ? 0
                       : static_cast<int>((deadline_ns - now) / 1000000 + 1);
    }
    for (std::size_t c = 0; c < n; ++c) {
      pfds[c] = {conns_[c].fd, static_cast<short>(conns_[c].inflight ? POLLIN : 0),
                 0};
    }
    if (::poll(pfds.data(), n, timeout_ms) < 0 && errno != EINTR) return false;
    for (std::size_t c = 0; c < n; ++c) {
      if (pfds[c].revents == 0) continue;
      if (pfds[c].revents & (POLLERR | POLLNVAL)) return false;
      Conn& conn = conns_[c];
      const Cursor& cursor = (*cursors)[c];
      for (;;) {
        const ssize_t got = ::recv(conn.fd, chunk, sizeof(chunk), MSG_DONTWAIT);
        if (got < 0 && errno == EINTR) continue;
        if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (got <= 0) return false;  // error or the server hung up
        conn.rbuf.append(chunk, static_cast<std::size_t>(got));
      }
      const std::uint64_t now = NowNs();
      for (;;) {
        const std::size_t nl = conn.rbuf.find('\n', conn.rpos);
        if (nl == std::string::npos) break;
        const std::string_view line(conn.rbuf.data() + conn.rpos, nl - conn.rpos);
        conn.rpos = nl + 1;
        if (conn.inflight == 0) return false;  // a response nobody asked for
        const Inflight req = conn.ring[conn.head];
        conn.head = (conn.head + 1) % conn.ring.size();
        --conn.inflight;
        out->Count(CheckResponse(*cursor.stream, req.index, line, graph,
                                 num_vertices),
                   cursor.stream->Text(req.index), line);
        out->latency.Record(now - req.sent_ns);
        if (opts.window_reads != 0) window.Record(now - req.sent_ns);
        if (opts.spans != nullptr) {
          opts.spans->Add("wire", (static_cast<std::uint64_t>(c) << 40) | req.index,
                     0, req.sent_ns, now);
        }
      }
      conn.rbuf.erase(0, conn.rpos);
      conn.rpos = 0;
    }
    const std::uint64_t now = NowNs();
    if (out->completed >= next_mark) {
      mark(now);
      next_mark = out->completed + opts.window_reads;
    }
    if (deadline_ns != 0 && now >= deadline_ns) stopping = true;
  }
  out->end_ns = NowNs();
  return true;
}

}  // namespace perfbench
