// Spans the benchmark records around its own calls into each layer of
// the program (traced runs only). Each span has a name, start, end,
// parent span and request id, plus a few numeric attributes (the
// kernel's QueryStats, a cache lookup's hit flag). Spans stay in memory,
// one buffer per recording thread, and are written out once at the end
// of the run together with scalar measurements (build statistics, server
// byte counters). perfbench/spans.py reads the file.
//
// File format, one record per line, tab-separated:
//   S <rid> <id> <parent> <name> <start_ns> <end_ns> [<key>=<value>...]
//   M <name> <value>
// parent 0 marks a root span; times are CLOCK_MONOTONIC nanoseconds.

#ifndef PERFBENCH_LOADGEN_SPANS_H_
#define PERFBENCH_LOADGEN_SPANS_H_

#include <time.h>

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Nanoseconds on `clock`: CLOCK_MONOTONIC for time, or a CPU-time clock.
inline std::uint64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000u +
         static_cast<std::uint64_t>(ts.tv_nsec);
}
inline std::uint64_t NowNs() { return ClockNs(CLOCK_MONOTONIC); }

struct SpanAttr {
  const char* key = nullptr;  // static string; null = unused slot
  double value = 0;
};

struct Span {
  const char* name = nullptr;  // static string
  std::uint64_t rid = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::array<SpanAttr, 5> attrs{};
};

/// One recording thread's spans. Not thread-safe.
class SpanBuffer {
 public:
  explicit SpanBuffer(std::uint64_t id_base) : next_id_(id_base) {}

  /// Opens a span starting now; returns its slot for Attr / End.
  std::size_t Begin(const char* name, std::uint64_t rid, std::uint64_t parent);
  void End(std::size_t slot) { spans_[slot].end_ns = NowNs(); }
  void Attr(std::size_t slot, const char* key, double value);
  std::uint64_t id(std::size_t slot) const { return spans_[slot].id; }
  /// Records a finished span.
  void Add(const char* name, std::uint64_t rid, std::uint64_t parent,
           std::uint64_t start_ns, std::uint64_t end_ns);

  void Reserve(std::size_t n) { spans_.reserve(n); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint64_t next_id_;
  std::vector<Span> spans_;
};

/// Times one scope into a buffer.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buf, const char* name, std::uint64_t rid,
             std::uint64_t parent = 0)
      : buf_(buf), slot_(buf->Begin(name, rid, parent)) {}
  ~ScopedSpan() { buf_->End(slot_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return buf_->id(slot_); }
  void Attr(const char* key, double value) { buf_->Attr(slot_, key, value); }

 private:
  SpanBuffer* buf_;
  std::size_t slot_;
};

class SpanLog {
 public:
  /// A buffer for one more recording thread, with its own id range.
  /// Call before that thread starts; the buffer lives as long as the log.
  SpanBuffer* NewBuffer();
  /// A scalar measurement written beside the spans.
  void SetValue(const std::string& name, double value) {
    values_.emplace_back(name, value);
  }
  /// Writes every span and value to `path`; false on an I/O error.
  bool Write(const std::string& path) const;

 private:
  std::deque<SpanBuffer> buffers_;
  std::vector<std::pair<std::string, double>> values_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_SPANS_H_
