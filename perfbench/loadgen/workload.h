// Seeded request streams for the three workloads, with the answer each
// request must get, and the check every response goes through.
//
// Everything here is generated from the workload seed and answered by
// the oracle before any request is timed; the index under test only
// ever sees the wire text.

#ifndef PERFBENCH_LOADGEN_WORKLOAD_H_
#define PERFBENCH_LOADGEN_WORKLOAD_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "perfbench/loadgen/oracle.h"

namespace perfbench {

/// Connections (and in-process replay threads) of every workload.
inline constexpr int kConnections = 2;

enum class Kind : std::uint8_t { kDistance, kPath, kOne };

/// The answer one request must get.
struct Expect {
  Kind kind = Kind::kDistance;
  VertexId s = 0;
  VertexId t = 0;          // kDistance / kPath
  Distance d = 0;          // kDistance / kPath
  std::uint32_t first = 0; // kOne: answers are one_dists[first, first+count)
  std::uint32_t count = 0;
};

/// One connection's request sequence in send order.
class Stream {
 public:
  /// Appends a request with the answer it must get.
  void AddDistance(VertexId s, VertexId t, Distance d);
  void AddPath(VertexId s, VertexId t, Distance d);
  void AddOne(VertexId s, const std::vector<VertexId>& targets,
              const std::vector<Distance>& dists);

  std::size_t size() const { return expect_.size(); }
  /// Request i's wire text, '\n' included.
  std::string_view Text(std::size_t i) const {
    return std::string_view(text_).substr(offset_[i],
                                          offset_[i + 1] - offset_[i]);
  }
  /// Requests [begin, end) as one contiguous wire buffer.
  std::string_view TextRange(std::size_t begin, std::size_t end) const {
    return std::string_view(text_).substr(offset_[begin],
                                          offset_[end] - offset_[begin]);
  }
  const Expect& expect(std::size_t i) const { return expect_[i]; }
  Expect& mutable_expect(std::size_t i) { return expect_[i]; }
  const Distance* one_dists(const Expect& e) const {
    return one_dists_.data() + e.first;
  }

 private:
  void AddLine(const std::string& line, const Expect& e);

  std::string text_;
  std::vector<std::uint32_t> offset_ = {0};
  std::vector<Expect> expect_;
  std::vector<Distance> one_dists_;
};

enum class Verdict : std::uint8_t { kOk, kError, kWrong };

/// Tallies of checked responses.
struct Outcomes {
  std::uint64_t completed = 0;  // responses received and checked
  std::uint64_t errors = 0;     // "error: ..." responses
  std::uint64_t wrong = 0;      // responses that are not the right answer
  std::string first_wrong;      // request and response of the first one

  /// Counts one response to `request` (its wire text).
  void Count(Verdict v, std::string_view request, std::string_view response);
  void Add(const Outcomes& other);
};

/// Checks one response line (no '\n') against request i of `stream`.
/// Paths must start at S, end at T, use only vertices below
/// `num_vertices` and edges of `graph`, and weigh exactly the expected
/// distance. "error: ..." lines are kError; anything else off is kWrong.
Verdict CheckResponse(const Stream& stream, std::size_t i,
                      std::string_view line, const Oracle& graph,
                      VertexId num_vertices);

/// One insert-read round: an insert (none in round 0, the warm-up), then
/// each connection's reads [begin[c], end[c]).
struct Round {
  Adjacency insert;
  std::array<std::size_t, kConnections> begin{};
  std::array<std::size_t, kConnections> end{};
};

struct Workload {
  std::string name;
  std::string dataset;
  /// Requests in flight per connection.
  int depth = 1;
  std::array<Stream, kConnections> streams;
  /// Requests [0, warm_end[c]) of stream c warm the server up untimed.
  std::array<std::size_t, kConnections> warm_end{};
  /// The timed part wraps around (zipf-hit: every request is a hit).
  bool cycle = false;
  /// insert-read only.
  std::vector<Round> rounds;
  /// Read-only workloads: the inserts of the write-latency probe, run
  /// after the timed phase.
  std::vector<Adjacency> probe_inserts;
  /// Read-only workloads: distance, path and one-to-many requests the
  /// traced in-process replay sends straight to the kernel, so every
  /// kernel entry point has samples even when the cache answers all.
  Stream kernel_probe;
};

/// Builds `name` ("uniform-miss", "zipf-hit" or "insert-read") over
/// `oracle`'s graph from `seed`, answering every request with the oracle
/// and cross-checking a seeded sample of the oracle against
/// baseline/dijkstra. insert-read leaves every round's insert applied to
/// `oracle`. Returns false (with a message on stderr) on an unknown name
/// or an oracle disagreement.
/// `seconds` sizes the insert-read round list so that it outlasts a
/// timed phase of that length.
bool MakeWorkload(const std::string& name, std::uint64_t seed, double seconds,
                  Oracle* oracle, Workload* out);

/// The dataset a workload runs on, or "" for an unknown workload.
std::string DatasetOf(const std::string& workload);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_WORKLOAD_H_
