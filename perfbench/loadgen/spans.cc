#include "perfbench/loadgen/spans.h"

#include <cinttypes>
#include <cstdio>

namespace perfbench {

std::size_t SpanBuffer::Begin(const char* name, std::uint64_t rid,
                              std::uint64_t parent) {
  Span span;
  span.name = name;
  span.rid = rid;
  span.id = next_id_++;
  span.parent = parent;
  span.start_ns = NowNs();
  spans_.push_back(span);
  return spans_.size() - 1;
}

void SpanBuffer::Attr(std::size_t slot, const char* key, double value) {
  for (SpanAttr& a : spans_[slot].attrs) {
    if (a.key == nullptr) {
      a = {key, value};
      return;
    }
  }
}

void SpanBuffer::Add(const char* name, std::uint64_t rid, std::uint64_t parent,
                     std::uint64_t start_ns, std::uint64_t end_ns) {
  Span span;
  span.name = name;
  span.rid = rid;
  span.id = next_id_++;
  span.parent = parent;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(span);
}

SpanBuffer* SpanLog::NewBuffer() {
  // Ids are unique across buffers: buffer k numbers from (k + 1) << 40.
  buffers_.emplace_back(static_cast<std::uint64_t>(buffers_.size() + 1) << 40);
  return &buffers_.back();
}

bool SpanLog::Write(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanBuffer& buf : buffers_) {
    for (const Span& s : buf.spans()) {
      std::fprintf(f, "S\t%" PRIu64 "\t%" PRIu64 "\t%" PRIu64 "\t%s\t%" PRIu64
                      "\t%" PRIu64,
                   s.rid, s.id, s.parent, s.name, s.start_ns, s.end_ns);
      for (const SpanAttr& a : s.attrs) {
        if (a.key != nullptr) std::fprintf(f, "\t%s=%.9g", a.key, a.value);
      }
      std::fputc('\n', f);
    }
  }
  for (const auto& [name, value] : values_) {
    std::fprintf(f, "M\t%s\t%.17g\n", name.c_str(), value);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
