#include "spans.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace perfbench {

SpanLog::SpanLog(size_t capacity)
    : spans_(capacity), enabled_(capacity > 0) {}

int64_t SpanLog::Add(const char* name, int64_t start_ns, int64_t end_ns,
                     int64_t parent, int64_t request) {
  if (!enabled_) return 0;
  size_t slot = next_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= spans_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  Span& s = spans_[slot];
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.id = static_cast<int64_t>(slot) + 1;
  s.parent = parent;
  s.request = request;
  return s.id;
}

int64_t SpanLog::Open(const char* name, int64_t parent) {
  int64_t now = NowNanos();
  return Add(name, now, now, parent);
}

void SpanLog::Close(int64_t id) {
  if (id > 0) spans_[static_cast<size_t>(id - 1)].end_ns = NowNanos();
}

size_t SpanLog::size() const {
  return std::min(next_.load(std::memory_order_relaxed), spans_.size());
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const size_t n = size();
  int64_t epoch = INT64_MAX;
  for (size_t i = 0; i < n; ++i) epoch = std::min(epoch, spans_[i].start_ns);
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %" PRId64 ", \"parent\": %" PRId64
                 ", \"name\": \"%s\", \"request\": %" PRId64
                 ", \"start_us\": %.3f, \"end_us\": %.3f}\n",
                 s.id, s.parent, s.name, s.request,
                 static_cast<double>(s.start_ns - epoch) / 1e3,
                 static_cast<double>(s.end_ns - epoch) / 1e3);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
