#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

// In-memory span log for the traced pass. The benchmark opens a span
// around every call it makes into a layer (loader, Start, SubmitAsync to
// callback, Apply, the direct engine and loopback replays, Fetch); spans
// are appended lock-free into a buffer reserved up front and written out
// as JSON lines when the run ends.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";    // static string: layer.call
  int64_t start_ns = 0;     // steady_clock, absolute
  int64_t end_ns = 0;
  int64_t id = 0;           // 1-based; 0 = dropped
  int64_t parent = 0;       // enclosing span id, 0 for a root
  int64_t request = -1;     // request index within its phase, -1 if none
};

class SpanLog {
 public:
  // A log of capacity 0 records nothing (the untraced pass).
  explicit SpanLog(size_t capacity);
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  // Records a finished span and returns its id (0 when the log is
  // disabled, or full: that drop is counted).
  int64_t Add(const char* name, int64_t start_ns, int64_t end_ns,
              int64_t parent = 0, int64_t request = -1);
  // Reserves an id for a span that encloses later ones; Close fills it in.
  int64_t Open(const char* name, int64_t parent = 0);
  void Close(int64_t id);

  uint64_t dropped() const { return dropped_.load(); }
  size_t size() const;

  // One JSON object per line, times relative to the earliest span.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::atomic<size_t> next_{0};
  std::atomic<uint64_t> dropped_{0};
  const bool enabled_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
