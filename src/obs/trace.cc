#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace rtr::obs {

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kQueueWait:
      return "queue_wait";
    case Phase::kGenerationPin:
      return "generation_pin";
    case Phase::kCacheLookup:
      return "cache_lookup";
    case Phase::kStage1Expand:
      return "stage1_expand";
    case Phase::kStage2Refine:
      return "stage2_refine";
    case Phase::kFinalize:
      return "finalize";
  }
  return "unknown";
}

TraceRecorder::TraceRecorder() { spans_.reserve(64); }

int64_t TraceRecorder::NowNanos() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void TraceRecorder::BeginQuery(int64_t query_id) {
  query_id_ = query_id;
  epoch_nanos_ = NowNanos();
  open_depth_ = 0;
  spans_.clear();
  phase_nanos_.fill(0);
  phase_counts_.fill(0);
  last_end_nanos_ = 0;
  min_start_nanos_ = 0;
  dropped_spans_ = 0;
}

int32_t TraceRecorder::BeginSpan(Phase phase) {
  if (spans_.size() >= kMaxSpans) {
    ++dropped_spans_;
    return -1;
  }
  TraceSpan span;
  span.phase = phase;
  span.depth = open_depth_++;
  span.start_nanos = NowNanos() - epoch_nanos_;
  span.duration_nanos = -1;  // open
  spans_.push_back(span);
  return static_cast<int32_t>(spans_.size() - 1);
}

void TraceRecorder::EndSpan(int32_t index) {
  if (index < 0 || static_cast<size_t>(index) >= spans_.size()) return;
  TraceSpan& span = spans_[index];
  if (span.duration_nanos >= 0) return;  // already closed
  const int64_t end = NowNanos() - epoch_nanos_;
  span.duration_nanos = end - span.start_nanos;
  open_depth_ = span.depth;
  last_end_nanos_ = std::max(last_end_nanos_, end);
  min_start_nanos_ = std::min(min_start_nanos_, span.start_nanos);
  if (span.depth == 0) {
    const size_t p = static_cast<size_t>(span.phase);
    phase_nanos_[p] += span.duration_nanos;
    ++phase_counts_[p];
  }
}

void TraceRecorder::AddSpan(Phase phase, int64_t duration_nanos) {
  AddSpanAt(phase, NowNanos(), duration_nanos);
}

void TraceRecorder::AddSpanAt(Phase phase, int64_t end_abs_nanos,
                              int64_t duration_nanos) {
  if (duration_nanos < 0) duration_nanos = 0;
  const int64_t end = end_abs_nanos - epoch_nanos_;
  last_end_nanos_ = std::max(last_end_nanos_, end);
  min_start_nanos_ = std::min(min_start_nanos_, end - duration_nanos);
  if (spans_.size() >= kMaxSpans) {
    ++dropped_spans_;
  } else {
    TraceSpan span;
    span.phase = phase;
    span.depth = open_depth_;
    span.start_nanos = end - duration_nanos;
    span.duration_nanos = duration_nanos;
    spans_.push_back(span);
  }
  if (open_depth_ == 0) {
    const size_t p = static_cast<size_t>(phase);
    phase_nanos_[p] += duration_nanos;
    ++phase_counts_[p];
  }
}

double TraceRecorder::PhaseMillis(Phase phase) const {
  return static_cast<double>(phase_nanos_[static_cast<size_t>(phase)]) / 1e6;
}

uint64_t TraceRecorder::PhaseSpanCount(Phase phase) const {
  return phase_counts_[static_cast<size_t>(phase)];
}

double TraceRecorder::TotalMillis() const {
  return static_cast<double>(last_end_nanos_ - min_start_nanos_) / 1e6;
}

std::string TraceRecorder::ToJson() const {
  char buf[128];
  std::string out;
  out.reserve(64 + spans_.size() * 48);
  std::snprintf(buf, sizeof(buf), "{\"query_id\":%lld,\"total_ms\":%.3f",
                static_cast<long long>(query_id_), TotalMillis());
  out += buf;
  out += ",\"phases\":{";
  bool first = true;
  for (size_t p = 0; p < kNumPhases; ++p) {
    if (phase_counts_[p] == 0) continue;
    if (!first) out.push_back(',');
    first = false;
    std::snprintf(buf, sizeof(buf), "\"%s\":%.3f",
                  PhaseName(static_cast<Phase>(p)),
                  static_cast<double>(phase_nanos_[p]) / 1e6);
    out += buf;
  }
  out += "},\"spans\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const TraceSpan& s = spans_[i];
    if (i > 0) out.push_back(',');
    std::snprintf(buf, sizeof(buf),
                  "{\"phase\":\"%s\",\"depth\":%d,\"start_us\":%.1f,"
                  "\"dur_us\":%.1f}",
                  PhaseName(s.phase), s.depth,
                  static_cast<double>(s.start_nanos) / 1e3,
                  static_cast<double>(std::max<int64_t>(s.duration_nanos, 0)) /
                      1e3);
    out += buf;
  }
  out += "]";
  if (dropped_spans_ > 0) {
    std::snprintf(buf, sizeof(buf), ",\"dropped_spans\":%llu",
                  static_cast<unsigned long long>(dropped_spans_));
    out += buf;
  }
  out += "}";
  return out;
}

}  // namespace rtr::obs
