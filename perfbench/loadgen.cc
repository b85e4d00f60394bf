#include "loadgen.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <thread>
#include <utility>

#include "alloc_probe.h"

namespace perfbench {

namespace {

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

}  // namespace

LoadGenerator::LoadGenerator(rtr::serve::QueryService* service,
                             const std::vector<NodeId>* stream,
                             const Options& options, SpanLog* spans)
    : service_(service),
      stream_(stream),
      options_(options),
      spans_(spans),
      samples_(options.sample_capacity) {}

void LoadGenerator::SleepUntil(int64_t t_ns) {
  // Sleep to within ~100us of the deadline, then spin: a timer wake-up
  // alone is tens of microseconds late, which would be charged to every
  // request of a sub-millisecond workload.
  int64_t remaining = t_ns - NowNanos();
  if (remaining > 150'000) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(remaining - 100'000));
  }
  while (NowNanos() < t_ns) CpuRelax();
}

void LoadGenerator::WaitForSlot(int cap) {
  int v = outstanding_.load(std::memory_order_acquire);
  while (v >= cap) {
    outstanding_.wait(v, std::memory_order_acquire);
    v = outstanding_.load(std::memory_order_acquire);
  }
}

void LoadGenerator::Drain() {
  int v = outstanding_.load(std::memory_order_acquire);
  while (v != 0) {
    outstanding_.wait(v, std::memory_order_acquire);
    v = outstanding_.load(std::memory_order_acquire);
  }
}

bool LoadGenerator::Submit(size_t slot, int64_t due_ns) {
  Slot& s = slots_[slot];
  s = Slot{};
  s.node = (*stream_)[cursor_++ % stream_->size()];
  if (seq_++ % options_.sample_every == 0 &&
      num_samples_ < samples_.size()) {
    s.sample = static_cast<int32_t>(num_samples_++);
    samples_[static_cast<size_t>(s.sample)].node = s.node;
  }
  rtr::serve::ServeRequest request;
  request.query = {s.node};
  request.params = QueryParams();
  outstanding_.fetch_add(1, std::memory_order_relaxed);
  s.due_ns = due_ns;
  if (probe_allocs_) s.allocs_sent = HeapAllocations();
  s.sent_ns = NowNanos();
  rtr::Status st = service_->SubmitAsync(
      std::move(request), [this, slot](const rtr::serve::ServeResponse& r) {
        OnDone(slot, r);
      });
  if (!st.ok()) {
    outstanding_.fetch_sub(1, std::memory_order_release);
    if (s.sample >= 0) samples_[static_cast<size_t>(s.sample)].ok = false;
    return false;
  }
  return true;
}

void LoadGenerator::OnDone(size_t slot,
                           const rtr::serve::ServeResponse& response) {
  Slot& s = slots_[slot];
  if (probe_allocs_) s.allocs_done = HeapAllocations();
  s.done_ns = NowNanos();
  s.queue_ms = response.queue_millis;
  s.total_ms = response.total_millis;
  s.ok = response.status.ok();
  s.cache_hit = response.cache_hit;
  if (s.sample >= 0) {
    SampleRecord& rec = samples_[static_cast<size_t>(s.sample)];
    rec.generation = response.generation;
    rec.cache_hit = response.cache_hit;
    rec.ok = s.ok;
    const auto& entries = response.topk.entries;
    rec.num_entries = static_cast<int>(std::min<size_t>(entries.size(), kTopK));
    std::copy_n(entries.begin(), rec.num_entries, rec.entries.begin());
    // A response longer than k is wrong; make it fail the check.
    if (entries.size() > static_cast<size_t>(kTopK)) rec.ok = false;
  }
  (s.ok ? ok_count_ : failed_count_).fetch_add(1, std::memory_order_relaxed);
  spans_->Add("serve.request", s.sent_ns, s.done_ns, phase_span(),
              static_cast<int64_t>(slot));
  outstanding_.fetch_sub(1, std::memory_order_release);
  outstanding_.notify_one();
}

PhaseResult LoadGenerator::Run(const PhaseSpec& spec) {
  const bool open_loop = spec.qps > 0.0;
  slots_.assign(std::max<size_t>(spec.count, 1), Slot{});
  cursor_ = spec.first;
  probe_allocs_ = spec.probe_allocs;
  ok_count_.store(0);
  failed_count_.store(0);
  PhaseResult result;
  result.name = spec.name;

  phase_span_.store(spans_->Open(spec.name), std::memory_order_relaxed);
  const ProcUsage usage_before = ReadProcUsage();
  const int64_t start = NowNanos();
  if (writer_ != nullptr) writer_->Resume(start);

  const double interval_ns = open_loop ? 1e9 / spec.qps : 0.0;
  for (size_t i = 0; i < spec.count; ++i) {
    if (writer_ != nullptr) writer_->Poll(NowNanos());
    int64_t due = 0;
    if (open_loop) {
      due = start + static_cast<int64_t>(static_cast<double>(i) * interval_ns);
      SleepUntil(due);
    }
    WaitForSlot(spec.outstanding);
    const int64_t now = NowNanos();
    if (open_loop) {
      result.late_max_ms =
          std::max(result.late_max_ms, static_cast<double>(now - due) / 1e6);
    } else {
      due = now;
      if (i + 1 == spec.count) {
        result.busy_completed = ok_count_.load() + failed_count_.load();
        result.busy_seconds = static_cast<double>(now - start) / 1e9;
      }
    }
    if (!Submit(i, due)) ++result.rejected;
    ++result.sent;
  }
  Drain();
  result.usage = ReadProcUsage() - usage_before;
  spans_->Close(phase_span_.load(std::memory_order_relaxed));
  result.seconds = static_cast<double>(NowNanos() - start) / 1e9;
  result.ok = ok_count_.load();
  result.failed = failed_count_.load();

  const double inf = std::numeric_limits<double>::infinity();
  for (size_t slot = 0; slot < result.sent; ++slot) {
    const Slot& s = slots_[slot];
    const bool done = s.done_ns != 0;
    if (open_loop) {
      result.latency_ms.push_back(
          done && s.ok ? static_cast<double>(s.done_ns - s.due_ns) / 1e6
                       : inf);
    }
    if (!done) continue;
    result.queue_ms.push_back(s.queue_ms);
    result.exec_ms.push_back(s.total_ms - s.queue_ms);
    if (!s.cache_hit) result.miss_nodes.push_back(s.node);
    if (spec.probe_allocs) {
      result.allocs.push_back(
          static_cast<double>(s.allocs_done - s.allocs_sent));
    }
  }
  return result;
}

}  // namespace perfbench
