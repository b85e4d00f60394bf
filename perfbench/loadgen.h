#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

// The load generator: one thread that submits requests to a
// serve::QueryService, keeping at most `max_outstanding` in flight.
//
// Every phase serves a fixed number of requests from a given offset of the
// request stream, so its work does not depend on how fast the host is.
// Open loop: request i is due at phase start + i / qps; it is sent as soon
// as it is due and a slot is free, and its latency runs from when it was
// due, so a stall of the generator or the service is charged to every
// request it delays. Closed loop: a fixed number of requests stay
// outstanding; each completion frees a slot for the next request.
//
// A Writer, if set, is polled by the same thread between submissions: the
// generator is also the graph's single writer.

#include <array>
#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/twosbound.h"
#include "graph/types.h"
#include "proc_stats.h"
#include "serve/query_service.h"
#include "spans.h"

namespace perfbench {

using rtr::NodeId;

// The query shape of every workload: top-10 at epsilon 0.01.
inline constexpr int kTopK = 10;
inline rtr::core::TopKParams QueryParams() {
  rtr::core::TopKParams params;
  params.k = kTopK;
  params.epsilon = 0.01;
  return params;
}

struct PhaseSpec {
  const char* name = "";
  double qps = 0.0;    // > 0: open loop at this rate; 0: closed loop
  size_t first = 0;    // stream offset of the first request
  size_t count = 0;    // requests served
  int outstanding = 4; // in-flight cap
  bool probe_allocs = false;
};

// A served response kept for the output check.
struct SampleRecord {
  NodeId node = rtr::kInvalidNode;
  uint64_t generation = 0;
  bool cache_hit = false;
  bool ok = false;
  int num_entries = 0;
  std::array<rtr::core::TopKEntry, kTopK> entries{};
};

struct PhaseResult {
  std::string name;
  // Per request, in submission order. Open loop: from due time to
  // completion; closed loop: from submission. Failed or refused requests
  // count as +inf.
  std::vector<double> latency_ms;
  std::vector<double> queue_ms;  // ServeResponse::queue_millis
  std::vector<double> exec_ms;   // total_millis - queue_millis
  std::vector<NodeId> miss_nodes;  // requests answered by the engine
  std::vector<double> allocs;      // probe_allocs: SubmitAsync..callback
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;    // completed with a non-OK status
  uint64_t rejected = 0;  // refused by SubmitAsync
  // First due time (open loop) or submission (closed loop) to the last
  // completion.
  double seconds = 0.0;
  // Closed loop: requests completed up to the last submission, and the
  // seconds to it: the stretch in which every slot was busy. The drain
  // after it is left out, so one slow request at the end does not decide
  // the throughput.
  uint64_t busy_completed = 0;
  double busy_seconds = 0.0;
  double late_max_ms = 0.0;
  ProcUsage usage;
};

// Polled by the generator thread between submissions.
class Writer {
 public:
  virtual ~Writer() = default;
  virtual void Poll(int64_t now_ns) = 0;
  // Restarts the write schedule at a phase boundary.
  virtual void Resume(int64_t now_ns) = 0;
};

class LoadGenerator {
 public:
  struct Options {
    // Every sample_every-th request (over the whole run) is kept for the
    // output check, up to sample_capacity.
    size_t sample_every = 16;
    size_t sample_capacity = 1024;
  };

  // `stream` is the request sequence; a phase reads it from its `first`
  // offset, wrapping at the end. None of the pointers is owned; all must outlive
  // the generator, and the service must be shut down before the
  // generator is destroyed (its callbacks write into the generator).
  LoadGenerator(rtr::serve::QueryService* service,
                const std::vector<NodeId>* stream, const Options& options,
                SpanLog* spans);

  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  void set_writer(Writer* writer) { writer_ = writer; }

  PhaseResult Run(const PhaseSpec& spec);

  // Responses kept for the output check, in submission order.
  std::span<const SampleRecord> samples() const {
    return {samples_.data(), num_samples_};
  }
  // The span id of the running phase (parent of request and fetch spans).
  int64_t phase_span() const {
    return phase_span_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    int64_t due_ns = 0;
    int64_t sent_ns = 0;
    int64_t done_ns = 0;
    double queue_ms = 0.0;
    double total_ms = 0.0;
    uint64_t allocs_sent = 0;
    uint64_t allocs_done = 0;
    NodeId node = rtr::kInvalidNode;
    int32_t sample = -1;
    bool ok = false;
    bool cache_hit = false;
  };

  void OnDone(size_t slot, const rtr::serve::ServeResponse& response);
  // Submits stream_[cursor_++] into slot `slot`; false if refused.
  bool Submit(size_t slot, int64_t due_ns);
  void WaitForSlot(int cap);
  void Drain();
  void SleepUntil(int64_t t_ns);

  rtr::serve::QueryService* service_;
  const std::vector<NodeId>* stream_;
  Options options_;
  SpanLog* spans_;
  Writer* writer_ = nullptr;
  size_t cursor_ = 0;
  uint64_t seq_ = 0;  // requests submitted over the run, for sampling

  std::vector<Slot> slots_;
  std::vector<SampleRecord> samples_;  // sized once; filled up to num_samples_
  size_t num_samples_ = 0;
  bool probe_allocs_ = false;
  std::atomic<int> outstanding_{0};
  std::atomic<uint64_t> ok_count_{0};
  std::atomic<uint64_t> failed_count_{0};
  std::atomic<int64_t> phase_span_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
