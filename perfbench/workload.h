#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

// One benchmark run of one workload: set-up, the timed phases, the output
// check, and the metrics. Workload parameters come from
// perfbench/workloads.json through run.py.

#include <cstddef>
#include <cstdint>
#include <string>

namespace perfbench {

// Fixed for every workload: the service's pool size (nproc - 1 on the
// 4-vCPU host the rates were set on), the generator's in-flight cap
// (nproc), the TCP workload's shard count, the dataset scale (BibNet
// papers or QLog concepts), set-ups per run, the quantile reported as
// p90_ms_lo / p90_ms_hi, the live workload's phrase pool, popularity skew
// and clicks per delta, the untimed warm-up before each phase, and how many
// checked responses are graded for NDCG.
inline constexpr int kWorkers = 3;
inline constexpr int kOutstanding = 4;
inline constexpr int kNumGps = 3;
inline constexpr int kScale = 40000;
inline constexpr int kSetupReps = 11;
inline constexpr double kTailQuantile = 0.9;
inline constexpr int kPool = 4096;
inline constexpr double kZipf = 1.1;
inline constexpr int kDeltaClicks = 200;
inline constexpr double kWarmupSeconds = 0.5;
inline constexpr size_t kNdcgQueries = 8;

// What differs per workload (perfbench/workloads.json), plus the run's
// arguments.
struct Config {
  std::string workload;
  std::string dataset;  // "bibnet" | "qlog"
  std::string backend;  // "local" | "tcp"
  std::string loader;   // "bulk" | "mmap"
  uint64_t seed = 1;          // request order, Zipf draws, delta clicks
  uint64_t dataset_seed = 1;  // graph and query population
  double seconds = 10.0;
  bool trace = false;
  std::string graph_path;  // snapshot written by `rtr_perfbench gen`
  std::string spans_path;    // traced pass: span dump
  std::string samples_path;  // raw per-request samples of every phase
  // Offered load, requests per second.
  double lo_qps = 0.0;
  double hi_qps = 0.0;
  // Live workload: one click delta per period; 0: no writer.
  double delta_period_ms = 0.0;
};

// Runs the workload and prints the result; returns the exit code.
int RunWorkload(const Config& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
