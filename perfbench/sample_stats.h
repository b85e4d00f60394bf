#ifndef PERFBENCH_SAMPLE_STATS_H_
#define PERFBENCH_SAMPLE_STATS_H_

// Order statistics over raw per-request samples. Every percentile the
// benchmark reports is computed here, from the full sample, never from a
// bucketed histogram (util::LatencyHistogram buckets are 25% wide, coarser
// than any regression bound the benchmark sets).

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

// A q-quantile together with the sample it came from: `count` samples in
// total, `beyond` of them strictly above the quantile's rank.
struct Quantile {
  double value = 0.0;
  size_t count = 0;
  size_t beyond = 0;
};

// Nearest-rank q-quantile (q in (0, 1]): the ceil(q * n)-th smallest
// sample. An empty sample yields {0, 0, 0}.
Quantile QuantileOf(std::vector<double> samples, double q);

double Mean(const std::vector<double>& samples);

// The highest of p50, p90, p99 and p99.9 that leaves at least `min_beyond`
// samples beyond its rank in a sample of size n; 0 when even the median
// does not.
double HighestSupportedQuantile(size_t n, size_t min_beyond = 10);

// Checks the functions above against hand-computed cases. Returns false
// and describes the first failure in *error.
bool SelfTest(std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_SAMPLE_STATS_H_
