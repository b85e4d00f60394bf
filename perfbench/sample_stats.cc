#include "sample_stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

// 1-based nearest rank of the q-quantile in a sample of n. The epsilon
// keeps q * n that lands on an integer (0.99 * 1000) from rounding up a
// rank because q is not exactly representable.
size_t NearestRank(size_t n, double q) {
  double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  size_t rank = r < 1.0 ? 1 : static_cast<size_t>(r);
  return std::min(rank, n);
}

}  // namespace

Quantile QuantileOf(std::vector<double> samples, double q) {
  Quantile out;
  out.count = samples.size();
  if (samples.empty()) return out;
  size_t rank = NearestRank(samples.size(), q);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  out.value = samples[rank - 1];
  out.beyond = samples.size() - rank;
  return out;
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

double HighestSupportedQuantile(size_t n, size_t min_beyond) {
  double best = 0.0;
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    if (n > 0 && n - NearestRank(n, q) >= min_beyond) best = q;
  }
  return best;
}

bool SelfTest(std::string* error) {
  auto fail = [error](const char* what, double got, double want) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s: got %.17g, want %.17g", what, got,
                  want);
    *error = buf;
    return false;
  };
  // 1..1000 shuffled: the nearest-rank p99 is 990 with exactly 10 beyond.
  std::vector<double> ramp;
  for (int i = 1000; i >= 1; --i) ramp.push_back(i);
  std::rotate(ramp.begin(), ramp.begin() + 377, ramp.end());
  Quantile p99 = QuantileOf(ramp, 0.99);
  if (p99.value != 990.0) return fail("p99 of 1..1000", p99.value, 990.0);
  if (p99.beyond != 10) return fail("beyond p99", p99.beyond, 10);
  if (p99.count != 1000) return fail("count", p99.count, 1000);
  Quantile p50 = QuantileOf(ramp, 0.5);
  if (p50.value != 500.0) return fail("p50 of 1..1000", p50.value, 500.0);
  // Odd sizes and the extremes.
  Quantile med = QuantileOf({5.0, 1.0, 3.0}, 0.5);
  if (med.value != 3.0) return fail("median of 3", med.value, 3.0);
  if (QuantileOf({7.0}, 0.99).value != 7.0) {
    return fail("p99 of one sample", QuantileOf({7.0}, 0.99).value, 7.0);
  }
  if (QuantileOf({2.0, 9.0}, 1.0).value != 9.0) {
    return fail("max", QuantileOf({2.0, 9.0}, 1.0).value, 9.0);
  }
  if (QuantileOf({}, 0.5).count != 0 || QuantileOf({}, 0.5).value != 0.0) {
    return fail("empty sample", QuantileOf({}, 0.5).value, 0.0);
  }
  // A heavy tail: 98 fast samples and two slow ones. p99 must land on the
  // first slow sample, not be averaged away.
  std::vector<double> tail(98, 1.0);
  tail.push_back(100.0);
  tail.push_back(200.0);
  if (QuantileOf(tail, 0.99).value != 100.0) {
    return fail("p99 of heavy tail", QuantileOf(tail, 0.99).value, 100.0);
  }
  if (Mean({1.0, 2.0, 6.0}) != 3.0) return fail("mean", Mean({1, 2, 6}), 3);
  // Tail selection: p99 needs >= 1000 samples, p99.9 >= 10000.
  const struct {
    size_t n;
    double want;
  } cases[] = {{0, 0.0},     {19, 0.0},    {20, 0.5},   {99, 0.5},
               {100, 0.9},   {999, 0.9},   {1000, 0.99}, {9999, 0.99},
               {10000, 0.999}};
  for (const auto& c : cases) {
    double got = HighestSupportedQuantile(c.n);
    if (got != c.want) return fail("supported quantile", got, c.want);
  }
  return true;
}

}  // namespace perfbench
