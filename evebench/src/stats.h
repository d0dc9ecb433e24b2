// Sample statistics for the benchmark's gated metrics.
//
// Percentiles use the nearest-rank rule: the q-th percentile of n sorted
// samples is the sample at 1-based rank ceil(q/100 * n). A percentile is
// only gated when at least kMinSamplesBeyond samples lie strictly above its
// rank, so one outlier can never be the gated value.

#ifndef EVEBENCH_STATS_H_
#define EVEBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace evebench {

inline constexpr size_t kMinSamplesBeyond = 10;

// 1-based nearest rank of the q-th percentile (0 < q <= 100) of n samples;
// 0 when n == 0.
inline size_t PercentileRank(size_t n, double q) {
  if (n == 0) return 0;
  // The epsilon keeps exact products (90% of 100 = 90) from rounding up
  // through floating-point error.
  const double exact = q / 100.0 * static_cast<double>(n);
  size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

// Samples strictly beyond the q-th percentile's rank.
inline size_t SamplesBeyond(size_t n, double q) {
  return n - PercentileRank(n, q);
}

// True when the q-th percentile of n samples may be gated.
inline bool PercentileGateable(size_t n, double q) {
  return n > 0 && SamplesBeyond(n, q) >= kMinSamplesBeyond;
}

// The q-th percentile (nearest rank) of unsorted `samples`; 0 when empty.
inline double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const size_t rank = PercentileRank(samples.size(), q);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

inline double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double sample : samples) sum += sample;
  return sum / static_cast<double>(samples.size());
}

// The middle value (mean of the two middle values for even n); 0 when
// empty. Used for medians of repeated whole measurements, not for gated
// latency percentiles.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

// The mean of the middle half: drops the lowest and the highest quarter
// of the values (at least one of each when n >= 3; the plain mean below
// that). Combines per-process measurements: a few outlier processes
// cannot move it, and unlike a median it does not jump between modes when
// processes split between a fast and a slow group.
inline double TrimmedMean(std::vector<double> values) {
  if (values.size() < 3) return Mean(values);
  std::sort(values.begin(), values.end());
  const size_t drop = std::max<size_t>(1, values.size() / 4);
  return Mean(std::vector<double>(values.begin() + drop, values.end() - drop));
}

// Work completed per second by a closed loop that runs the sequence one
// operation at a time: 1 / mean latency. Latencies in milliseconds.
inline double OpsPerSecond(const std::vector<double>& latencies_ms) {
  const double mean_ms = Mean(latencies_ms);
  return mean_ms > 0.0 ? 1000.0 / mean_ms : 0.0;
}

}  // namespace evebench

#endif  // EVEBENCH_STATS_H_
