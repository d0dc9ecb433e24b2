// Unit tests of the statistics behind the gated metrics (evebench
// --self-test): nearest-rank percentile selection, the "at least ten
// samples beyond" rule, medians, and throughput as 1 / mean latency.

#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "stats.h"

namespace evebench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> OneTo(size_t n) {
  std::vector<double> out;
  for (size_t i = n; i >= 1; --i) out.push_back(static_cast<double>(i));
  return out;  // descending, so selection must not assume sorted input
}

}  // namespace

int RunSelfTest() {
  // Nearest rank: ceil(q/100 * n), clamped to [1, n].
  Expect(PercentileRank(100, 50) == 50, "rank p50 of 100");
  Expect(PercentileRank(100, 90) == 90, "rank p90 of 100 is exact");
  Expect(PercentileRank(101, 90) == 91, "rank p90 of 101 rounds up");
  Expect(PercentileRank(1, 99) == 1, "rank of a single sample");
  Expect(PercentileRank(10, 1) == 1, "rank never below 1");
  Expect(PercentileRank(0, 50) == 0, "rank of no samples");

  Expect(Near(Percentile(OneTo(100), 50), 50.0), "p50 of 1..100");
  Expect(Near(Percentile(OneTo(100), 90), 90.0), "p90 of 1..100");
  Expect(Near(Percentile(OneTo(100), 99), 99.0), "p99 of 1..100");
  Expect(Near(Percentile(OneTo(7), 50), 4.0), "p50 of 1..7");
  Expect(Near(Percentile({}, 50), 0.0), "percentile of nothing");

  // Ten samples beyond: p90 needs n >= 100, p99 needs n >= 1000.
  Expect(SamplesBeyond(100, 90) == 10, "100 samples leave 10 beyond p90");
  Expect(PercentileGateable(100, 90), "p90 of 100 is gateable");
  Expect(!PercentileGateable(99, 90), "p90 of 99 is not gateable");
  Expect(!PercentileGateable(999, 99), "p99 of 999 is not gateable");
  Expect(PercentileGateable(1000, 99), "p99 of 1000 is gateable");
  Expect(PercentileGateable(20, 50), "p50 of 20 is gateable");
  Expect(!PercentileGateable(0, 50), "nothing is not gateable");

  Expect(Near(Median({3, 1, 2}), 2.0), "median of odd count");
  Expect(Near(Median({4, 1, 3, 2}), 2.5), "median of even count");

  Expect(Near(TrimmedMean({1, 2, 3, 4, 100}), 3.0), "trimmed mean drops both ends");
  Expect(Near(TrimmedMean({4.4, 4.5, 6.3, 6.3, 6.4}), (4.5 + 6.3 + 6.3) / 3),
         "trimmed mean of two modes lies between them");
  Expect(Near(TrimmedMean({2, 4}), 3.0), "two values: plain mean");
  Expect(Near(TrimmedMean({9, 1, 5, 5, 5, 5, 100, 0}), 5.0),
         "eight values: the quarter at each end is dropped");

  // changes_per_s = 1 / mean latency, latencies in ms.
  Expect(Near(OpsPerSecond({10, 10, 10}), 100.0), "1 / 10 ms = 100/s");
  Expect(Near(OpsPerSecond({5, 15}), 100.0), "uses the mean, not p50");
  Expect(Near(OpsPerSecond({1, 1, 1, 97}), 1000.0 / 25.0),
         "one slow op lowers throughput through the mean");
  Expect(Near(OpsPerSecond({}), 0.0), "no ops, no throughput");

  std::cout << (failures == 0 ? "stats self-test passed\n"
                              : "stats self-test FAILED\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace evebench
