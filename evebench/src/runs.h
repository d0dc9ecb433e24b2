// The two kinds of run: the end-to-end run against real eved processes
// (metrics gated by BENCHMARK.json's end_to_end list) and the in-process
// traced run (the per_layer list).

#ifndef EVEBENCH_RUNS_H_
#define EVEBENCH_RUNS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "checks.h"
#include "inputs.h"

namespace evebench {

struct RunOptions {
  WorkloadSpec spec;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool smoke = false;
  std::string eved_path;  // the eved binary (end-to-end run only)
  std::string work_dir;   // this run's private directory, removed after
  std::string commit;     // reported with the run conditions
};

struct RunResult {
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

// Report lines go to stdout as the run proceeds (all prefixed "#"); the
// caller prints the result JSON last.
RunResult RunEndToEnd(const RunOptions& options, const Inputs& inputs);
RunResult RunTraced(const RunOptions& options, const Inputs& inputs);

}  // namespace evebench

#endif  // EVEBENCH_RUNS_H_
