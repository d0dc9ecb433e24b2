// Response checks shared by the end-to-end and the traced run, and the
// result line every run prints last.

#ifndef EVEBENCH_CHECKS_H_
#define EVEBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.h"

namespace evebench {

// A change report (ChangeReport::ToString, possibly behind a dry-run
// header) must affect exactly the predicted views and list every other
// view of the pool as unaffected. An affected view must be rewritten, or
// either rewritten or disabled when `allow_disabled`.
bool CheckChangeReport(const Step& step, const std::string& output,
                       size_t pool_size, bool allow_disabled,
                       std::string* why);

// After a rename, SHOW VIEW must name the new attribute and not the old.
bool CheckRenamedView(const Step& step, const std::string& output,
                      std::string* why);

// The output of SYNC DRYRUN: a dry-run header, then the change report.
bool CheckDryRunHeader(const std::string& output, std::string* why);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

// A fixed-width "name value unit  note" report line.
std::string MetricLine(const Metric& metric, const std::string& note = "");

}  // namespace evebench

#endif  // EVEBENCH_CHECKS_H_
