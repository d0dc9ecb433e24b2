// Seeded inputs for the three workloads: the MISD text, the view pool
// and the fixed op sequence, plus what each response must contain.
//
// The program under test only ever receives the generated text (a MISD
// file or DEFINE statements, a view-pool file, and statements); the
// predictions below are derived from the generated pool alone, never from
// the program's answers.

#ifndef EVEBENCH_INPUTS_H_
#define EVEBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "mkb/capability_change.h"
#include "workload/generator.h"

namespace evebench {

enum class WorkloadKind { kCommitChurn, kWhatifDeparture, kReplicatedCommit };

struct WorkloadSpec {
  std::string name;
  WorkloadKind kind = WorkloadKind::kCommitChurn;
  eve::ChainMkbSpec mkb;
  size_t num_views = 0;
  size_t max_span = 2;
  double zipf_s = 1.0;
  // false: the pool is eve::MakeViewPool's zipf sample. true: the pool has
  // exactly the zipf share of views per (anchor, span) and the seed only
  // names and orders them, so every seed asks for the same CVS work.
  bool stratified_pool = false;
  // The relations the change stream cycles over, one lap at a time in a
  // seeded order.
  std::vector<size_t> change_relations;
  // Fixed work: the sequence has round(seconds * steps_per_second) steps,
  // rounded up to whole laps. Never derived from measured speed.
  double steps_per_second = 0.0;
  // Fresh eved processes (or clusters) per end-to-end run; each is set up
  // and runs the whole sequence.
  size_t deployments = 3;
};

// The workload called `name`; false when there is none.
bool FindWorkload(const std::string& name, WorkloadSpec* spec);

// Shrinks a spec to smoke-test size (seconds, not minutes, end to end).
WorkloadSpec SmokeSpec(WorkloadSpec spec);

// One closed-loop step: a change statement, then a read of one view.
struct Step {
  eve::CapabilityChange change;
  std::string change_statement;  // what goes on the wire
  std::string relation;          // R<k>
  std::string old_attribute;     // renames: the name before the step
  std::string new_attribute;     // renames: the name after the step
  // Views the generator predicts the change affects (sorted).
  std::vector<std::string> affected;
  std::string read_view;
  std::string read_statement;
};

struct Inputs {
  std::string misd_text;                    // LOAD MISD file contents
  std::vector<std::string> misd_statements; // one MISD statement each
  std::string pool_text;                    // LOAD VIEWS file contents
  std::vector<std::string> view_names;      // sorted
  std::vector<std::string> view_texts;      // CREATE VIEW text, same order
  std::vector<Step> steps;
};

size_t StepCount(const WorkloadSpec& spec, double seconds);

// Builds every input of one run; the same (spec, seed, steps) always gives
// byte-identical inputs.
eve::Result<Inputs> MakeInputs(const WorkloadSpec& spec, uint64_t seed,
                               size_t steps);

}  // namespace evebench

#endif  // EVEBENCH_INPUTS_H_
