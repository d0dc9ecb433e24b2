// evebench: the end-to-end and traced benchmark program (see ../README.md).
//
//   evebench --workload <name> --seed <n> --seconds <s> --trace 0|1
//            --eved <path> --work-dir <dir> [--commit <id>] [--smoke]
//   evebench --self-test
//
// --trace 0 runs the workload against real eved processes and prints the
// end-to-end metrics; --trace 1 runs the same seeded sequence in process
// with spans around each layer's public functions and prints the
// per-layer metrics. The last line of stdout is always the result JSON.

#include <filesystem>
#include <iostream>
#include <string>

#include "host.h"
#include "inputs.h"
#include "runs.h"
#include "stats.h"

namespace evebench {

int RunSelfTest();  // stats_test.cc

namespace {

int Usage() {
  std::cerr << "usage: evebench --workload <name> --seed <n> --seconds <s> "
               "--trace 0|1 --eved <path> --work-dir <dir> [--commit <id>] "
               "[--smoke]\n       evebench --self-test\n";
  return 2;
}

int Main(int argc, char** argv) {
  RunOptions options;
  std::string workload;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--self-test") return RunSelfTest();
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::stoull(argv[++i]);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::stod(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      trace = std::stoi(argv[++i]);
    } else if (arg == "--eved" && has_value) {
      options.eved_path = argv[++i];
    } else if (arg == "--work-dir" && has_value) {
      options.work_dir = argv[++i];
    } else if (arg == "--commit" && has_value) {
      options.commit = argv[++i];
    } else {
      return Usage();
    }
  }
  if (workload.empty() || (trace != 0 && trace != 1) ||
      options.work_dir.empty() || (trace == 0 && options.eved_path.empty())) {
    return Usage();
  }
  if (!FindWorkload(workload, &options.spec)) {
    std::cerr << "error: unknown workload " << workload << "\n";
    return 2;
  }
  const std::string build_type = EVEBENCH_BUILD_TYPE;
  if (build_type != "Release" && build_type != "RelWithDebInfo") {
    std::cerr << "error: refusing to measure a " << build_type
              << " build; configure with -DCMAKE_BUILD_TYPE=RelWithDebInfo\n";
    return 2;
  }
  if (options.smoke) options.spec = SmokeSpec(options.spec);
  const size_t steps =
      options.smoke ? 2 * options.spec.change_relations.size()
                    : StepCount(options.spec, options.seconds);

  std::filesystem::create_directories(options.work_dir);
  options.work_dir = std::filesystem::absolute(options.work_dir).string();
  eve::Result<Inputs> inputs = MakeInputs(options.spec, options.seed, steps);
  if (!inputs.ok()) {
    std::cerr << "error: inputs: " << inputs.status() << "\n";
    return 1;
  }

  const Conditions c = ReadConditions(options.commit, options.work_dir);
  std::cout << "# evebench " << workload << (trace ? " (traced)" : "")
            << (options.smoke ? " (smoke)" : "") << "\n"
            << "# commit " << c.commit << ", build " << c.build_type
            << ", nproc " << c.nproc << ", cpu " << c.cpu_model
            << ", kernel " << c.kernel << "\n"
            << "# seed " << options.seed << ", sequence of " << steps << " steps ("
            << steps << " changes + " << steps << " reads), "
            << inputs.value().view_names.size() << " views, "
            << inputs.value().misd_statements.size() << " MISD statements\n"
            << "# WAL fsynced per record, under " << options.work_dir << " ("
            << c.work_fs << ")\n";

  const RunResult result = trace == 1
                               ? RunTraced(options, inputs.value())
                               : RunEndToEnd(options, inputs.value());
  std::cout << ResultJson(result.correct, result.attempted, result.failed,
                          result.metrics)
            << std::endl;
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace evebench

int main(int argc, char** argv) { return evebench::Main(argc, argv); }
