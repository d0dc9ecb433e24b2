// Host and process plumbing for the benchmark: run conditions, CPU steal,
// peak RSS of child processes, spawning and stopping eved, and small
// loopback helpers (status probe, /metrics scrape).

#ifndef EVEBENCH_HOST_H_
#define EVEBENCH_HOST_H_

#include <sys/types.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/protocol.h"

namespace evebench {

// Monotonic clock in seconds (for durations only).
double NowSeconds();

// Cumulative jiffies from the first line of /proc/stat.
struct CpuTimes {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuTimes ReadCpuTimes();
// Share of CPU time stolen by the hypervisor between two readings.
double StealFraction(const CpuTimes& before, const CpuTimes& after);

// This process's user + system CPU seconds so far.
double SelfCpuSeconds();

struct Conditions {
  std::string commit;
  std::string build_type;
  unsigned nproc = 0;
  std::string cpu_model;
  std::string kernel;
  std::string work_fs;  // filesystem type of the run directory
};
Conditions ReadConditions(const std::string& commit,
                          const std::string& work_dir);

// Peak resident set (VmHWM) of a live process, in MB; 0 when unreadable.
double PeakRssMb(pid_t pid);

// A child process whose stdout/stderr go to `log_path`. The destructor
// stops it (SIGTERM, then SIGKILL after a grace period) and reaps it.
class ChildProcess {
 public:
  ChildProcess() = default;
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;
  ~ChildProcess() { Stop(); }

  bool Spawn(const std::vector<std::string>& argv,
             const std::string& log_path);
  // True while the process has not exited.
  bool Alive();
  // SIGTERM, wait up to `grace_seconds`, then SIGKILL; always reaps.
  void Stop(double grace_seconds = 10.0);
  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
};

// A free loopback TCP port (bound and released; racy but adequate for
// single-machine runs).
uint16_t ReservePort();

// Waits for eved's --port-file to appear and hold a port number.
std::optional<uint16_t> WaitForPortFile(const std::string& path,
                                        ChildProcess* process,
                                        double timeout_seconds);

// The kReplStatusReq probe every eved answers.
std::optional<eve::net::ReplStatus> ProbeReplStatus(uint16_t port,
                                                    double timeout_seconds);

// GET /metrics from a metrics port; empty on failure.
std::string ScrapeMetrics(uint16_t port);

// The value of `name` in a Prometheus-style text document; 0 if absent.
double MetricValue(const std::string& text, const std::string& name);

}  // namespace evebench

#endif  // EVEBENCH_HOST_H_
