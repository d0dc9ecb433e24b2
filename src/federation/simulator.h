// FederationSimulator: the end-to-end fault-schedule harness. It drives one
// EveSystem through a scripted (or seeded-random) schedule of capability
// changes and transport faults, advancing the federation monitor tick by
// tick, then checks the convergence property the federation layer promises:
// every view ends correctly rewritten (its definition still binds against
// the final MKB), explicitly disabled, or provisional with every underlying
// lease still live — never silently wrong. Everything is keyed off the
// logical clock and a caller-supplied seed, so any run replays bit-for-bit.

#ifndef EVE_FEDERATION_SIMULATOR_H_
#define EVE_FEDERATION_SIMULATOR_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "eve/eve_system.h"
#include "federation/membership.h"
#include "federation/monitor.h"
#include "federation/transport.h"
#include "mkb/capability_change.h"

namespace eve {
namespace federation {

struct SimOptions {
  uint64_t ticks = 400;
  uint64_t seed = 1;
  // Per-tick, per-source probability that a fault window opens.
  double fault_rate = 0.05;
  // Caps randomized windows so every faulted source provably recovers
  // before its lease expires (and before the run ends): transient outages
  // then never cause departures, and the final report log must converge to
  // the fault-free run's, byte for byte.
  bool heal_within_lease = true;
  SourceConfig config;
};

struct SimResult {
  MonitorStats stats;
  uint64_t fault_windows = 0;
  uint64_t changes_applied = 0;
  // Scheduled changes whose application failed — e.g. the relation was
  // already dropped by a departure cascade racing the schedule.
  uint64_t changes_rejected = 0;
  // Rewriting churn over the run's change reports.
  uint64_t views_rewritten = 0;
  uint64_t views_disabled = 0;
  // Outcomes that carried provisional marks when their report was appended.
  // Sampled at append time: a later heal erases the marks from the log in
  // place, so a healed run still records that it went provisional.
  uint64_t provisional_outcomes = 0;
  // Convergence-property violations; empty means the run converged.
  std::vector<std::string> violations;
  // Final durable state, for byte-identity comparisons across schedules.
  std::string final_mkb;        // SaveMkb
  std::string final_views;      // SaveViews (includes provisional marks)
  std::string final_membership; // SaveFederation (includes schedule fields)
  std::vector<std::string> report_log;  // ChangeReport::ToString, run only

  // The state two schedules must agree on when both healed within lease:
  // MKB + view pool + report log + per-source health. Membership
  // scheduling fields (next_probe, lease_expires) legitimately differ
  // between schedules and are excluded.
  std::string Fingerprint() const;
};

class FederationSimulator {
 public:
  // `system` is not owned and should carry the MKB and views under test.
  explicit FederationSimulator(EveSystem* system, SimOptions options = {});

  // Scripted events. Changes at one tick apply in insertion order, before
  // that tick's probes run.
  void ScheduleChange(uint64_t tick, CapabilityChange change);
  void ScheduleFault(const std::string& source,
                     SimulatedTransport::FaultWindow window);

  // Seeds std::mt19937_64(options.seed) and scatters fault windows of
  // random kind over every catalog source at options.fault_rate. With
  // heal_within_lease, window lengths and end ticks are capped so every
  // source heals before its lease (and the run) ends.
  void RandomizeFaults();

  SimulatedTransport& transport() { return transport_; }

  // Tracks all sources, runs the schedule, checks convergence.
  Result<SimResult> Run();

 private:
  void CheckConvergence(uint64_t now, std::vector<std::string>* violations);

  EveSystem* system_;  // non-owning
  SimOptions options_;
  SimulatedTransport transport_;
  std::map<uint64_t, std::vector<CapabilityChange>> scheduled_changes_;
  uint64_t fault_windows_ = 0;
};

}  // namespace federation
}  // namespace eve

#endif  // EVE_FEDERATION_SIMULATOR_H_
