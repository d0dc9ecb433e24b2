// FederationMonitor: the probe scheduler that turns transport replies into
// membership transitions. Each logical tick it (1) departs sources whose
// lease lapsed (the only path into the DepartSource CVS cascade),
// (2) half-opens tripped breakers whose cooldown elapsed, (3) probes the
// due sources, and (4) folds the replies through the pure transition
// functions in membership.h, journaling every changed row via
// EveSystem::SetSourceMembership. Probing and evaluation both run on the
// calling thread in source-name order.

#ifndef EVE_FEDERATION_MONITOR_H_
#define EVE_FEDERATION_MONITOR_H_

#include <cstdint>
#include <string>

#include "common/cancellation.h"
#include "common/result.h"
#include "eve/eve_system.h"
#include "federation/membership.h"
#include "federation/transport.h"

namespace eve {
namespace federation {

struct MonitorStats {
  uint64_t probes = 0;
  uint64_t successes = 0;
  uint64_t failures = 0;
  // Membership rows whose SourceState changed (HEALTHY→SUSPECT, ...).
  uint64_t state_transitions = 0;
  // Lease expiries that ran the departure cascade.
  uint64_t departures = 0;
  // Due probes skipped because the deadline token refused them. Skipped
  // probes stay due and are retried on a later tick.
  uint64_t probes_skipped = 0;

  bool operator==(const MonitorStats&) const = default;
};

class FederationMonitor {
 public:
  // Neither pointer is owned; both must outlive the monitor.
  FederationMonitor(EveSystem* system, SourceTransport* transport,
                    SourceConfig default_config = {});

  // Admits every catalog source not already tracked, healthy as of now().
  // Each admission is journaled like any other membership write.
  Status TrackSources();
  Status TrackSource(const std::string& source);

  // Runs the scheduler for ticks now()+1 .. now. No-op when now <= now().
  Status AdvanceTo(uint64_t now);

  // One tick of the scheduler (see class comment for the four stages).
  Status Step(uint64_t tick);

  uint64_t now() const { return now_; }
  // Re-aligns the logical clock, e.g. after recovery to the journaled
  // schedule's current tick. Does not probe.
  void SetNow(uint64_t now) { now_ = now; }

  // Budgets the probes: each due probe costs one unit, spent in
  // source-name order before any probe is sent, so the skip set is
  // deterministic (a wall-clock deadline on the token is best effort, like
  // everywhere else). A default token removes the limit.
  void SetDeadlineToken(DeadlineToken token) { token_ = std::move(token); }
  const DeadlineToken& deadline_token() const { return token_; }

  const MonitorStats& stats() const { return stats_; }
  const SourceConfig& default_config() const { return default_config_; }

 private:
  EveSystem* system_;         // non-owning
  SourceTransport* transport_;  // non-owning
  SourceConfig default_config_;
  uint64_t now_ = 0;
  DeadlineToken token_;
  MonitorStats stats_;
};

}  // namespace federation
}  // namespace eve

#endif  // EVE_FEDERATION_MONITOR_H_
