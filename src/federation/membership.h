// Federation membership: the per-source state machine that turns an
// unreliable probe stream into crisp membership states. The paper assumes
// sources announce departures cleanly; real federations see sources that
// time out, flap and return garbage long before they truly leave, so a
// source moves through
//
//   HEALTHY --probe failure--> SUSPECT --threshold failures--> QUARANTINED
//      ^            |                          |
//      +--success---+------------(half-open probe succeeds)----+
//
//   any state --lease expiry--> DEPARTED   (the only transition that fires
//                                           the DepartSource CVS cascade)
//
// and only DEPARTED triggers rewriting churn: a transient outage that heals
// within the lease never touches a view. All time is a logical tick count —
// no wall clocks anywhere — so every schedule is replayable bit-for-bit.
//
// This header is dependency-light (common/ only): the structs here are
// stored inside EveSystem, journaled as kSourceMembership records, and
// checkpointed in the FEDERATION section (see eve/journal.h). The probe
// scheduler driving the transitions lives in federation/monitor.h.

#ifndef EVE_FEDERATION_MEMBERSHIP_H_
#define EVE_FEDERATION_MEMBERSHIP_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"

namespace eve {
namespace federation {

enum class SourceState { kHealthy, kSuspect, kQuarantined, kDeparted };

// Per-source circuit breaker. kClosed: probes flow on the normal/backoff
// schedule. kOpen: tripped after `breaker_threshold` consecutive failures;
// no probes until the cooldown elapses. kHalfOpen: cooldown elapsed, one
// trial probe in flight — success closes the breaker, failure re-opens it.
enum class BreakerState { kClosed, kOpen, kHalfOpen };

std::string_view SourceStateToString(SourceState state);
std::string_view BreakerStateToString(BreakerState state);
Result<SourceState> ParseSourceState(std::string_view word);
Result<BreakerState> ParseBreakerState(std::string_view word);

// Per-source knobs (all in logical ticks). Defaults keep the invariant
// lease_ticks >> backoff_cap_ticks + breaker_open_ticks, so a single
// healed outage can never expire the lease between two probes.
struct SourceConfig {
  uint64_t lease_ticks = 120;          // departure deadline after last success
  uint64_t probe_interval_ticks = 10;  // healthy probing cadence
  uint64_t backoff_base_ticks = 2;     // first retry delay after a failure
  uint64_t backoff_cap_ticks = 32;     // exponential backoff ceiling
  uint64_t jitter_ticks = 3;           // deterministic jitter width (0 = none)
  uint32_t breaker_threshold = 3;      // consecutive failures that trip
  uint64_t breaker_open_ticks = 24;    // cooldown before the half-open probe
  uint64_t slow_threshold_ticks = 4;   // slower replies count as failures

  bool operator==(const SourceConfig&) const = default;
};

// The durable per-source record. Absolute tick values, so a "set" journal
// record replays idempotently to the exact same state.
struct SourceMembership {
  SourceState state = SourceState::kHealthy;
  BreakerState breaker = BreakerState::kClosed;
  uint32_t consecutive_failures = 0;
  uint64_t lease_expires = 0;  // tick at which the lease lapses
  uint64_t next_probe = 0;     // next scheduled probe tick
  uint64_t probe_attempt = 0;  // failures since last success (backoff exp.)
  SourceConfig config;

  bool operator==(const SourceMembership&) const = default;

  // SUSPECT or QUARANTINED: constraints stay usable from the last-known
  // snapshot, but rewritings that depend on this source are provisional.
  bool Degraded() const {
    return state == SourceState::kSuspect ||
           state == SourceState::kQuarantined;
  }
};

// A freshly (re-)admitted source: healthy, lease and first probe scheduled
// from `now`.
SourceMembership MakeHealthy(const SourceConfig& config, uint64_t now);

// Deterministic jitter in [0, width): a pure function of (source, attempt),
// so two runs of the same schedule probe at identical ticks while distinct
// sources never thunder in lockstep. FNV-1a; width 0 yields 0.
uint64_t DeterministicJitter(std::string_view source, uint64_t attempt,
                             uint64_t width);

// Capped exponential backoff + jitter for the `attempt`-th consecutive
// failure (1-based): min(cap, base * 2^(attempt-1)) + jitter, at least 1.
uint64_t BackoffDelay(const SourceConfig& config, std::string_view source,
                      uint64_t attempt);

// Pure transition functions (the monitor applies them, EveSystem journals
// the result). Success renews the lease and fully heals: breaker closed,
// counters reset, next probe on the healthy cadence. Failure escalates:
// below the breaker threshold the source turns SUSPECT and retries on the
// backoff schedule; at the threshold (or on a failed half-open probe) the
// breaker opens, the source is QUARANTINED, and the next probe waits out
// the cooldown. Neither renews the lease: only real replies do.
SourceMembership OnProbeSuccess(const SourceMembership& m,
                                std::string_view source, uint64_t now);
SourceMembership OnProbeFailure(const SourceMembership& m,
                                std::string_view source, uint64_t now);

bool LeaseExpired(const SourceMembership& m, uint64_t now);

// Single-line lossless text encoding for journal records, checkpoints and
// tests. ParseMembership inverts SerializeMembership exactly. Source names
// are MISD identifiers, so they never contain whitespace.
std::string SerializeMembership(const std::string& source,
                                const SourceMembership& m);

struct NamedMembership {
  std::string source;
  SourceMembership membership;
};

Result<NamedMembership> ParseMembership(std::string_view line);

}  // namespace federation
}  // namespace eve

#endif  // EVE_FEDERATION_MEMBERSHIP_H_
