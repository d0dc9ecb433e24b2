#include "federation/monitor.h"

#include <vector>

namespace eve {
namespace federation {

FederationMonitor::FederationMonitor(EveSystem* system,
                                     SourceTransport* transport,
                                     SourceConfig default_config)
    : system_(system),
      transport_(transport),
      default_config_(default_config) {}

Status FederationMonitor::TrackSources() {
  for (const std::string& source : system_->mkb().catalog().SourceNames()) {
    EVE_RETURN_IF_ERROR(TrackSource(source));
  }
  return Status::OK();
}

Status FederationMonitor::TrackSource(const std::string& source) {
  if (system_->source_membership().count(source) > 0) return Status::OK();
  return system_->SetSourceMembership(source,
                                      MakeHealthy(default_config_, now_));
}

Status FederationMonitor::AdvanceTo(uint64_t now) {
  while (now_ < now) {
    EVE_RETURN_IF_ERROR(Step(now_ + 1));
    ++now_;
  }
  return Status::OK();
}

Status FederationMonitor::Step(uint64_t tick) {
  // Stage 1: lease expiries. Departure wins over any probe at the same
  // tick — a reply arriving at the expiry instant is already too late.
  // Collect names first: DepartSource mutates the membership table.
  std::vector<std::string> expired;
  for (const auto& [source, membership] : system_->source_membership()) {
    if (LeaseExpired(membership, tick)) expired.push_back(source);
  }
  for (const std::string& source : expired) {
    EVE_RETURN_IF_ERROR(system_->DepartSource(source).status());
    ++stats_.departures;
  }

  // Stage 2: half-open tripped breakers whose cooldown elapsed, journaled
  // BEFORE the trial probe so a crash during the probe recovers to a row
  // that says the trial was already underway.
  std::vector<std::string> due;
  for (const auto& [source, membership] : system_->source_membership()) {
    if (membership.state == SourceState::kDeparted) continue;
    if (tick < membership.next_probe) continue;
    if (membership.breaker == BreakerState::kOpen) {
      SourceMembership half_open = membership;
      half_open.breaker = BreakerState::kHalfOpen;
      EVE_RETURN_IF_ERROR(system_->SetSourceMembership(source, half_open));
    }
    due.push_back(source);  // map iteration: name-sorted
  }

  // Deadline gate: spend one unit per due probe, in name order, before any
  // probe is sent. A skipped probe's row is untouched; it stays due and
  // retries next tick.
  if (token_.valid()) {
    std::vector<std::string> admitted;
    admitted.reserve(due.size());
    for (std::string& source : due) {
      if (token_.Spend(1)) {
        admitted.push_back(std::move(source));
      } else {
        ++stats_.probes_skipped;
      }
    }
    due = std::move(admitted);
  }

  // Stage 3: probe every due source before any reply is folded, so a
  // SimulatedCrash in the transport stops the tick before any reply is
  // journaled.
  std::vector<Result<ProbeReply>> replies;
  replies.reserve(due.size());
  for (const std::string& source : due) {
    replies.push_back(transport_->Probe(source, tick));
  }

  // Stage 4: fold replies through the transition functions, sequentially
  // in source-name order.
  for (size_t i = 0; i < due.size(); ++i) {
    const std::string& source = due[i];
    const SourceMembership current = system_->source_membership().at(source);
    const Result<ProbeReply>& reply = replies[i];
    ++stats_.probes;
    bool healthy_reply = reply.ok();
    if (healthy_reply) {
      healthy_reply =
          reply->digest == ExpectedDigest(source) &&
          reply->latency_ticks <= current.config.slow_threshold_ticks;
    }
    const SourceMembership next =
        healthy_reply ? OnProbeSuccess(current, source, tick)
                      : OnProbeFailure(current, source, tick);
    if (healthy_reply) {
      ++stats_.successes;
    } else {
      ++stats_.failures;
    }
    if (next.state != current.state) ++stats_.state_transitions;
    EVE_RETURN_IF_ERROR(system_->SetSourceMembership(source, next));
  }
  return Status::OK();
}

}  // namespace federation
}  // namespace eve
