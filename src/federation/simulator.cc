#include "federation/simulator.h"

#include <algorithm>
#include <random>
#include <sstream>

#include "common/str_util.h"
#include "esql/binder.h"
#include "eve/journal.h"
#include "eve/view_pool_io.h"
#include "mkb/serializer.h"

namespace eve {
namespace federation {

std::string SimResult::Fingerprint() const {
  std::ostringstream os;
  os << final_mkb << "\n" << final_views << "\n";
  for (const std::string& report : report_log) os << report;
  for (const std::string& line : Split(final_membership, '\n')) {
    // "<source> <state> ..." — keep only the health part; scheduling
    // fields phase-shift between schedules.
    const std::vector<std::string> tokens = Split(Trim(line), ' ');
    if (tokens.size() >= 2) os << tokens[0] << " " << tokens[1] << "\n";
  }
  return os.str();
}

FederationSimulator::FederationSimulator(EveSystem* system, SimOptions options)
    : system_(system), options_(options) {}

void FederationSimulator::ScheduleChange(uint64_t tick,
                                         CapabilityChange change) {
  scheduled_changes_[tick].push_back(std::move(change));
}

void FederationSimulator::ScheduleFault(
    const std::string& source, SimulatedTransport::FaultWindow window) {
  transport_.AddFault(source, window);
  ++fault_windows_;
}

void FederationSimulator::RandomizeFaults() {
  std::mt19937_64 rng(options_.seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::uniform_int_distribution<int> kind_die(0, 3);
  const SourceConfig& cfg = options_.config;
  // Worst-case ticks from window end to the next (succeeding) probe: the
  // larger of a capped backoff retry and a breaker cooldown, plus jitter.
  const uint64_t recovery_margin =
      std::max(cfg.backoff_cap_ticks, cfg.breaker_open_ticks) +
      cfg.jitter_ticks + 1;
  // Length cap so the lease (renewed at most probe_interval before the
  // window opened) outlives the window plus the recovery probe.
  const uint64_t heal_len_cap =
      cfg.lease_ticks > cfg.probe_interval_ticks + recovery_margin + 1
          ? cfg.lease_ticks - cfg.probe_interval_ticks - recovery_margin - 1
          : 1;
  for (const std::string& source : system_->mkb().catalog().SourceNames()) {
    uint64_t tick = 1;
    while (tick + 1 < options_.ticks) {
      if (coin(rng) >= options_.fault_rate) {
        ++tick;
        continue;
      }
      uint64_t max_len = options_.ticks - tick;
      if (options_.heal_within_lease) {
        max_len = std::min(max_len, heal_len_cap);
        // Leave room at the end of the run for the recovery probe, so a
        // healed schedule finishes all-healthy.
        if (tick + max_len + recovery_margin >= options_.ticks) {
          if (options_.ticks < tick + recovery_margin + 2) break;
          max_len = options_.ticks - tick - recovery_margin - 1;
        }
      }
      if (max_len == 0) break;
      std::uniform_int_distribution<uint64_t> len_die(1, max_len);
      const uint64_t length = len_die(rng);
      SimulatedTransport::FaultWindow window;
      window.from = tick;
      window.to = tick + length;
      window.kind = static_cast<SimulatedTransport::FaultKind>(kind_die(rng));
      ScheduleFault(source, window);
      tick += length + 1;
      // In heal mode consecutive windows need a gap wide enough for the
      // recovery probe to land (and succeed, renewing the lease) and the
      // healthy cadence to resume — a 1-tick gap lets a backoff or breaker
      // delay jump straight into the next window, starving the lease
      // across what the caps treated as independent outages.
      if (options_.heal_within_lease) {
        tick += recovery_margin + cfg.probe_interval_ticks;
      }
    }
  }
}

void FederationSimulator::CheckConvergence(
    uint64_t now, std::vector<std::string>* violations) {
  const auto& membership = system_->source_membership();
  for (const std::string& name : system_->ViewNames()) {
    const RegisteredView* view = *system_->GetView(name);
    if (view->state == ViewState::kDisabled) continue;  // explicitly out
    if (view->provisional_sources.empty()) {
      // Claims to be correctly rewritten: the definition must still bind
      // against the final MKB.
      const Result<ViewDefinition> bound =
          BindView(view->definition.ToParsedView(), system_->mkb().catalog());
      if (!bound.ok()) {
        violations->push_back("view " + name +
                              " is active and non-provisional but does not "
                              "bind: " +
                              bound.status().message());
      }
      continue;
    }
    // Provisional: every underlying source must still be degraded (not
    // healed, not departed) with a live lease — otherwise the mark should
    // have been cleared or the view synchronized.
    for (const std::string& source : view->provisional_sources) {
      const auto it = membership.find(source);
      if (it == membership.end()) {
        violations->push_back("view " + name +
                              " is provisional on untracked source " + source);
        continue;
      }
      if (!it->second.Degraded()) {
        violations->push_back(
            "view " + name + " is provisional on source " + source +
            " in state " + std::string(SourceStateToString(it->second.state)));
      } else if (it->second.lease_expires <= now) {
        violations->push_back("view " + name + " is provisional on source " +
                              source + " whose lease lapsed");
      }
    }
  }
}

Result<SimResult> FederationSimulator::Run() {
  SimResult result;
  FederationMonitor monitor(system_, &transport_, options_.config);
  EVE_RETURN_IF_ERROR(monitor.TrackSources());
  const size_t log_before = system_->change_log().size();
  // Provisional marks must be sampled when a report is appended: a later
  // heal erases them from the log in place (that is the whole point), so a
  // post-run scan of a healed schedule would always count zero.
  size_t scanned = log_before;
  const auto scan_new_reports = [&] {
    for (; scanned < system_->change_log().size(); ++scanned) {
      for (const ViewOutcome& outcome :
           system_->change_log()[scanned].outcomes) {
        if (!outcome.provisional_sources.empty()) {
          ++result.provisional_outcomes;
        }
      }
    }
  };
  for (uint64_t tick = 1; tick <= options_.ticks; ++tick) {
    const auto scheduled = scheduled_changes_.find(tick);
    if (scheduled != scheduled_changes_.end()) {
      for (const CapabilityChange& change : scheduled->second) {
        // A schedule can race a departure cascade (the relation is already
        // gone); that rejection is part of federation life, not a harness
        // failure.
        if (system_->ApplyChange(change).ok()) {
          ++result.changes_applied;
        } else {
          ++result.changes_rejected;
        }
      }
      scan_new_reports();
    }
    EVE_RETURN_IF_ERROR(monitor.AdvanceTo(tick));
    scan_new_reports();  // departure cascades append reports too
  }
  result.stats = monitor.stats();
  result.fault_windows = fault_windows_;
  for (size_t i = log_before; i < system_->change_log().size(); ++i) {
    const ChangeReport& report = system_->change_log()[i];
    result.views_rewritten += report.CountOutcome(ViewOutcomeKind::kRewritten);
    result.views_disabled += report.CountOutcome(ViewOutcomeKind::kDisabled);
    result.report_log.push_back(report.ToString());
  }
  result.final_mkb = SaveMkb(system_->mkb());
  result.final_views = SaveViews(*system_);
  result.final_membership = SaveFederation(*system_);
  CheckConvergence(options_.ticks, &result.violations);
  return result;
}

}  // namespace federation
}  // namespace eve
