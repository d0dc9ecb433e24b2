// Federation layer: membership state machine, backoff/breaker/lease
// mechanics, monitor-driven degraded-mode synchronization, and the
// end-to-end convergence property — every view ends correctly rewritten,
// explicitly disabled, or provisional with a live lease, and a fault
// schedule that heals within every lease leaves reports byte-identical to
// the fault-free run.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "eve/eve_system.h"
#include "eve/journal.h"
#include "eve/view_pool_io.h"
#include "federation/membership.h"
#include "federation/monitor.h"
#include "federation/simulator.h"
#include "federation/transport.h"
#include "mkb/serializer.h"
#include "workload/travel_agency.h"

namespace eve {
namespace {

using federation::BreakerState;
using federation::FederationMonitor;
using federation::FederationSimulator;
using federation::MakeHealthy;
using federation::SimOptions;
using federation::SimResult;
using federation::SimulatedTransport;
using federation::SourceConfig;
using federation::SourceMembership;
using federation::SourceState;

Mkb MakeMkbWithPc() {
  Mkb mkb = MakeTravelAgencyMkb().MoveValue();
  EXPECT_TRUE(AddAccidentInsPc(&mkb).ok());
  return mkb;
}

class FederationTest : public ::testing::Test {
 protected:
  void SetUp() override { Failpoints::Instance().Reset(); }
  void TearDown() override { Failpoints::Instance().Reset(); }
};

// --- State machine and scheduling math -------------------------------------

TEST_F(FederationTest, BackoffDelayIsDeterministicMonotoneAndCapped) {
  SourceConfig config;
  config.jitter_ticks = 0;  // isolate the exponential part
  uint64_t previous = 0;
  for (uint64_t attempt = 1; attempt <= 12; ++attempt) {
    const uint64_t delay = federation::BackoffDelay(config, "IS4", attempt);
    EXPECT_EQ(delay, federation::BackoffDelay(config, "IS4", attempt));
    EXPECT_GE(delay, 1u);
    EXPECT_GE(delay, previous);
    EXPECT_LE(delay, config.backoff_cap_ticks);
    previous = delay;
  }
  EXPECT_EQ(federation::BackoffDelay(config, "IS4", 1),
            config.backoff_base_ticks);
  EXPECT_EQ(federation::BackoffDelay(config, "IS4", 12),
            config.backoff_cap_ticks);
}

TEST_F(FederationTest, JitterIsDeterministicBoundedAndSourceDependent) {
  EXPECT_EQ(federation::DeterministicJitter("IS1", 3, 0), 0u);
  bool spread = false;
  for (uint64_t attempt = 1; attempt <= 8; ++attempt) {
    const uint64_t a = federation::DeterministicJitter("IS1", attempt, 7);
    const uint64_t b = federation::DeterministicJitter("IS2", attempt, 7);
    EXPECT_LT(a, 7u);
    EXPECT_LT(b, 7u);
    EXPECT_EQ(a, federation::DeterministicJitter("IS1", attempt, 7));
    if (a != b) spread = true;
  }
  EXPECT_TRUE(spread) << "distinct sources should not thunder in lockstep";
}

TEST_F(FederationTest, FailuresEscalateThroughSuspectToQuarantine) {
  const SourceConfig config;  // threshold 3
  SourceMembership m = MakeHealthy(config, 0);
  EXPECT_EQ(m.state, SourceState::kHealthy);
  EXPECT_EQ(m.next_probe, config.probe_interval_ticks);
  EXPECT_EQ(m.lease_expires, config.lease_ticks);

  m = OnProbeFailure(m, "IS4", 10);
  EXPECT_EQ(m.state, SourceState::kSuspect);
  EXPECT_EQ(m.breaker, BreakerState::kClosed);
  EXPECT_TRUE(m.Degraded());
  EXPECT_EQ(m.consecutive_failures, 1u);
  EXPECT_EQ(m.lease_expires, config.lease_ticks) << "failures never renew";

  m = OnProbeFailure(m, "IS4", 12);
  EXPECT_EQ(m.state, SourceState::kSuspect);
  m = OnProbeFailure(m, "IS4", 15);  // third consecutive failure: trip
  EXPECT_EQ(m.state, SourceState::kQuarantined);
  EXPECT_EQ(m.breaker, BreakerState::kOpen);
  EXPECT_GE(m.next_probe, 15 + config.breaker_open_ticks);
}

TEST_F(FederationTest, HalfOpenProbeClosesOrReopensTheBreaker) {
  SourceMembership tripped = MakeHealthy({}, 0);
  for (uint64_t tick : {10u, 12u, 15u}) {
    tripped = OnProbeFailure(tripped, "IS4", tick);
  }
  ASSERT_EQ(tripped.breaker, BreakerState::kOpen);

  SourceMembership trial = tripped;
  trial.breaker = BreakerState::kHalfOpen;  // the monitor does this
  const SourceMembership reopened = OnProbeFailure(trial, "IS4", 40);
  EXPECT_EQ(reopened.breaker, BreakerState::kOpen);
  EXPECT_EQ(reopened.state, SourceState::kQuarantined);
  EXPECT_GE(reopened.next_probe, 40 + trial.config.breaker_open_ticks);

  const SourceMembership healed = OnProbeSuccess(trial, "IS4", 40);
  EXPECT_EQ(healed.breaker, BreakerState::kClosed);
  EXPECT_EQ(healed.state, SourceState::kHealthy);
  EXPECT_EQ(healed.consecutive_failures, 0u);
  EXPECT_EQ(healed.lease_expires, 40 + trial.config.lease_ticks);
  EXPECT_EQ(healed.next_probe, 40 + trial.config.probe_interval_ticks);
}

TEST_F(FederationTest, MembershipSerializationRoundTrips) {
  SourceMembership m = MakeHealthy({}, 17);
  m = OnProbeFailure(m, "IS5", 40);
  m = OnProbeFailure(m, "IS5", 44);
  m.config.lease_ticks = 999;
  const std::string line = federation::SerializeMembership("IS5", m);
  const auto parsed = federation::ParseMembership(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->source, "IS5");
  EXPECT_TRUE(parsed->membership == m);
  EXPECT_EQ(federation::SerializeMembership(parsed->source,
                                            parsed->membership),
            line);

  EXPECT_FALSE(federation::ParseMembership("IS5 healthy").ok());
  EXPECT_FALSE(federation::ParseMembership("").ok());
  EXPECT_FALSE(
      federation::ParseMembership(
          "IS5 bogus closed failures=0 lease=1 next=2 attempt=0 "
          "cfg=1,2,3,4,5,6,7,8")
          .ok());
}

// --- Monitor ---------------------------------------------------------------

TEST_F(FederationTest, TransientOutageNeverCausesRewritingChurn) {
  EveSystem system(MakeMkbWithPc());
  ASSERT_TRUE(system.RegisterViewText(CustomerPassengersAsiaSql()).ok());
  const std::string views_before = SaveViews(system);
  const std::string mkb_before = SaveMkb(system.mkb());

  SimulatedTransport transport;
  // IS4 dark for 30 ticks: long enough to suspect, quarantine and trip the
  // breaker, far shorter than the 120-tick lease.
  transport.AddFault("IS4", {5, 35, SimulatedTransport::FaultKind::kTimeout});
  FederationMonitor monitor(&system, &transport);
  ASSERT_TRUE(monitor.TrackSources().ok());
  ASSERT_TRUE(monitor.AdvanceTo(200).ok());

  EXPECT_EQ(monitor.stats().departures, 0u);
  EXPECT_GT(monitor.stats().failures, 0u);
  EXPECT_GT(monitor.stats().state_transitions, 0u) << "IS4 must have dipped";
  EXPECT_EQ(system.source_membership().at("IS4").state, SourceState::kHealthy);
  EXPECT_EQ(system.source_membership().at("IS4").breaker,
            BreakerState::kClosed);
  // No view was touched and no change was logged: the outage was absorbed.
  EXPECT_EQ(SaveViews(system), views_before);
  EXPECT_EQ(SaveMkb(system.mkb()), mkb_before);
  EXPECT_TRUE(system.change_log().empty());
}

TEST_F(FederationTest, SlowAndCorruptRepliesCountAsFailures) {
  for (const auto kind : {SimulatedTransport::FaultKind::kSlow,
                          SimulatedTransport::FaultKind::kCorrupt}) {
    EveSystem system(MakeTravelAgencyMkb().MoveValue());
    SimulatedTransport transport;
    transport.AddFault("IS2", {5, 16, kind});
    FederationMonitor monitor(&system, &transport);
    ASSERT_TRUE(monitor.TrackSources().ok());
    ASSERT_TRUE(monitor.AdvanceTo(12).ok());
    EXPECT_EQ(system.source_membership().at("IS2").state,
              SourceState::kSuspect)
        << federation::FaultKindToString(kind);
    EXPECT_GT(monitor.stats().failures, 0u);
  }
}

TEST_F(FederationTest, LeaseExpiryDepartsSourceAndRunsCascade) {
  EveSystem system(MakeMkbWithPc());
  ASSERT_TRUE(system.RegisterViewText(AsiaCustomerSql()).ok());

  SimulatedTransport transport;
  // IS4 dark way past its lease: this outage is a real departure.
  transport.AddFault("IS4", {5, 500, SimulatedTransport::FaultKind::kTimeout});
  FederationMonitor monitor(&system, &transport);
  ASSERT_TRUE(monitor.TrackSources().ok());
  ASSERT_TRUE(monitor.AdvanceTo(300).ok());

  EXPECT_EQ(monitor.stats().departures, 1u);
  EXPECT_EQ(system.source_membership().at("IS4").state,
            SourceState::kDeparted);
  EXPECT_FALSE(system.mkb().catalog().HasRelation("FlightRes"));
  // The cascade synchronized the dependent view: rewritten or disabled,
  // never silently wrong.
  ASSERT_FALSE(system.change_log().empty());
  const RegisteredView* view = system.GetView("AsiaCustomer").value();
  if (view->state == ViewState::kActive) {
    EXPECT_FALSE(view->definition.ReferencesRelation("FlightRes"));
  }
  // Departed sources are not probed again.
  const uint64_t probes_at_departure = monitor.stats().probes;
  ASSERT_TRUE(monitor.AdvanceTo(320).ok());
  const auto& m = system.source_membership().at("IS4");
  EXPECT_EQ(m.state, SourceState::kDeparted);
  EXPECT_GT(monitor.stats().probes, probes_at_departure)
      << "other sources keep probing";
}

TEST_F(FederationTest, FlappingSourceSurvivesOnTheSuccessfulHalf) {
  EveSystem system(MakeTravelAgencyMkb().MoveValue());
  SimulatedTransport transport;
  transport.AddFault("IS3", {1, 400, SimulatedTransport::FaultKind::kFlap});
  FederationMonitor monitor(&system, &transport);
  ASSERT_TRUE(monitor.TrackSources().ok());
  ASSERT_TRUE(monitor.AdvanceTo(400).ok());
  // Every other probe succeeds, so the lease keeps being renewed.
  EXPECT_EQ(monitor.stats().departures, 0u);
  EXPECT_NE(system.source_membership().at("IS3").state,
            SourceState::kDeparted);
  EXPECT_GT(monitor.stats().failures, 0u);
  EXPECT_GT(monitor.stats().successes, 0u);
}

// --- Degraded-mode synchronization -----------------------------------------

TEST_F(FederationTest, RewritingUnderDegradedSourceIsProvisionalUntilHeal) {
  // Reference run: no faults anywhere.
  EveSystem reference(MakeMkbWithPc());
  ASSERT_TRUE(reference.RegisterViewText(CustomerPassengersAsiaSql()).ok());
  ASSERT_TRUE(
      reference.ApplyChange(CapabilityChange::DeleteRelation("Customer"))
          .ok());

  // Degraded run: IS5 (Accident-Ins, the replacement the rewriting leans
  // on) is SUSPECT when the change arrives.
  EveSystem system(MakeMkbWithPc());
  ASSERT_TRUE(system.RegisterViewText(CustomerPassengersAsiaSql()).ok());
  const SourceMembership degraded =
      OnProbeFailure(MakeHealthy({}, 0), "IS5", 10);
  ASSERT_TRUE(system.SetSourceMembership("IS5", degraded).ok());

  const ChangeReport report =
      system.ApplyChange(CapabilityChange::DeleteRelation("Customer"))
          .value();
  ASSERT_EQ(report.CountOutcome(ViewOutcomeKind::kRewritten), 1u);
  const ViewOutcome& outcome = report.outcomes.front();
  EXPECT_EQ(outcome.provisional_sources,
            (std::vector<std::string>{"IS5"}));
  EXPECT_NE(report.ToString().find("[provisional: IS5]"), std::string::npos);
  const RegisteredView* view =
      system.GetView("CustomerPassengersAsia").value();
  EXPECT_EQ(view->provisional_sources, (std::set<std::string>{"IS5"}));
  EXPECT_NE(SaveViews(system).find("provisional=IS5"), std::string::npos);
  // The degraded run differs from the reference only by the marks.
  EXPECT_NE(SaveViews(system), SaveViews(reference));

  // Heal IS5: the provisional rewiring is confirmed; marks clear from the
  // live view AND the logged report, converging to the fault-free bytes.
  ASSERT_TRUE(
      system.SetSourceMembership("IS5", OnProbeSuccess(degraded, "IS5", 20))
          .ok());
  EXPECT_TRUE(system.GetView("CustomerPassengersAsia")
                  .value()
                  ->provisional_sources.empty());
  EXPECT_EQ(system.change_log().back().ToString(),
            reference.change_log().back().ToString());
  EXPECT_EQ(SaveViews(system), SaveViews(reference));
  EXPECT_EQ(SaveMkb(system.mkb()), SaveMkb(reference.mkb()));
}

TEST_F(FederationTest, DisabledViewCarriesNoProvisionalMarks) {
  EveSystem system(MakeTravelAgencyMkb().MoveValue());  // no PC: incurable
  ASSERT_TRUE(system
                  .RegisterViewText(
                      "CREATE VIEW Rigid (VE = =) AS "
                      "SELECT C.Name (false, true) FROM Customer C, "
                      "FlightRes F WHERE C.Name = F.PName")
                  .ok());
  ASSERT_TRUE(
      system
          .SetSourceMembership("IS4", OnProbeFailure(MakeHealthy({}, 0),
                                                     "IS4", 10))
          .ok());
  const ChangeReport report =
      system.ApplyChange(CapabilityChange::DeleteRelation("Customer"))
          .value();
  ASSERT_EQ(report.CountOutcome(ViewOutcomeKind::kDisabled), 1u);
  EXPECT_TRUE(report.outcomes.front().provisional_sources.empty());
  EXPECT_TRUE(system.GetView("Rigid").value()->provisional_sources.empty());
}

// --- Durability ------------------------------------------------------------

TEST_F(FederationTest, RecoveryRestoresMembershipAndProvisionalMarks) {
  const std::string base = ::testing::TempDir() + "federation_recovery";
  const std::string checkpoint_path = base + ".ckpt";
  const std::string journal_path = base + ".wal";
  std::remove(checkpoint_path.c_str());
  std::remove(journal_path.c_str());

  EveSystem system(MakeMkbWithPc());
  ASSERT_TRUE(system.RegisterViewText(CustomerPassengersAsiaSql()).ok());
  ASSERT_TRUE(WriteCheckpoint(system, checkpoint_path).ok());
  Journal journal = Journal::Open(journal_path).MoveValue();
  system.AttachJournal(&journal);

  SourceMembership degraded = MakeHealthy({}, 0);
  ASSERT_TRUE(system.SetSourceMembership("IS4", degraded).ok());
  ASSERT_TRUE(system.SetSourceMembership("IS5", degraded).ok());
  degraded = OnProbeFailure(degraded, "IS5", 10);
  ASSERT_TRUE(system.SetSourceMembership("IS5", degraded).ok());
  ASSERT_TRUE(
      system.ApplyChange(CapabilityChange::DeleteRelation("Customer")).ok());
  ASSERT_FALSE(SaveFederation(system).empty());

  const Result<EveSystem> recovered =
      RecoverFromFiles(checkpoint_path, journal_path);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(SaveFederation(recovered.value()), SaveFederation(system));
  EXPECT_EQ(SaveViews(recovered.value()), SaveViews(system));
  EXPECT_NE(SaveViews(recovered.value()).find("provisional=IS5"),
            std::string::npos);

  // A checkpoint taken NOW (with membership + marks) round-trips alone.
  const Result<EveSystem> reloaded =
      LoadCheckpoint(RenderCheckpoint(system));
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  EXPECT_EQ(SaveFederation(reloaded.value()), SaveFederation(system));
  EXPECT_EQ(SaveViews(reloaded.value()), SaveViews(system));

  std::remove(checkpoint_path.c_str());
  std::remove(journal_path.c_str());
}

// --- Transport fault injection via failpoints ------------------------------

TEST_F(FederationTest, FailpointSitesConvertProbesIntoEachFaultKind) {
  const struct {
    const char* site;
    bool still_succeeds;  // flap: first armed probe fails, site disarms
  } kinds[] = {
      {fp::kFederationProbeSend, false},
      {fp::kFederationProbeTimeout, false},
      {fp::kFederationProbeSlow, false},
      {fp::kFederationProbeCorrupt, false},
      {fp::kFederationProbeFlap, false},
  };
  for (const auto& kind : kinds) {
    SCOPED_TRACE(kind.site);
    Failpoints::Instance().Reset();
    EveSystem system(MakeTravelAgencyMkb().MoveValue());
    SimulatedTransport transport;
    FederationMonitor monitor(&system, &transport);
    ASSERT_TRUE(monitor.TrackSources().ok());
    const uint64_t hits_before = Failpoints::Instance().HitCount(kind.site);
    // Arm on the first upcoming probe; with every source probing at tick
    // 10, exactly one of them eats the fault.
    Failpoints::Instance().Arm(kind.site, FailpointAction::kError);
    ASSERT_TRUE(monitor.AdvanceTo(10).ok());
    EXPECT_GT(Failpoints::Instance().HitCount(kind.site), hits_before);
    EXPECT_EQ(monitor.stats().failures, 1u);
    EXPECT_EQ(monitor.stats().successes, monitor.stats().probes - 1);
  }
  Failpoints::Instance().Reset();
}

TEST_F(FederationTest, CrashDuringProbePropagates) {
  EveSystem system(MakeTravelAgencyMkb().MoveValue());
  SimulatedTransport transport;
  FederationMonitor monitor(&system, &transport);
  ASSERT_TRUE(monitor.TrackSources().ok());
  Failpoints::Instance().Arm(fp::kFederationProbeSend,
                             FailpointAction::kCrash);
  EXPECT_THROW((void)monitor.AdvanceTo(10), SimulatedCrash);
}

// --- End-to-end convergence ------------------------------------------------

TEST_F(FederationTest, HealedScheduleIsByteIdenticalToFaultFreeRun) {
  const auto run = [](bool faulty) -> SimResult {
    EveSystem system(MakeMkbWithPc());
    EXPECT_TRUE(system.RegisterViewText(CustomerPassengersAsiaSql()).ok());
    SimOptions options;
    options.ticks = 400;
    FederationSimulator sim(&system, options);
    // The change lands while IS5 is degraded (window opened at 35, so the
    // tick-40 probe already failed); the window heals well within the
    // 120-tick lease.
    sim.ScheduleChange(50, CapabilityChange::DeleteRelation("Customer"));
    if (faulty) {
      sim.ScheduleFault("IS5",
                        {35, 70, SimulatedTransport::FaultKind::kTimeout});
    }
    const Result<SimResult> result = sim.Run();
    EXPECT_TRUE(result.ok()) << result.status();
    return result.value();
  };

  const SimResult faulty = run(true);
  const SimResult clean = run(false);
  EXPECT_TRUE(faulty.violations.empty())
      << faulty.violations.front();
  EXPECT_TRUE(clean.violations.empty());
  EXPECT_GT(faulty.provisional_outcomes, 0u)
      << "the schedule must actually exercise degraded-mode rewriting";
  EXPECT_EQ(clean.provisional_outcomes, 0u);
  EXPECT_EQ(faulty.stats.departures, 0u);
  EXPECT_EQ(faulty.Fingerprint(), clean.Fingerprint())
      << "healed-within-lease faults must leave no trace in the reports";
}

TEST_F(FederationTest, RandomizedHealedSchedulesConvergeAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    EveSystem system(MakeMkbWithPc());
    ASSERT_TRUE(system.RegisterViewText(CustomerPassengersAsiaSql()).ok());
    ASSERT_TRUE(system.RegisterViewText(AsiaCustomerSql()).ok());
    SimOptions options;
    options.ticks = 400;
    options.seed = seed;
    options.fault_rate = 0.02;
    options.heal_within_lease = true;
    FederationSimulator sim(&system, options);
    sim.RandomizeFaults();
    sim.ScheduleChange(60, CapabilityChange::DeleteRelation("RentACar"));
    sim.ScheduleChange(120, CapabilityChange::DeleteRelation("Customer"));
    const Result<SimResult> result = sim.Run();
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_TRUE(result->violations.empty()) << result->violations.front();
    EXPECT_EQ(result->stats.departures, 0u)
        << "healed-within-lease schedules must never depart a source";
    for (const auto& [source, membership] : system.source_membership()) {
      EXPECT_EQ(membership.state, SourceState::kHealthy) << source;
    }
  }
}

TEST_F(FederationTest, HarshRandomizedSchedulesStillConverge) {
  // Short leases + heavy fault rates: departures are expected; silent
  // wrongness is still forbidden.
  uint64_t total_departures = 0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    EveSystem system(MakeMkbWithPc());
    ASSERT_TRUE(system.RegisterViewText(CustomerPassengersAsiaSql()).ok());
    ASSERT_TRUE(system.RegisterViewText(AsiaCustomerSql()).ok());
    SimOptions options;
    options.ticks = 300;
    options.seed = seed;
    options.fault_rate = 0.08;
    options.heal_within_lease = false;
    options.config.lease_ticks = 40;
    FederationSimulator sim(&system, options);
    sim.RandomizeFaults();
    sim.ScheduleChange(30, CapabilityChange::DeleteRelation("Tour"));
    const Result<SimResult> result = sim.Run();
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_TRUE(result->violations.empty()) << result->violations.front();
    total_departures += result->stats.departures;
  }
  EXPECT_GT(total_departures, 0u)
      << "the harsh schedule should actually expire leases";
}

}  // namespace
}  // namespace eve
