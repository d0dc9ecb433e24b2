// The deadline/admission layer: DeadlineToken semantics (deterministic
// work budgets, virtual-clock deadlines), hardened ThreadPool shutdown and
// its wake order (the worker that went idle last; tasks in submission order),
// FederationMonitor probe budgeting, and EveSystem admission control —
// bounded queue with explicit shedding, per-change deadlines, and the
// chain-view partial-result acceptance scenario at sync parallelism
// {1, 4, 8}. This binary runs under TSan and ASan/UBSan in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <latch>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/failpoint.h"
#include "common/thread_pool.h"
#include "esql/view_definition.h"
#include "eve/eve_system.h"
#include "federation/monitor.h"
#include "federation/transport.h"
#include "mkb/capability_change.h"
#include "workload/generator.h"

namespace eve {
namespace {

// --- DeadlineToken ----------------------------------------------------------

TEST(DeadlineTokenTest, WorkBudgetAdmitsExactlyBudgetSteps) {
  const DeadlineToken token = DeadlineToken::Root({3, 0});
  EXPECT_TRUE(token.valid());
  EXPECT_TRUE(token.Spend(1));
  EXPECT_TRUE(token.Spend(1));
  EXPECT_TRUE(token.Spend(1));
  // The fourth unit is refused BEFORE it runs: performed work never
  // exceeds the budget.
  EXPECT_FALSE(token.Spend(1));
  EXPECT_TRUE(token.Expired());
  EXPECT_EQ(token.cause(), StopCause::kWorkBudget);
  // The cause is sticky: later checks fail fast.
  EXPECT_FALSE(token.Spend(1));
}

TEST(DeadlineTokenTest, ManualClockDrivesTheDeadline) {
  ManualClock clock;
  clock.Set(50);
  const DeadlineToken token = DeadlineToken::Root({0, 100}, &clock);
  EXPECT_TRUE(token.Spend(1));
  EXPECT_FALSE(token.Expired());
  clock.Advance(49);  // now 99 — still before the deadline
  EXPECT_TRUE(token.Spend(1));
  clock.Advance(1);  // now 100 — at the deadline
  EXPECT_FALSE(token.Spend(1));
  EXPECT_EQ(token.cause(), StopCause::kDeadline);
}

TEST(DeadlineTokenTest, BudgetCauseWinsWhenBothLimitsAreExceeded) {
  // The work budget is the deterministic limit, so it must be recorded as
  // the cause even when the wall deadline has also passed — a run with
  // both knobs set and a run with only the budget agree on diagnostics.
  ManualClock clock;
  clock.Set(1000);  // already past the deadline below
  const DeadlineToken token = DeadlineToken::Root({1, 500}, &clock);
  EXPECT_FALSE(token.Spend(2));
  EXPECT_EQ(token.cause(), StopCause::kWorkBudget);
}

TEST(DeadlineTokenTest, DefaultTokenIsFree) {
  const DeadlineToken token;
  EXPECT_FALSE(token.valid());
  EXPECT_TRUE(token.Spend(1000000));
  EXPECT_FALSE(token.Expired());
  EXPECT_EQ(token.cause(), StopCause::kNone);
  EXPECT_TRUE(token.ToStatus("sync").ok());
}

TEST(DeadlineTokenTest, ToStatusReportsResourceExhausted) {
  const DeadlineToken token = DeadlineToken::Root({1, 0});
  EXPECT_TRUE(token.ToStatus("sync").ok());  // not yet expired
  EXPECT_FALSE(token.Spend(2));
  const Status status = token.ToStatus("per-view sync");
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(status.message().find("work-budget"), std::string::npos);
}

// --- ThreadPool shutdown semantics -----------------------------------------

TEST(ThreadPoolShutdownTest, DiscardShutdownCountsUnstartedTasks) {
  ThreadPool pool(1);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> started{false};
  std::atomic<int> ran{0};
  // Occupy the single worker so the next three tasks stay queued; wait
  // until it is actually running so the discard below cannot claim it.
  pool.Submit([&] {
    started.store(true);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
    ran.fetch_add(1);
  });
  while (!started.load()) std::this_thread::yield();
  for (int i = 0; i < 3; ++i) {
    pool.Submit([&] { ran.fetch_add(1); }, "queued");
  }
  // Discard from another thread (Shutdown joins, and the running task is
  // still blocked). Wait until the queue has been cleared before releasing
  // the latch — otherwise the freed worker could race Shutdown to a queued
  // task — then unblock; the three queued tasks must be dropped and counted.
  size_t discarded = 0;
  std::thread shutter([&] { discarded = pool.Shutdown(/*drain=*/false); });
  while (pool.discarded_tasks() < 3) std::this_thread::yield();
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  shutter.join();
  EXPECT_EQ(discarded, 3u);
  EXPECT_EQ(pool.discarded_tasks(), 3u);
  EXPECT_EQ(ran.load(), 1);  // only the running task completed
  // Idempotent: the second call has nothing left to discard.
  EXPECT_EQ(pool.Shutdown(false), 0u);
}

TEST(ThreadPoolShutdownTest, DrainShutdownRunsEveryQueuedTask) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) {
    pool.Submit([&] { ran.fetch_add(1); }, "drained");
  }
  EXPECT_EQ(pool.Shutdown(/*drain=*/true), 0u);
  EXPECT_EQ(ran.load(), 64);
  EXPECT_EQ(pool.discarded_tasks(), 0u);
}

TEST(ThreadPoolShutdownTest, SubmitAfterShutdownIsCountedNotSilentlyDropped) {
  ThreadPool pool(1);
  pool.Shutdown(true);
  pool.Submit([] {}, "late");
  EXPECT_EQ(pool.discarded_tasks(), 1u);
}

TEST(ThreadPoolDeathTest, EscapedExceptionReportsTaskProvenance) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // A task that lets an exception escape must terminate the process —
  // but only after naming the task and the exception on stderr, so the
  // crash is attributable.
  EXPECT_DEATH(
      {
        ThreadPool pool(1);
        pool.Submit([] { throw std::runtime_error("boom"); },
                    "exploding-task");
        pool.Shutdown(true);
      },
      "exploding-task.*boom");
}

// --- ThreadPool wake order --------------------------------------------------

TEST(ThreadPoolWakeTest, SequentialStreamStaysOnOneWorker) {
  // Submit, wait for the task, submit again: each task wakes the worker
  // that parked last, which is the one that ran the previous task.
  ThreadPool pool(4);
  std::mutex mu;
  std::condition_variable cv;
  int done = 0;
  std::set<std::thread::id> threads;
  for (int i = 0; i < 200; ++i) {
    // Every worker parked, the previous task's one last.
    while (pool.idle_workers() < pool.num_threads()) std::this_thread::yield();
    pool.Submit(
        [&] {
          std::lock_guard<std::mutex> lock(mu);
          threads.insert(std::this_thread::get_id());
          ++done;
          cv.notify_one();
        },
        "sequential");
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done == i + 1; });
  }
  EXPECT_EQ(threads.size(), 1u);
}

TEST(ThreadPoolWakeTest, TasksQueuedBehindBusyWorkersStartInSubmissionOrder) {
  ThreadPool pool(4);
  std::mutex mu;
  std::condition_variable cv;
  int blocked = 0;
  size_t released = 0;
  std::vector<int> order;
  // Occupy every worker; blocker b runs until `released` exceeds b.
  for (size_t b = 0; b < pool.num_threads(); ++b) {
    pool.Submit(
        [&, b] {
          std::unique_lock<std::mutex> lock(mu);
          ++blocked;
          cv.notify_all();
          cv.wait(lock, [&] { return released > b; });
        },
        "blocker");
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return blocked == 4; });
  }
  constexpr int kQueued = 32;
  for (int i = 0; i < kQueued; ++i) {
    pool.Submit(
        [&, i] {
          std::lock_guard<std::mutex> lock(mu);
          order.push_back(i);
          cv.notify_all();
        },
        "queued");
  }
  // One worker frees up and runs the whole queue while the rest stay busy.
  {
    std::unique_lock<std::mutex> lock(mu);
    released = 1;
    cv.notify_all();
    cv.wait(lock, [&] { return order.size() == kQueued; });
    released = pool.num_threads();
    cv.notify_all();
  }
  pool.Shutdown(/*drain=*/true);
  std::vector<int> expected(kQueued);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

// --- FederationMonitor probe budgeting -------------------------------------

TEST(MonitorDeadlineTest, ProbesAreBudgetedDeterministically) {
  ChainMkbSpec spec;
  spec.length = 5;
  EveSystem system(MakeChainMkb(spec).MoveValue());
  federation::SimulatedTransport transport;
  federation::FederationMonitor monitor(&system, &transport);
  ASSERT_TRUE(monitor.TrackSources().ok());
  ASSERT_EQ(system.source_membership().size(), 5u);

  // Budget three probe units: at the first due tick all five sources are
  // due; the first three (name order, decided before any probe is sent)
  // probe, the last two are skipped and stay due.
  monitor.SetDeadlineToken(DeadlineToken::Root({3, 0}));
  ASSERT_TRUE(monitor.AdvanceTo(10).ok());  // default probe cadence is 10
  EXPECT_EQ(monitor.stats().probes, 3u);
  EXPECT_EQ(monitor.stats().probes_skipped, 2u);

  // The token is sticky: every later due probe is skipped, none run.
  ASSERT_TRUE(monitor.AdvanceTo(25).ok());
  EXPECT_EQ(monitor.stats().probes, 3u);
  EXPECT_GT(monitor.stats().probes_skipped, 2u);

  // A fresh unlimited token lifts the limit again.
  monitor.SetDeadlineToken(DeadlineToken());
  const uint64_t skipped = monitor.stats().probes_skipped;
  ASSERT_TRUE(monitor.AdvanceTo(40).ok());
  EXPECT_GT(monitor.stats().probes, 3u);
  EXPECT_EQ(monitor.stats().probes_skipped, skipped);
}

// --- EveSystem admission control -------------------------------------------

// Chain system matching parallel_sync_test's batch workload: deleting R1
// affects the even-numbered views.
EveSystem MakeChainSystem(size_t num_views) {
  ChainMkbSpec spec;
  spec.length = 24;
  spec.skip_edges = true;
  spec.cover_distance = 2;
  const Mkb mkb = MakeChainMkb(spec).MoveValue();
  EveSystem system(mkb);
  for (size_t i = 0; i < num_views; ++i) {
    const size_t start = (i % 2 == 0) ? (i / 2) % 2 : 10 + (i / 2) % 10;
    ViewDefinition view = MakeChainView(mkb, start, 3).MoveValue();
    view.set_name("BV" + std::to_string(i));
    EXPECT_TRUE(system.RegisterView(view).ok());
  }
  return system;
}

void ExpectAdmissionInvariant(const EveSystem& system) {
  const AdmissionStats& stats = system.admission_stats();
  EXPECT_EQ(stats.submitted, stats.completed + stats.shed + stats.queued_now)
      << stats.ToString();
}

TEST(AdmissionTest, FullQueueShedsTheNewestSubmissionExplicitly) {
  EveSystem system = MakeChainSystem(4);
  system.SetSyncQueueLimit(2);
  EXPECT_TRUE(
      system.EnqueueChange(CapabilityChange::DeleteRelation("R1")).ok());
  EXPECT_TRUE(
      system.EnqueueChange(CapabilityChange::DeleteAttribute("R10", "P10"))
          .ok());
  const Status shed =
      system.EnqueueChange(CapabilityChange::DeleteRelation("R20"));
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(system.queued_changes(), 2u);
  EXPECT_EQ(system.admission_stats().shed, 1u);
  ExpectAdmissionInvariant(system);

  const Result<std::vector<ChangeReport>> reports = system.DrainSyncQueue();
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(reports.value().size(), 2u);
  EXPECT_EQ(system.queued_changes(), 0u);
  EXPECT_EQ(system.admission_stats().completed, 2u);
  EXPECT_EQ(system.admission_stats().failed, 0u);
  ExpectAdmissionInvariant(system);

  // Capacity freed: new submissions are admitted again.
  EXPECT_TRUE(
      system.EnqueueChange(CapabilityChange::DeleteRelation("R20")).ok());
  ExpectAdmissionInvariant(system);
}

TEST(AdmissionTest, DrainStopsAtAFailingChangeAndKeepsTheRemainder) {
  EveSystem system = MakeChainSystem(4);
  EXPECT_TRUE(
      system.EnqueueChange(CapabilityChange::DeleteRelation("NoSuchRelation"))
          .ok());
  EXPECT_TRUE(
      system.EnqueueChange(CapabilityChange::DeleteRelation("R1")).ok());
  const Result<std::vector<ChangeReport>> first = system.DrainSyncQueue();
  EXPECT_FALSE(first.ok());
  // The failing change was consumed (completed + failed); the survivor is
  // still queued.
  EXPECT_EQ(system.admission_stats().failed, 1u);
  EXPECT_EQ(system.queued_changes(), 1u);
  ExpectAdmissionInvariant(system);

  const Result<std::vector<ChangeReport>> second = system.DrainSyncQueue();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().size(), 1u);
  EXPECT_EQ(system.queued_changes(), 0u);
  ExpectAdmissionInvariant(system);
}

// The acceptance workload for work budgets: on a 16-relation chain whose
// covers sit four joins away, a view over R4 ⋈ R5 stays expensive after
// DELETE RELATION R5 (its join-tree search expands over a hundred frontier
// sets, most of them cut at max_extra_relations, before the top-1 bound
// proves its best rewriting), next to an anchor view over R5 alone whose
// best rewriting is proven after two work units.
EveSystem MakeBudgetSystem() {
  ChainMkbSpec spec;
  spec.length = 16;
  spec.cover_distance = 4;
  const Mkb mkb = MakeChainMkb(spec).MoveValue();
  EveSystem system(mkb);
  ViewDefinition chain = MakeChainView(mkb, 4, 2).MoveValue();
  chain.set_name("chain_view");
  EXPECT_TRUE(system.RegisterView(chain).ok());
  ViewDefinition anchor = MakeChainView(mkb, 5, 1).MoveValue();
  anchor.set_name("anchor_view");
  EXPECT_TRUE(system.RegisterView(anchor).ok());
  return system;
}

TEST(AdmissionTest,
     TightBudgetYieldsPartialChainCompleteAnchorAtAnyParallelism) {
  // First establish the unbudgeted reference: both views rewrite, nothing
  // is deadline-stopped.
  const CapabilityChange change = CapabilityChange::DeleteRelation("R5");
  {
    EveSystem system = MakeBudgetSystem();
    const Result<ChangeReport> report = system.ApplyChange(change);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report.value().CountOutcome(ViewOutcomeKind::kRewritten), 2u);
    EXPECT_TRUE(system.last_sync_diagnostics().deadline_views.empty());
  }

  std::string reference_report;
  std::string reference_stats;
  for (const size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
    EveSystem system = MakeBudgetSystem();
    system.SetSyncWorkBudget(40);
    system.SetSyncParallelism(threads);
    const Result<ChangeReport> report = system.ApplyChange(change);
    ASSERT_TRUE(report.ok()) << "threads=" << threads;

    // The chain view ran out of budget and returned a partial
    // (best-prefix) result; the anchor view completed inside the same
    // budget.
    const SyncDiagnostics& diagnostics = system.last_sync_diagnostics();
    EXPECT_EQ(diagnostics.deadline_views,
              std::vector<std::string>{"chain_view"})
        << "threads=" << threads;
    EXPECT_TRUE(system.last_sync_stats().deadline.partial);
    EXPECT_EQ(system.last_sync_stats().deadline.stop_cause,
              StopCause::kWorkBudget);
    // The anchor view is rewritten. The chain view's prefix holds no legal
    // rewriting yet, so it ends DISABLED, with the deadline diagnostic as
    // its reason (the unbudgeted run above rewrites it).
    EXPECT_EQ(report.value().CountOutcome(ViewOutcomeKind::kRewritten), 1u);
    EXPECT_EQ(report.value().CountOutcome(ViewOutcomeKind::kDisabled), 1u);
    EXPECT_EQ(system.GetView("anchor_view").value()->state,
              ViewState::kActive);
    EXPECT_EQ(system.GetView("chain_view").value()->state,
              ViewState::kDisabled);

    const std::string fingerprint = report.value().ToString();
    EXPECT_NE(fingerprint.find("deadline stopped the enumeration"),
              std::string::npos);
    const std::string stats = system.last_sync_stats().ToString();
    if (threads == 1) {
      reference_report = fingerprint;
      reference_stats = stats;
    } else {
      EXPECT_EQ(fingerprint, reference_report) << "threads=" << threads;
      EXPECT_EQ(stats, reference_stats) << "threads=" << threads;
    }
  }
  EXPECT_FALSE(reference_stats.empty());
}

// --- Failpoints at the admission and deadline safe points -------------------

class AdmissionFailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { Failpoints::Instance().Reset(); }
};

TEST_F(AdmissionFailpointTest, InjectedEnqueueFaultIsCountedAsShed) {
  EveSystem system = MakeChainSystem(2);
  Failpoints::Instance().Arm(fp::kAdmissionEnqueue, FailpointAction::kError);
  const Status status =
      system.EnqueueChange(CapabilityChange::DeleteRelation("R1"));
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(system.admission_stats().shed, 1u);
  EXPECT_EQ(system.queued_changes(), 0u);
  ExpectAdmissionInvariant(system);
  // The site auto-disarms: the retry is admitted.
  EXPECT_TRUE(
      system.EnqueueChange(CapabilityChange::DeleteRelation("R1")).ok());
  ExpectAdmissionInvariant(system);
}

TEST_F(AdmissionFailpointTest, InjectedDrainFaultLeavesTheQueueIntact) {
  EveSystem system = MakeChainSystem(2);
  ASSERT_TRUE(
      system.EnqueueChange(CapabilityChange::DeleteRelation("R1")).ok());
  Failpoints::Instance().Arm(fp::kAdmissionDrain, FailpointAction::kError);
  EXPECT_FALSE(system.DrainSyncQueue().ok());
  EXPECT_EQ(system.queued_changes(), 1u);  // nothing was consumed
  EXPECT_EQ(system.admission_stats().completed, 0u);
  ExpectAdmissionInvariant(system);
  const Result<std::vector<ChangeReport>> retry = system.DrainSyncQueue();
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry.value().size(), 1u);
  ExpectAdmissionInvariant(system);
}

TEST_F(AdmissionFailpointTest, ViewStartErrorFailsTheChangeBeforeCommit) {
  EveSystem system = MakeChainSystem(4);
  const std::vector<std::string> before = system.ViewNames();
  Failpoints::Instance().Arm(fp::kSyncViewStart, FailpointAction::kError);
  EXPECT_FALSE(system.ApplyChange(CapabilityChange::DeleteRelation("R1")).ok());
  // The failure surfaced before journaling/commit: state is untouched.
  EXPECT_EQ(system.ViewNames(), before);
  EXPECT_TRUE(system.change_log().empty());
  for (const std::string& name : before) {
    EXPECT_EQ(system.GetView(name).value()->state, ViewState::kActive);
  }
}

TEST_F(AdmissionFailpointTest, ViewStartCrashIsParkedAndRethrownOnTheCaller) {
  // With parallel sync the crash fires on a worker thread; the task must
  // park it and ApplyChange rethrows it on the calling thread — the pool
  // itself never sees an exception (which would terminate the process).
  EveSystem system = MakeChainSystem(8);
  system.SetSyncParallelism(4);
  Failpoints::Instance().Arm(fp::kSyncViewStart, FailpointAction::kCrash);
  EXPECT_THROW(system.ApplyChange(CapabilityChange::DeleteRelation("R1")),
               SimulatedCrash);
  // The interrupted change left no trace.
  EXPECT_TRUE(system.change_log().empty());
}

TEST_F(AdmissionFailpointTest, DeadlineExpiredSiteFiresOnPartialViews) {
  EveSystem system = MakeBudgetSystem();
  system.SetSyncWorkBudget(40);
  Failpoints::Instance().Arm(fp::kSyncDeadlineExpired,
                             FailpointAction::kError);
  // The chain view is deadline-stopped, so the site fires during
  // aggregation and the injected error aborts the change pre-commit.
  EXPECT_FALSE(system.ApplyChange(CapabilityChange::DeleteRelation("R5")).ok());
  EXPECT_TRUE(system.change_log().empty());

  // Without a budget no view is deadline-stopped and the site never fires.
  Failpoints::Instance().Reset();
  Failpoints::Instance().Arm(fp::kSyncDeadlineExpired,
                             FailpointAction::kError);
  system.SetSyncWorkBudget(0);
  EXPECT_TRUE(system.ApplyChange(CapabilityChange::DeleteRelation("R5")).ok());
}

// --- Concurrent admission (runs under TSan in CI) ---------------------------
//
// Many producer threads race EnqueueChange against a drainer and a
// stats sampler. The shedding invariant
//
//   submitted == completed + shed + queued_now
//
// must hold at EVERY sampled instant, not just at quiescence: enqueue
// accounts atomically under the admission lock, and a drain keeps the
// in-flight change counted as queued until its completion is recorded.

void RaceAdmission(EveSystem& system) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 150;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> violations{0};
  std::atomic<uint64_t> samples{0};
  // The producers and the drainer start after the sampler's first sample,
  // so the sampler is running however the threads are scheduled.
  std::latch sampling(1);

  std::thread sampler([&] {
    bool first = true;
    while (!stop.load(std::memory_order_acquire)) {
      const AdmissionStats stats = system.admission_stats();
      if (stats.submitted !=
          stats.completed + stats.shed + stats.queued_now) {
        violations.fetch_add(1);
      }
      samples.fetch_add(1);
      if (first) {
        sampling.count_down();
        first = false;
      }
      (void)system.queued_changes();
    }
  });

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      sampling.wait();
      for (int i = 0; i < kPerProducer; ++i) {
        // Outcomes intentionally vary: the first drain of R1 applies it,
        // re-deletes fail (completed-with-failure), and the queue bound
        // sheds bursts — every path must stay balanced.
        (void)system.EnqueueChange(CapabilityChange::DeleteRelation("R1"));
      }
    });
  }
  std::thread drainer([&] {
    sampling.wait();
    for (int i = 0; i < 40; ++i) (void)system.DrainSyncQueue();
  });

  for (std::thread& producer : producers) producer.join();
  drainer.join();
  stop.store(true, std::memory_order_release);
  sampler.join();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_GT(samples.load(), 0u);

  // Quiesce: drain whatever the racing drains left behind. A drain stops
  // at the first failing change (remainder stays queued), so failures
  // need repeated calls — each consumes at least the failing change.
  while (system.queued_changes() > 0) {
    (void)system.DrainSyncQueue();
  }
  const AdmissionStats stats = system.admission_stats();
  EXPECT_EQ(stats.queued_now, 0u);
  EXPECT_EQ(stats.submitted,
            static_cast<uint64_t>(kProducers * kPerProducer));
  EXPECT_EQ(stats.submitted, stats.completed + stats.shed);
}

TEST(AdmissionConcurrencyTest, InvariantHoldsUnderRacingEnqueueAndDrain) {
  EveSystem system = MakeChainSystem(4);
  system.SetSyncQueueLimit(8);  // small enough that bursts shed
  RaceAdmission(system);
}

}  // namespace
}  // namespace eve
