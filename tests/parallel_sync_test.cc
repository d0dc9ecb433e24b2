// Determinism of parallel batch synchronization: ApplyChange /
// DepartSource at sync parallelism 1 (the sequential reference), 4, 8 and
// the host default must produce byte-identical change reports, identical
// view pools, and byte-identical journal files. Also checks when the sync
// pool starts and unit-tests the ThreadPool / ParallelFor primitives (this
// binary runs under TSan in CI).

#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <filesystem>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/file_io.h"
#include "common/thread_pool.h"
#include "eve/eve_system.h"
#include "eve/journal.h"
#include "eve/view_pool_io.h"
#include "mkb/capability_change.h"
#include "mkb/serializer.h"
#include "workload/generator.h"

namespace eve {
namespace {

// A system over a chain MKB with `num_views` views: even-numbered views
// sit at the chain head (and reference the victim relation R1), odd ones
// live far down the chain and stay unaffected. IS1 exports R1 and R2, so
// its departure is a two-change cascade.
EveSystem MakeBatchSystem(size_t num_views) {
  ChainMkbSpec spec;
  spec.length = 48;
  spec.skip_edges = true;
  spec.cover_distance = 2;
  std::string misd = SaveMkb(MakeChainMkb(spec).MoveValue());
  const size_t r2 = misd.find("SOURCE IS2 RELATION");
  EXPECT_NE(r2, std::string::npos);
  misd.replace(r2, std::string("SOURCE IS2").size(), "SOURCE IS1");
  const Mkb mkb = LoadMkb(misd).MoveValue();
  EveSystem system(mkb);
  for (size_t i = 0; i < num_views; ++i) {
    const size_t start = (i % 2 == 0) ? (i / 2) % 2 : 20 + (i / 2) % 20;
    ViewDefinition view = MakeChainView(mkb, start, 3).MoveValue();
    view.set_name("BV" + std::to_string(i));
    EXPECT_TRUE(system.RegisterView(view).ok());
  }
  return system;
}

// The sync parallelism settings of every determinism test: 1 is the
// sequential reference and runs first; nullopt keeps the system's default
// (no SetSyncParallelism call).
const std::vector<std::optional<size_t>> kParallelisms = {1, 4, 8,
                                                          std::nullopt};

void SetParallelism(EveSystem* system, std::optional<size_t> threads) {
  if (threads.has_value()) system->SetSyncParallelism(*threads);
}

std::string Label(std::optional<size_t> threads) {
  return threads.has_value() ? std::to_string(*threads) : "default";
}

// Threads of this process, as listed in /proc/self/task.
size_t ProcessThreads() {
  return static_cast<size_t>(
      std::distance(std::filesystem::directory_iterator("/proc/self/task"),
                    std::filesystem::directory_iterator()));
}

// Flattens everything observable about a system after a change: the
// report, every view's definition, state and history.
std::string Fingerprint(const ChangeReport& report, const EveSystem& system) {
  std::string out = report.ToString();
  for (const std::string& name : system.ViewNames()) {
    const RegisteredView* view = system.GetView(name).value();
    out += "\n-- " + name +
           (view->state == ViewState::kActive ? " [active]" : " [disabled]") +
           "\n" + view->definition.ToString();
    for (const std::string& event : view->history) out += "\n# " + event;
  }
  return out;
}

TEST(ParallelSyncTest, OnlyAMultiViewDeleteStartsThePool) {
  // Defined first, so no pool of an earlier test is still winding down
  // when the threads are counted.
  const size_t before = ProcessThreads();
  // Registering and loading views, a rename however many views it
  // touches, and a one-view delete all stay on the calling thread.
  EveSystem system = MakeBatchSystem(24);
  EXPECT_EQ(system.sync_parallelism(), AvailableCpus());
  EveSystem loaded(system.mkb());
  ASSERT_TRUE(LoadViews(SaveViews(system), &loaded).ok());
  const CapabilityChange rename = CapabilityChange::RenameRelation("R1", "R1x");
  ASSERT_EQ(system.AffectedViews(rename).size(), 12u);
  ASSERT_TRUE(system.ApplyChange(rename).ok());
  const CapabilityChange one_view = CapabilityChange::DeleteRelation("R20");
  ASSERT_EQ(system.AffectedViews(one_view).size(), 1u);
  ASSERT_TRUE(system.DryRunChange(one_view).ok());
  EXPECT_EQ(ProcessThreads(), before);

  // The first multi-view delete starts the pool's parallelism - 1 workers
  // (a sanitizer runtime may add a thread of its own with the first one),
  // and a copy made before it fans out over the same workers.
  const EveSystem copy = system;
  const CapabilityChange multi_view = CapabilityChange::DeleteRelation("R1x");
  ASSERT_TRUE(system.ApplyChange(multi_view).ok());
  const size_t started = ProcessThreads();
  EXPECT_GE(started, before + system.sync_parallelism() - 1);
  ASSERT_TRUE(copy.DryRunChange(multi_view).ok());
  EXPECT_EQ(ProcessThreads(), started);
}

TEST(ParallelSyncTest, ApplyChangeIsDeterministicAcrossThreadCounts) {
  const EveSystem base = MakeBatchSystem(24);
  // The deletes fan out; the rename never does, and must still match.
  for (const CapabilityChange& change :
       {CapabilityChange::DeleteRelation("R1"),
        CapabilityChange::DeleteAttribute("R1", "P1"),
        CapabilityChange::RenameRelation("R1", "R1x")}) {
    ASSERT_GE(base.AffectedViews(change).size(), 2u) << change.ToString();
    std::string reference_fingerprint;
    std::string reference_journal;
    for (const std::optional<size_t> threads : kParallelisms) {
      EveSystem system = base;
      SetParallelism(&system, threads);
      const std::string journal_path = ::testing::TempDir() +
                                       "parallel_sync_apply_" +
                                       Label(threads) + ".wal";
      std::remove(journal_path.c_str());
      Result<Journal> journal = Journal::Open(journal_path);
      ASSERT_TRUE(journal.ok());
      system.AttachJournal(&journal.value());

      const Result<ChangeReport> report = system.ApplyChange(change);
      ASSERT_TRUE(report.ok()) << "threads=" << Label(threads);
      system.AttachJournal(nullptr);

      const std::string fingerprint = Fingerprint(report.value(), system);
      const std::string journal_bytes =
          ReadFileToString(journal_path).MoveValue();
      EXPECT_GT(report.value().CountOutcome(ViewOutcomeKind::kRewritten) +
                    report.value().CountOutcome(ViewOutcomeKind::kDisabled),
                0u);
      if (threads == 1) {
        reference_fingerprint = fingerprint;
        reference_journal = journal_bytes;
      } else {
        EXPECT_EQ(fingerprint, reference_fingerprint)
            << change.ToString() << " threads=" << Label(threads);
        EXPECT_EQ(journal_bytes, reference_journal)
            << change.ToString() << " threads=" << Label(threads);
      }
      std::remove(journal_path.c_str());
    }
  }
}

TEST(ParallelSyncTest, DepartureIsDeterministicAcrossThreadCounts) {
  const EveSystem base = MakeBatchSystem(16);
  ASSERT_GE(base.AffectedViews(CapabilityChange::DeleteRelation("R1")).size(),
            2u);

  std::string reference;
  for (const std::optional<size_t> threads : kParallelisms) {
    EveSystem system = base;
    SetParallelism(&system, threads);
    const Result<std::vector<ChangeReport>> reports =
        system.DepartSource("IS1");
    ASSERT_TRUE(reports.ok()) << "threads=" << Label(threads);
    ASSERT_EQ(reports.value().size(), 2u);
    std::string fingerprint;
    for (const ChangeReport& report : reports.value()) {
      fingerprint += Fingerprint(report, system) + "\n====\n";
    }
    if (threads == 1) {
      reference = fingerprint;
    } else {
      EXPECT_EQ(fingerprint, reference) << "threads=" << Label(threads);
    }
  }
}

TEST(ParallelSyncTest, TopKAndBudgetAreDeterministicAcrossThreadCounts) {
  // EveSystem's top-1 bound and the candidate-budget knob narrow each
  // view's private enumeration; they must not perturb determinism —
  // reports, pools and the aggregated enumeration stats stay
  // byte-identical at any parallelism.
  const CapabilityChange change = CapabilityChange::DeleteRelation("R1");
  std::string reference_fingerprint;
  std::string reference_stats;
  for (const std::optional<size_t> threads : kParallelisms) {
    EveSystem system = MakeBatchSystem(24);
    system.SetSyncCandidateBudget(16);
    SetParallelism(&system, threads);
    const Result<ChangeReport> report = system.ApplyChange(change);
    ASSERT_TRUE(report.ok()) << "threads=" << Label(threads);
    const std::string fingerprint = Fingerprint(report.value(), system);
    const std::string stats = system.last_sync_stats().ToString();
    if (threads == 1) {
      reference_fingerprint = fingerprint;
      reference_stats = stats;
    } else {
      EXPECT_EQ(fingerprint, reference_fingerprint)
          << "threads=" << Label(threads);
      EXPECT_EQ(stats, reference_stats) << "threads=" << Label(threads);
    }
  }
}

TEST(ParallelSyncTest, WorkBudgetPartialsAreDeterministicAcrossThreadCounts) {
  // A tight per-view logical work budget stops every view's search on the
  // same enumeration step regardless of which thread runs it, so the
  // partial results — reports, pools, aggregated stats, diagnostics AND
  // journal bytes — must be byte-identical across parallelism.
  const CapabilityChange change = CapabilityChange::DeleteRelation("R1");
  std::string reference_fingerprint;
  std::string reference_stats;
  std::string reference_diagnostics;
  std::string reference_journal;
  for (const std::optional<size_t> threads : kParallelisms) {
    // The chain views' searches are tiny (one frontier expansion + one
    // emission each), so budget 1 is the tight setting that actually
    // deadline-stops them.
    EveSystem system = MakeBatchSystem(24);
    system.SetSyncWorkBudget(1);
    SetParallelism(&system, threads);
    const std::string journal_path = ::testing::TempDir() +
                                     "parallel_sync_budget_" +
                                     Label(threads) + ".wal";
    std::remove(journal_path.c_str());
    Result<Journal> journal = Journal::Open(journal_path);
    ASSERT_TRUE(journal.ok());
    system.AttachJournal(&journal.value());
    const Result<ChangeReport> report = system.ApplyChange(change);
    ASSERT_TRUE(report.ok()) << "threads=" << Label(threads);
    system.AttachJournal(nullptr);

    // The budget is tight enough to stop at least one view's search.
    EXPECT_FALSE(system.last_sync_diagnostics().deadline_views.empty());
    EXPECT_TRUE(system.last_sync_stats().deadline.partial);
    EXPECT_EQ(system.last_sync_stats().deadline.stop_cause,
              StopCause::kWorkBudget);

    const std::string fingerprint = Fingerprint(report.value(), system);
    const std::string stats = system.last_sync_stats().ToString();
    const std::string diagnostics = system.last_sync_diagnostics().ToString();
    const std::string journal_bytes =
        ReadFileToString(journal_path).MoveValue();
    if (threads == 1) {
      reference_fingerprint = fingerprint;
      reference_stats = stats;
      reference_diagnostics = diagnostics;
      reference_journal = journal_bytes;
    } else {
      EXPECT_EQ(fingerprint, reference_fingerprint)
          << "threads=" << Label(threads);
      EXPECT_EQ(stats, reference_stats) << "threads=" << Label(threads);
      EXPECT_EQ(diagnostics, reference_diagnostics)
          << "threads=" << Label(threads);
      EXPECT_EQ(journal_bytes, reference_journal)
          << "threads=" << Label(threads);
    }
    std::remove(journal_path.c_str());
  }
}

TEST(ParallelSyncTest, DryRunThenCommitMatchesDirectCommitAcrossThreadCounts) {
  // The prepare/commit split must be invisible: rehearsing a change with
  // SYNC DRYRUN and then committing it produces byte-identical reports,
  // view pools and journal files to committing it directly — at every
  // sync parallelism.
  const EveSystem base = MakeBatchSystem(24);
  for (const CapabilityChange& change :
       {CapabilityChange::DeleteRelation("R1"),
        CapabilityChange::DeleteAttribute("R1", "P1")}) {
    std::string reference_fingerprint;
    std::string reference_journal;
    for (const std::optional<size_t> threads : kParallelisms) {
      const std::string label =
          change.ToString() + " threads=" + Label(threads);
      // Direct commit.
      EveSystem direct = base;
      SetParallelism(&direct, threads);
      const std::string direct_path = ::testing::TempDir() +
                                      "parallel_sync_direct_" +
                                      Label(threads) + ".wal";
      std::remove(direct_path.c_str());
      Result<Journal> direct_journal = Journal::Open(direct_path);
      ASSERT_TRUE(direct_journal.ok());
      direct.AttachJournal(&direct_journal.value());
      const Result<ChangeReport> direct_report = direct.ApplyChange(change);
      ASSERT_TRUE(direct_report.ok()) << label;
      direct.AttachJournal(nullptr);

      // Dry-run first, then commit.
      EveSystem rehearsed = base;
      SetParallelism(&rehearsed, threads);
      const std::string rehearsed_path = ::testing::TempDir() +
                                         "parallel_sync_rehearsed_" +
                                         Label(threads) + ".wal";
      std::remove(rehearsed_path.c_str());
      Result<Journal> rehearsed_journal = Journal::Open(rehearsed_path);
      ASSERT_TRUE(rehearsed_journal.ok());
      rehearsed.AttachJournal(&rehearsed_journal.value());
      const Result<DryRunReport> dry = rehearsed.DryRunChange(change);
      ASSERT_TRUE(dry.ok()) << label;
      const Result<ChangeReport> committed = rehearsed.ApplyChange(change);
      ASSERT_TRUE(committed.ok()) << label;
      rehearsed.AttachJournal(nullptr);

      // The dry-run predicted the commit exactly...
      EXPECT_EQ(dry.value().report.ToString(), committed.value().ToString())
          << label;
      // ...and left no trace: fingerprints and journal bytes match the
      // direct run.
      EXPECT_EQ(Fingerprint(committed.value(), rehearsed),
                Fingerprint(direct_report.value(), direct))
          << label;
      const std::string direct_bytes =
          ReadFileToString(direct_path).MoveValue();
      const std::string rehearsed_bytes =
          ReadFileToString(rehearsed_path).MoveValue();
      EXPECT_EQ(rehearsed_bytes, direct_bytes) << label;

      if (threads == 1) {
        reference_fingerprint = Fingerprint(direct_report.value(), direct);
        reference_journal = direct_bytes;
      } else {
        EXPECT_EQ(Fingerprint(direct_report.value(), direct),
                  reference_fingerprint)
            << label;
        EXPECT_EQ(direct_bytes, reference_journal) << label;
      }
      std::remove(direct_path.c_str());
      std::remove(rehearsed_path.c_str());
    }
  }
}

TEST(ParallelSyncTest, PinnedReadersObserveOnlyWholeVersionsDuringCommits) {
  // Concurrent readers pin the tip while commits swap it: every pin must
  // land on exactly one committed version — the pinned MKB renders byte-
  // identically to that version's clean render, never a torn in-between.
  const std::vector<CapabilityChange> changes = {
      CapabilityChange::DeleteAttribute("R1", "P1"),
      CapabilityChange::DeleteRelation("R1"),
      CapabilityChange::RenameRelation("R21", "R21x"),
      CapabilityChange::RenameRelation("R30", "R30x"),
      CapabilityChange::DeleteRelation("R40"),
  };
  // Clean sequential run records the only legal render per version id.
  std::map<uint64_t, std::string> legal;
  {
    EveSystem clean = MakeBatchSystem(24);
    legal[clean.current_version()] = SaveMkb(clean.mkb());
    for (const CapabilityChange& change : changes) {
      ASSERT_TRUE(clean.ApplyChange(change).ok());
      legal[clean.current_version()] = SaveMkb(clean.mkb());
    }
  }

  EveSystem system = MakeBatchSystem(24);
  system.SetSyncParallelism(8);
  std::atomic<bool> stop{false};
  std::atomic<size_t> pins_checked{0};
  std::atomic<size_t> torn{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        const PinnedMkb pinned = system.PinTip();
        const auto it = legal.find(pinned.id());
        if (it == legal.end() || SaveMkb(*pinned.mkb) != it->second) {
          torn.fetch_add(1);
        }
        pins_checked.fetch_add(1);
      }
    });
  }
  for (const CapabilityChange& change : changes) {
    ASSERT_TRUE(system.ApplyChange(change).ok());
  }
  stop.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(torn.load(), 0u)
      << "a reader pinned a state that is not a whole committed version";
  EXPECT_GT(pins_checked.load(), 0u);
  // The writer's final tip agrees with the clean run.
  EXPECT_EQ(SaveMkb(system.mkb()), legal.at(system.current_version()));
}

TEST(ParallelSyncTest, DryRunChangeSharesThePoolSafely) {
  EveSystem system = MakeBatchSystem(12);
  system.SetSyncParallelism(4);
  const CapabilityChange change = CapabilityChange::DeleteRelation("R1");
  // A dry run fans out over the same sync pool as the real apply that
  // follows it, and reports exactly what that apply commits.
  const Result<DryRunReport> dry = system.DryRunChange(change);
  ASSERT_TRUE(dry.ok());
  const Result<ChangeReport> applied = system.ApplyChange(change);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(dry.value().report.ToString(), applied.value().ToString());
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  for (const size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{1000}}) {
    std::vector<std::atomic<int>> hits(n);
    ParallelFor(&pool, n, [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " i=" << i;
    }
  }
}

TEST(ThreadPoolTest, ParallelForWorksWithoutAPool) {
  std::atomic<size_t> sum{0};
  ParallelFor(nullptr, 100, [&](size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 4950u);
}

TEST(ThreadPoolTest, AvailableCpusFollowsTheAffinityMask) {
  cpu_set_t original;
  CPU_ZERO(&original);
  ASSERT_EQ(sched_getaffinity(0, sizeof(original), &original), 0);
  EXPECT_EQ(AvailableCpus(), static_cast<size_t>(CPU_COUNT(&original)));
  // With the calling thread narrowed to one CPU, a system built on it
  // defaults to sequential sync.
  cpu_set_t one;
  CPU_ZERO(&one);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &original)) {
      CPU_SET(cpu, &one);
      break;
    }
  }
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const size_t narrowed = AvailableCpus();
  const size_t narrowed_default = EveSystem(Mkb()).sync_parallelism();
  ASSERT_EQ(sched_setaffinity(0, sizeof(original), &original), 0);
  EXPECT_EQ(narrowed, 1u);
  EXPECT_EQ(narrowed_default, 1u);
}

TEST(ThreadPoolTest, ConcurrentParallelForCallsOnOnePool) {
  ThreadPool pool(4);
  ThreadPool callers(3);
  std::atomic<size_t> total{0};
  ParallelFor(&callers, 3, [&](size_t) {
    std::atomic<size_t> local{0};
    ParallelFor(&pool, 200, [&](size_t i) { local.fetch_add(i + 1); });
    total.fetch_add(local.load());
  });
  // Each caller sums 1..200 = 20100.
  EXPECT_EQ(total.load(), 3u * 20100u);
}

}  // namespace
}  // namespace eve
