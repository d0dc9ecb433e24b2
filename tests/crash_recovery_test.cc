// Crash-recovery identity: for EVERY registered failpoint site, a simulated
// crash at that site followed by RecoverFromFiles must yield exactly the
// pre-operation or post-operation clean state — never a third state. The
// error action additionally checks the write-ahead invariant: after an
// injected error, the in-memory state and a fresh recovery from disk agree.
// Both sweeps then keep going the way eved does — after an error with the
// journal still attached, after a crash from the recovered state with the
// same journal reopened — and check that memory and disk still agree.

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/file_io.h"
#include "eve/eve_system.h"
#include "eve/journal.h"
#include "eve/view_pool_io.h"
#include "federation/membership.h"
#include "mkb/serializer.h"
#include "workload/travel_agency.h"

namespace eve {
namespace {

// Full durable state, rendered to text for bit-identical comparison.
struct Snapshot {
  std::string mkb;
  std::string views;
  std::string federation;
  size_t log_size = 0;
  bool operator==(const Snapshot&) const = default;
};

Snapshot Snap(const EveSystem& system) {
  return Snapshot{SaveMkb(system.mkb()), SaveViews(system),
                  SaveFederation(system), system.change_log().size()};
}

// Two sources of two relations each, so each departure applies two changes
// (and hits its between-changes failpoint). ExtraIS is tracked, so its
// departure also writes its membership row; StayIS is not.
const char kExtraMisd[] =
    "SOURCE ExtraIS RELATION Extra1 (Name string, X int)\n"
    "SOURCE ExtraIS RELATION Extra2 (Name string, Y int)\n"
    "SOURCE StayIS RELATION Stay1 (Name string, Z int)\n"
    "SOURCE StayIS RELATION Stay2 (Name string, W int)";

using Op = std::function<Status(EveSystem*)>;

// Deterministic federation membership rows for the script: IS4 tracked,
// then suspected after one probe failure, then healed. Absolute tick
// values, so journal replay lands on identical bytes.
federation::SourceMembership Is4Degraded() {
  return federation::OnProbeFailure(federation::MakeHealthy({}, 0), "IS4", 5);
}

// The scenario script: one entry per client-visible operation, covering
// every journaled mutation kind. Kept in lockstep with BuildCleanStates.
// IS4 is degraded while the delete-relation ops run, so their rewritings
// pick up provisional marks that the later heal clears — both sides of the
// degraded-mode bookkeeping ride through journal replay.
std::vector<Op> ScriptOps() {
  return {
      [](EveSystem* s) { return s->ExtendMkb(kExtraMisd); },
      [](EveSystem* s) { return s->RegisterViewText(AsiaCustomerSql()); },
      [](EveSystem* s) {
        return s->SetSourceMembership("ExtraIS",
                                      federation::MakeHealthy({}, 0));
      },
      [](EveSystem* s) { return s->SetSourceMembership("IS4", Is4Degraded()); },
      [](EveSystem* s) {
        return s->ApplyChange(CapabilityChange::DeleteRelation("RentACar"))
            .status();
      },
      [](EveSystem* s) { return s->RetractConstraint("JC6"); },
      [](EveSystem* s) { return s->DepartSource("StayIS").status(); },
      [](EveSystem* s) { return s->DepartSource("ExtraIS").status(); },
      // Point-in-time rollback to the version RetractConstraint committed
      // (v5: RentACar deleted, JC6 retracted, everything later restored).
      // Journaled as kRollback and committed as a NEW version, so a crash
      // on either side of the journal append recovers to pre or post.
      [](EveSystem* s) { return s->RollbackToVersion(5).status(); },
      [](EveSystem* s) {
        return s->SetSourceMembership(
            "IS4", federation::OnProbeSuccess(Is4Degraded(), "IS4", 9));
      },
      [](EveSystem* s) {
        return s->SetViewState("CustomerPassengersAsia",
                               ViewState::kDisabled);
      },
  };
}

EveSystem MakeBaseSystem() {
  EveSystem system(MakeTravelAgencyMkb().MoveValue());
  EXPECT_TRUE(system.RegisterViewText(CustomerPassengersAsiaSql()).ok());
  return system;
}

// Runs the script cleanly (no journal, no failpoints), recording the state
// after every ATOMIC durable step. `ranges[i]` is the inclusive range of
// state indices a crash inside op i may legally recover to: exactly the
// pre-op and post-op states. Every op is atomic — including DepartSource,
// whose multi-relation cascade commits as one batch.
void BuildCleanStates(EveSystem* system, std::vector<Snapshot>* states,
                      std::vector<std::pair<size_t, size_t>>* ranges) {
  states->push_back(Snap(*system));
  const std::vector<Op> ops = ScriptOps();
  for (size_t i = 0; i < ops.size(); ++i) {
    const size_t before = states->size() - 1;
    const Status status = ops[i](system);
    ASSERT_TRUE(status.ok()) << "clean op " << i << ": " << status;
    states->push_back(Snap(*system));
    ranges->push_back({before, states->size() - 1});
  }
}

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Failpoints::Instance().Reset();
    const std::string base =
        ::testing::TempDir() + "crash_recovery_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    checkpoint_path_ = base + ".ckpt";
    journal_path_ = base + ".wal";
    RemoveFiles();
  }
  void TearDown() override {
    Failpoints::Instance().Reset();
    RemoveFiles();
  }
  void RemoveFiles() {
    std::remove(checkpoint_path_.c_str());
    std::remove((checkpoint_path_ + ".tmp").c_str());
    std::remove(journal_path_.c_str());
  }

  // Checkpoints a fresh base system and reattaches a fresh journal.
  EveSystem StartJournaledRun(std::optional<Journal>* journal) {
    RemoveFiles();
    EveSystem system = MakeBaseSystem();
    EXPECT_TRUE(WriteCheckpoint(system, checkpoint_path_).ok());
    Result<Journal> opened = Journal::Open(journal_path_);
    EXPECT_TRUE(opened.ok()) << opened.status();
    *journal = opened.MoveValue();
    system.AttachJournal(&**journal);
    return system;
  }

  // After an op of a run that keeps going: the disk must describe `system`
  // both to recovery from the checkpoint and the WAL, and to a replica —
  // a replayer fed the WAL's records as they stand, without Finish(),
  // which must not be left inside a batch.
  void ExpectDiskMatchesMemory(const EveSystem& system,
                               const std::string& what) {
    SCOPED_TRACE(what);
    RecoveryReport report;
    const Result<EveSystem> recovered =
        RecoverFromFiles(checkpoint_path_, journal_path_, &report);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    EXPECT_TRUE(Snap(recovered.value()) == Snap(system))
        << "recovery disagrees with memory\n"
        << report.ToString();
    Result<EveSystem> replica =
        LoadCheckpoint(ReadFileToString(checkpoint_path_).MoveValue());
    ASSERT_TRUE(replica.ok()) << replica.status();
    const Result<JournalScan> scan = ReadJournal(journal_path_);
    ASSERT_TRUE(scan.ok()) << scan.status();
    JournalReplayer replayer;
    for (const JournalRecord& record : scan.value().records) {
      replayer.Apply(&replica.value(), record, nullptr);
    }
    EXPECT_FALSE(replayer.in_batch()) << "the journal ends inside a batch";
    EXPECT_TRUE(Snap(replica.value()) == Snap(system))
        << "a replica disagrees with memory";
  }

  // How often each site fires during one journaled run of the script.
  std::map<std::string, uint64_t> MeasureHits() {
    std::optional<Journal> journal;
    EveSystem system = StartJournaledRun(&journal);
    Failpoints::Instance().Reset();
    for (const Op& op : ScriptOps()) {
      EXPECT_TRUE(op(&system).ok());
    }
    std::map<std::string, uint64_t> hits;
    for (const std::string& site : Failpoints::KnownSites()) {
      hits[site] = Failpoints::Instance().HitCount(site);
    }
    Failpoints::Instance().Reset();
    return hits;
  }

  std::string checkpoint_path_;
  std::string journal_path_;
};

TEST_F(CrashRecoveryTest, CrashAtEverySiteRecoversToPreOrPostState) {
  std::vector<Snapshot> states;
  std::vector<std::pair<size_t, size_t>> ranges;
  {
    EveSystem clean = MakeBaseSystem();
    BuildCleanStates(&clean, &states, &ranges);
  }
  if (HasFailure()) return;
  const std::map<std::string, uint64_t> hits = MeasureHits();

  size_t crash_runs = 0;
  for (const std::string& site : Failpoints::KnownSites()) {
    for (uint64_t n = 1; n <= hits.at(site); ++n) {
      SCOPED_TRACE(site + " @ hit " + std::to_string(n));
      std::optional<Journal> journal;
      EveSystem system = StartJournaledRun(&journal);
      Failpoints::Instance().Reset();
      Failpoints::Instance().Arm(site, FailpointAction::kCrash,
                                 static_cast<int>(n));
      const std::vector<Op> ops = ScriptOps();
      size_t crashed_op = ops.size();
      for (size_t i = 0; i < ops.size(); ++i) {
        try {
          const Status status = ops[i](&system);
          ASSERT_TRUE(status.ok()) << "op " << i << ": " << status;
        } catch (const SimulatedCrash&) {
          crashed_op = i;
          break;
        }
      }
      Failpoints::Instance().Reset();
      ASSERT_LT(crashed_op, ops.size()) << "armed crash never fired";
      ++crash_runs;

      RecoveryReport report;
      Result<EveSystem> recovered =
          RecoverFromFiles(checkpoint_path_, journal_path_, &report);
      ASSERT_TRUE(recovered.ok()) << recovered.status();
      const Snapshot got = Snap(recovered.value());
      const auto [lo, hi] = ranges[crashed_op];
      bool matched = false;
      for (size_t s = lo; s <= hi && !matched; ++s) {
        matched = got == states[s];
      }
      EXPECT_TRUE(matched)
          << "recovered state after crashing op " << crashed_op
          << " is neither its pre- nor post-state\n"
          << report.ToString();

      // Restart the way eved does: the recovered system reopens the same
      // journal and runs the rest of the script.
      journal.reset();
      Result<Journal> reopened = Journal::Open(journal_path_);
      ASSERT_TRUE(reopened.ok()) << reopened.status();
      EveSystem restarted = recovered.MoveValue();
      restarted.AttachJournal(&reopened.value());
      for (size_t i = crashed_op + 1; i < ops.size(); ++i) {
        (void)ops[i](&restarted);
      }
      const Result<EveSystem> again =
          RecoverFromFiles(checkpoint_path_, journal_path_);
      ASSERT_TRUE(again.ok()) << again.status();
      EXPECT_TRUE(Snap(again.value()) == Snap(restarted))
          << "after the restarted run, recovery disagrees with memory";
    }
  }
  // The script must genuinely exercise the fault matrix.
  EXPECT_GE(crash_runs, 30u);
}

TEST_F(CrashRecoveryTest, InjectedErrorKeepsMemoryAndJournalInAgreement) {
  std::vector<Snapshot> states;
  std::vector<std::pair<size_t, size_t>> ranges;
  {
    EveSystem clean = MakeBaseSystem();
    BuildCleanStates(&clean, &states, &ranges);
  }
  if (HasFailure()) return;
  const std::map<std::string, uint64_t> hits = MeasureHits();

  for (const std::string& site : Failpoints::KnownSites()) {
    for (uint64_t n = 1; n <= hits.at(site); ++n) {
      SCOPED_TRACE(site + " @ hit " + std::to_string(n));
      std::optional<Journal> journal;
      EveSystem system = StartJournaledRun(&journal);
      Failpoints::Instance().Reset();
      Failpoints::Instance().Arm(site, FailpointAction::kError,
                                 static_cast<int>(n));
      const std::vector<Op> ops = ScriptOps();
      size_t failed_op = ops.size();
      for (size_t i = 0; i < ops.size(); ++i) {
        const Status status = ops[i](&system);
        if (!status.ok()) {
          EXPECT_NE(status.message().find("failpoint"), std::string::npos)
              << "unexpected real failure: " << status;
          failed_op = i;
          break;
        }
      }
      Failpoints::Instance().Reset();
      ASSERT_LT(failed_op, ops.size()) << "armed error never fired";

      // The surviving in-memory state must be the pre- or post-state of the
      // failed op...
      const Snapshot live = Snap(system);
      const auto [lo, hi] = ranges[failed_op];
      bool matched = false;
      for (size_t s = lo; s <= hi && !matched; ++s) {
        matched = live == states[s];
      }
      EXPECT_TRUE(matched) << "live state after failing op " << failed_op
                           << " is neither its pre- nor post-state";
      // ...and the journal must describe exactly that state (write-ahead
      // invariant: memory never runs ahead of or behind the disk), also
      // after every later op of the run, which keeps the journal attached.
      // A later op may fail for real; memory and disk must still agree.
      ExpectDiskMatchesMemory(system, "after the failed op " +
                                          std::to_string(failed_op));
      for (size_t i = failed_op + 1; i < ops.size(); ++i) {
        (void)ops[i](&system);
        ExpectDiskMatchesMemory(system, "after op " + std::to_string(i));
      }
    }
  }
}

TEST_F(CrashRecoveryTest, TornFinalRecordRecoversToLastCompleteRecord) {
  std::optional<Journal> journal;
  EveSystem system = StartJournaledRun(&journal);
  ASSERT_TRUE(
      system.ApplyChange(CapabilityChange::DeleteRelation("RentACar")).ok());
  const Snapshot after_first = Snap(system);

  // Crash halfway through writing the next record's frame.
  Failpoints::Instance().Arm(fp::kJournalAppendPartialWrite,
                             FailpointAction::kCrash);
  EXPECT_THROW(
      (void)system.ApplyChange(CapabilityChange::DeleteRelation("Hotels")),
      SimulatedCrash);
  Failpoints::Instance().Reset();

  RecoveryReport report;
  const Result<EveSystem> recovered =
      RecoverFromFiles(checkpoint_path_, journal_path_, &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_TRUE(report.torn_tail);
  EXPECT_TRUE(Snap(recovered.value()) == after_first)
      << "torn tail must be dropped, recovering to the last complete record";
}

TEST_F(CrashRecoveryTest, CrashDuringCheckpointKeepsOldCheckpointUsable) {
  for (const char* site :
       {fp::kAtomicWriteAfterTemp, fp::kAtomicWriteBeforeRename}) {
    SCOPED_TRACE(site);
    std::optional<Journal> journal;
    EveSystem system = StartJournaledRun(&journal);
    ASSERT_TRUE(
        system.ApplyChange(CapabilityChange::DeleteRelation("RentACar"))
            .ok());
    const Snapshot after_change = Snap(system);

    // Crash inside the atomic rewrite of the checkpoint: the old checkpoint
    // file must survive untouched, and checkpoint + journal still recover
    // the post-change state.
    Failpoints::Instance().Arm(site, FailpointAction::kCrash);
    EXPECT_THROW((void)WriteCheckpoint(system, checkpoint_path_),
                 SimulatedCrash);
    Failpoints::Instance().Reset();

    const Result<EveSystem> recovered =
        RecoverFromFiles(checkpoint_path_, journal_path_);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    EXPECT_TRUE(Snap(recovered.value()) == after_change);

    // The error action must leave the destination untouched as well.
    const std::string before_bytes =
        ReadFileToString(checkpoint_path_).MoveValue();
    Failpoints::Instance().Arm(site, FailpointAction::kError);
    EXPECT_FALSE(WriteCheckpoint(system, checkpoint_path_).ok());
    Failpoints::Instance().Reset();
    EXPECT_EQ(ReadFileToString(checkpoint_path_).MoveValue(), before_bytes);
  }
}

TEST_F(CrashRecoveryTest, RecoveryItselfSurvivesInjectedLoadFaults) {
  std::optional<Journal> journal;
  EveSystem system = StartJournaledRun(&journal);
  ASSERT_TRUE(system.RegisterViewText(AsiaCustomerSql()).ok());
  ASSERT_TRUE(
      system.ApplyChange(CapabilityChange::DeleteRelation("RentACar")).ok());
  const Snapshot expected = Snap(system);

  for (const char* site :
       {fp::kCheckpointLoadValidate, fp::kViewPoolLoadValidate}) {
    SCOPED_TRACE(site);
    // Injected error: recovery reports it and changes nothing on disk.
    Failpoints::Instance().Arm(site, FailpointAction::kError);
    EXPECT_FALSE(RecoverFromFiles(checkpoint_path_, journal_path_).ok());
    Failpoints::Instance().Reset();
    // Crash during recovery: recovery is read-only, so simply retry.
    Failpoints::Instance().Arm(site, FailpointAction::kCrash);
    EXPECT_THROW((void)RecoverFromFiles(checkpoint_path_, journal_path_),
                 SimulatedCrash);
    Failpoints::Instance().Reset();
    const Result<EveSystem> retried =
        RecoverFromFiles(checkpoint_path_, journal_path_);
    ASSERT_TRUE(retried.ok()) << retried.status();
    EXPECT_TRUE(Snap(retried.value()) == expected);
  }
}

TEST_F(CrashRecoveryTest, CheckpointResetsJournalAndRecoveryStillAgrees) {
  std::optional<Journal> journal;
  EveSystem system = StartJournaledRun(&journal);
  ASSERT_TRUE(
      system.ApplyChange(CapabilityChange::DeleteRelation("RentACar")).ok());
  // Checkpoint subsumes the journal so far.
  ASSERT_TRUE(WriteCheckpoint(system, checkpoint_path_).ok());
  ASSERT_TRUE(journal->Reset().ok());
  ASSERT_TRUE(
      system.ApplyChange(CapabilityChange::DeleteRelation("Hotels")).ok());

  const Result<EveSystem> recovered =
      RecoverFromFiles(checkpoint_path_, journal_path_);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_TRUE(Snap(recovered.value()) == Snap(system));
}

// --- The one-fsync commit: kApplyChange + kVersionCommit in one write -----

// Little-endian u32 at `offset` of `bytes` (the journal frame length).
uint32_t FrameLength(const std::string& bytes, size_t offset) {
  uint32_t value = 0;
  for (int i = 3; i >= 0; --i) {
    value = (value << 8) | static_cast<uint8_t>(bytes[offset + i]);
  }
  return value;
}

// A change that rewrites the base system's registered view.
CapabilityChange CommitUnderTest() {
  return CapabilityChange::RenameRelation("Customer", "Client");
}

TEST_F(CrashRecoveryTest, CommitWritesBothRecordsWithOneFsync) {
  std::optional<Journal> journal;
  EveSystem system = StartJournaledRun(&journal);
  Failpoints::Instance().Reset();
  ASSERT_TRUE(system.ApplyChange(CommitUnderTest()).ok());
  EXPECT_EQ(Failpoints::Instance().HitCount(fp::kJournalAppendBeforeWrite), 1u);
  EXPECT_EQ(Failpoints::Instance().HitCount(fp::kJournalAppendBeforeFsync), 1u);
  const Result<JournalScan> scan = ReadJournal(journal_path_);
  ASSERT_TRUE(scan.ok()) << scan.status();
  ASSERT_EQ(scan.value().records.size(), 2u);
  EXPECT_EQ(scan.value().records[0].kind, JournalRecordKind::kApplyChange);
  EXPECT_EQ(scan.value().records[1].kind, JournalRecordKind::kVersionCommit);
  EXPECT_EQ(scan.value().records[1].body,
            std::to_string(system.current_version()));
}

TEST_F(CrashRecoveryTest, JournalCutInsideTheCommitRecoversToPreOrPost) {
  std::optional<Journal> journal;
  EveSystem system = StartJournaledRun(&journal);
  const Snapshot pre = Snap(system);
  const size_t pre_length = ReadFileToString(journal_path_).MoveValue().size();
  ASSERT_TRUE(system.ApplyChange(CommitUnderTest()).ok());
  const Snapshot post = Snap(system);
  ASSERT_FALSE(post == pre);
  const std::string bytes = ReadFileToString(journal_path_).MoveValue();
  const size_t first_end = pre_length + 8 + FrameLength(bytes, pre_length);
  ASSERT_LT(first_end, bytes.size());

  const std::string cut_path = journal_path_ + ".cut";
  for (size_t cut = pre_length + 1; cut < bytes.size(); ++cut) {
    SCOPED_TRACE("journal cut at byte " + std::to_string(cut) + " of " +
                 std::to_string(bytes.size()));
    ASSERT_TRUE(AtomicWriteFile(cut_path, bytes.substr(0, cut)).ok());
    RecoveryReport report;
    const Result<EveSystem> recovered =
        RecoverFromFiles(checkpoint_path_, cut_path, &report);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    EXPECT_TRUE(report.torn_tail || cut == first_end);
    // Cut inside the first frame: the change never reached disk. From the
    // end of the first frame on, the change replays; the torn (or missing)
    // version marker is validation only.
    const Snapshot& expected = cut < first_end ? pre : post;
    EXPECT_TRUE(Snap(recovered.value()) == expected)
        << (cut < first_end ? "expected the pre-state"
                            : "expected the post-state");
  }
  std::remove(cut_path.c_str());
}

TEST_F(CrashRecoveryTest, ReportedCommitFailureKeepsNeitherRecord) {
  for (const char* site :
       {fp::kJournalAppendBeforeWrite, fp::kJournalAppendPartialWrite,
        fp::kJournalAppendBeforeFsync}) {
    SCOPED_TRACE(site);
    std::optional<Journal> journal;
    EveSystem system = StartJournaledRun(&journal);
    const Snapshot pre = Snap(system);
    const uint64_t pre_version = system.current_version();
    const std::string pre_bytes = ReadFileToString(journal_path_).MoveValue();
    Failpoints::Instance().Arm(site, FailpointAction::kError);
    const Result<ChangeReport> failed = system.ApplyChange(CommitUnderTest());
    Failpoints::Instance().Reset();
    ASSERT_FALSE(failed.ok());
    EXPECT_NE(failed.status().message().find("failpoint"), std::string::npos)
        << failed.status();
    // The journal is cut back to its pre-commit length and memory holds the
    // pre-state: no version, no log entry, no rewritten view.
    EXPECT_EQ(ReadFileToString(journal_path_).MoveValue(), pre_bytes);
    EXPECT_TRUE(Snap(system) == pre);
    EXPECT_EQ(system.current_version(), pre_version);
    const Result<EveSystem> recovered =
        RecoverFromFiles(checkpoint_path_, journal_path_);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    EXPECT_TRUE(Snap(recovered.value()) == pre);
    // The journal stays usable: the retry commits and recovers.
    ASSERT_TRUE(system.ApplyChange(CommitUnderTest()).ok());
    const Result<EveSystem> after_retry =
        RecoverFromFiles(checkpoint_path_, journal_path_);
    ASSERT_TRUE(after_retry.ok()) << after_retry.status();
    EXPECT_TRUE(Snap(after_retry.value()) == Snap(system));
  }
}

// Every site in the catalog is exercised by this suite: either it fires
// during the script runs above, or a dedicated test covers it.
TEST_F(CrashRecoveryTest, EveryKnownSiteIsExercised) {
  std::vector<Snapshot> states;
  std::vector<std::pair<size_t, size_t>> ranges;
  {
    EveSystem clean = MakeBaseSystem();
    BuildCleanStates(&clean, &states, &ranges);
  }
  if (HasFailure()) return;
  const std::map<std::string, uint64_t> hits = MeasureHits();

  const std::set<std::string> dedicated = {
      fp::kAtomicWriteAfterTemp,    // CrashDuringCheckpoint...
      fp::kAtomicWriteBeforeRename,
      fp::kCheckpointLoadValidate,  // RecoveryItselfSurvives...
      fp::kViewPoolLoadValidate,
      // Transport sites need a probe in flight; federation_test drives them
      // (TransportFailpoints*) through FederationMonitor.
      fp::kFederationProbeSend,
      fp::kFederationProbeTimeout,
      fp::kFederationProbeSlow,
      fp::kFederationProbeCorrupt,
      fp::kFederationProbeFlap,
      // The script's deletions affect no registered view, so the per-view
      // fan-out and the admission queue never run here; admission_test
      // (AdmissionFailpointTest*) arms each of these in both modes.
      fp::kSyncViewStart,
      fp::kSyncDeadlineExpired,
      fp::kAdmissionEnqueue,
      fp::kAdmissionDrain,
      // The script never scrubs; versioning_test (ScrubFailpoint*) arms the
      // scrub site in both modes.
      fp::kVersionScrub,
      // The network front end only exists inside eved; net_server_test
      // (ServerFailpoint*) arms each site in error mode against a live
      // server, and the eved crash/RECOVER shell test covers crash mode.
      fp::kNetAccept,
      fp::kNetSessionStart,
      fp::kNetFrameRead,
      fp::kNetFrameWrite,
      fp::kNetDrain,
      fp::kNetShutdown,
      // Replication sites only fire inside a clustered eved;
      // replication_test (ReplicationFailpoint*) arms them against live
      // in-process nodes, and bench_repl's chaos matrix covers crash mode
      // across real processes.
      fp::kReplHello,
      fp::kReplSnapshotRender,
      fp::kReplShipRecord,
      fp::kReplApplyRecord,
      fp::kReplAckSend,
      fp::kReplPromote,
  };
  for (const std::string& site : Failpoints::KnownSites()) {
    if (dedicated.count(site) > 0) continue;
    EXPECT_GT(hits.at(site), 0u)
        << "site " << site << " is never hit by the scenario script; "
        << "extend ScriptOps so its crash/error behavior is tested";
  }
}

}  // namespace
}  // namespace eve
