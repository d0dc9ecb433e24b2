// Versioned-MKB invariants: copy-on-write segment sharing, O(1) pinned
// snapshots that survive concurrent commits, what-if dry-runs that match the
// real commit byte for byte while mutating nothing, rollback-as-new-version,
// checkpoint VERSIONS round-trips where every flipped byte is detected, the
// scrub catching 100% of injected corruptions, and the per-commit oracle
// of the bucketed VIEWS segment:
// every commit's view text is the live pool's, and only the buckets of
// views it changed hold new segments. Version nodes hold their buckets in
// shared chunks: a commit copies only the chunks it changed, and the
// chunked version checksum equals the whole-run one of
// tests/legacy_version_crc.h.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/failpoint.h"
#include "common/file_io.h"
#include "eve/eve_system.h"
#include "eve/journal.h"
#include "eve/view_pool_io.h"
#include "federation/membership.h"
#include "legacy_version_crc.h"
#include "mkb/serializer.h"
#include "mkb/version_store.h"
#include "pool_snapshot.h"
#include "workload/generator.h"
#include "workload/travel_agency.h"

namespace eve {
namespace {

EveSystem MakeSystem() {
  Mkb mkb = MakeTravelAgencyMkb().MoveValue();
  EXPECT_TRUE(AddAccidentInsPc(&mkb).ok());
  EveSystem system(std::move(mkb));
  EXPECT_TRUE(system.RegisterViewText(CustomerPassengersAsiaSql()).ok());
  return system;
}

// Two more views over the travel-agency MKB, so chains built from
// MakeSystem span several VIEWS buckets, shared and re-rendered.
constexpr char kAsiaToursSql[] =
    "CREATE VIEW AsiaTours (VE = ~) AS SELECT P.Participant (true, true), "
    "P.TourID (true, true) FROM Participant P (true, true) "
    "WHERE (P.Loc = 'Asia') (false, true)";
constexpr char kRentalsSql[] =
    "CREATE VIEW Rentals (VE = ~) AS SELECT R.Company (true, true) "
    "FROM RentACar R (true, true)";

EveSystem MakeBucketedSystem() {
  EveSystem system = MakeSystem();
  EXPECT_TRUE(system.RegisterViewText(kAsiaToursSql).ok());
  EXPECT_TRUE(system.RegisterViewText(kRentalsSql).ok());
  return system;
}

// Full observable state, for zero-side-effect assertions.
std::string StateOf(const EveSystem& system) {
  return SaveMkb(system.mkb()) + "\n===\n" + SaveViews(system) + "\n===\n" +
         system.versions().Render();
}

class VersioningTest : public ::testing::Test {
 protected:
  void SetUp() override { Failpoints::Instance().Reset(); }
  void TearDown() override { Failpoints::Instance().Reset(); }
};

TEST_F(VersioningTest, EveryMutationCommitsAVersion) {
  EveSystem system = MakeSystem();
  // ctor = v0, RegisterViewText = v1.
  EXPECT_EQ(system.current_version(), 1u);
  ASSERT_TRUE(
      system.ExtendMkb("SOURCE IS9 RELATION Extra9 (Name string, X int)")
          .ok());
  EXPECT_EQ(system.current_version(), 2u);
  ASSERT_TRUE(
      system.ApplyChange(CapabilityChange::DeleteRelation("Extra9")).ok());
  EXPECT_EQ(system.current_version(), 3u);
  ASSERT_TRUE(system.RetractConstraint("JC6").ok());
  EXPECT_EQ(system.current_version(), 4u);
  ASSERT_TRUE(
      system.SetViewState("CustomerPassengersAsia", ViewState::kDisabled)
          .ok());
  EXPECT_EQ(system.current_version(), 5u);
  EXPECT_EQ(system.versions().NumVersions(), 6u);
}

TEST_F(VersioningTest, UnchangedSegmentsAreSharedNotCopied) {
  EveSystem system = MakeSystem();
  // A view-state flip touches only the VIEWS segment; the four MISD
  // segments must be shared with the parent, not re-rendered copies.
  ASSERT_TRUE(
      system.SetViewState("CustomerPassengersAsia", ViewState::kDisabled)
          .ok());
  const VersionScrubStats stats = system.ScrubVersions();
  EXPECT_EQ(stats.corruptions, 0u) << stats.ToString();
  EXPECT_GE(stats.segments_shared, 4u) << stats.ToString();
  const VersionByteStats bytes = system.versions().ByteStats();
  EXPECT_LT(bytes.retained_bytes, bytes.logical_bytes);
}

TEST_F(VersioningTest, PinnedTipSurvivesConcurrentEvolution) {
  EveSystem system = MakeSystem();
  const PinnedMkb pinned = system.PinTip();
  const std::string before = SaveMkb(*pinned.mkb);
  const uint64_t pinned_id = pinned.id();
  ASSERT_TRUE(
      system.ApplyChange(CapabilityChange::DeleteRelation("RentACar")).ok());
  ASSERT_TRUE(system.RetractConstraint("JC6").ok());
  // The pin is byte-stable: commits swapped the tip pointer, they never
  // mutated the pinned snapshot.
  EXPECT_EQ(SaveMkb(*pinned.mkb), before);
  EXPECT_EQ(pinned.id(), pinned_id);
  EXPECT_GT(system.current_version(), pinned_id);
  // And re-pinning the old id reparses to the same bytes.
  const Result<PinnedMkb> repinned = system.PinVersion(pinned_id);
  ASSERT_TRUE(repinned.ok()) << repinned.status();
  EXPECT_EQ(SaveMkb(*repinned.value().mkb), before);
}

TEST_F(VersioningTest, DryRunMatchesCommitAndMutatesNothing) {
  EveSystem system = MakeSystem();
  const std::string before = StateOf(system);

  const Result<DryRunReport> dry =
      system.DryRunChange(CapabilityChange::DeleteRelation("Customer"));
  ASSERT_TRUE(dry.ok()) << dry.status();
  EXPECT_EQ(dry.value().base_version, system.current_version());

  // Zero side effects: MKB, views and version chain are byte-unchanged.
  EXPECT_EQ(StateOf(system), before);

  // The real commit produces the identical report.
  const Result<ChangeReport> applied =
      system.ApplyChange(CapabilityChange::DeleteRelation("Customer"));
  ASSERT_TRUE(applied.ok()) << applied.status();
  EXPECT_EQ(dry.value().report.ToString(), applied.value().ToString());
  EXPECT_NE(StateOf(system), before);
}

TEST_F(VersioningTest, DryRunAppendsNothingToTheJournal) {
  const std::string base = ::testing::TempDir() + "versioning_dryrun";
  const std::string journal_path = base + ".wal";
  std::remove(journal_path.c_str());
  Result<Journal> journal = Journal::Open(journal_path);
  ASSERT_TRUE(journal.ok()) << journal.status();
  EveSystem system = MakeSystem();
  system.AttachJournal(&journal.value());
  ASSERT_TRUE(
      system.ApplyChange(CapabilityChange::DeleteRelation("RentACar")).ok());
  const std::string bytes_before =
      ReadFileToString(journal_path).MoveValue();

  const Result<DryRunReport> dry =
      system.DryRunChange(CapabilityChange::DeleteRelation("Customer"));
  ASSERT_TRUE(dry.ok()) << dry.status();
  const Result<DryRunReport> dry_at =
      system.DryRunChangeAt(CapabilityChange::DeleteRelation("Customer"),
                            /*version=*/1);
  ASSERT_TRUE(dry_at.ok()) << dry_at.status();

  system.AttachJournal(nullptr);
  EXPECT_EQ(ReadFileToString(journal_path).MoveValue(), bytes_before)
      << "a dry-run must not journal anything";
  std::remove(journal_path.c_str());
}

TEST_F(VersioningTest, DryRunAtOldVersionMatchesRollbackThenCommit) {
  EveSystem system = MakeSystem();
  const uint64_t before_delete = system.current_version();
  ASSERT_TRUE(
      system.ApplyChange(CapabilityChange::DeleteRelation("RentACar")).ok());

  const CapabilityChange change = CapabilityChange::DeleteRelation("Customer");
  const Result<DryRunReport> dry =
      system.DryRunChangeAt(change, before_delete);
  ASSERT_TRUE(dry.ok()) << dry.status();
  EXPECT_EQ(dry.value().base_version, before_delete);

  // Rehearsal equals reality: rollback + commit on a copy produces the
  // same report bytes.
  EveSystem replica = system;
  ASSERT_TRUE(replica.RollbackToVersion(before_delete).ok());
  const Result<ChangeReport> applied = replica.ApplyChange(change);
  ASSERT_TRUE(applied.ok()) << applied.status();
  EXPECT_EQ(dry.value().report.ToString(), applied.value().ToString());
  // And the dry-run left the original untouched.
  EXPECT_NE(StateOf(system), StateOf(replica));
}

TEST_F(VersioningTest, RollbackCommitsANewVersionAndKeepsHistory) {
  EveSystem system = MakeSystem();
  const uint64_t target = system.current_version();
  const std::string mkb_at_target = SaveMkb(system.mkb());
  const std::string views_at_target = SaveViews(system);

  ASSERT_TRUE(
      system.ApplyChange(CapabilityChange::DeleteRelation("Customer")).ok());
  const uint64_t after_change = system.current_version();
  EXPECT_NE(SaveMkb(system.mkb()), mkb_at_target);

  const Result<uint64_t> rolled = system.RollbackToVersion(target);
  ASSERT_TRUE(rolled.ok()) << rolled.status();
  EXPECT_EQ(rolled.value(), after_change + 1);
  EXPECT_EQ(system.current_version(), after_change + 1);
  // Content restored...
  EXPECT_EQ(SaveMkb(system.mkb()), mkb_at_target);
  // ...history never truncated: the rolled-past version stays pinnable.
  ASSERT_TRUE(system.PinVersion(after_change).ok());
  EXPECT_EQ(system.versions().NumVersions(), after_change + 2);
  // The surviving view kept its pre-rollback history plus a marker.
  const RegisteredView* view =
      system.GetView("CustomerPassengersAsia").value();
  ASSERT_FALSE(view->history.empty());
  EXPECT_NE(view->history.back().find("rolled back to version"),
            std::string::npos);
  // The view pool content matches the target version (modulo the
  // synced_at stamps, which name live versions).
  ASSERT_TRUE(system.ViewsTextAt(target).ok());
  EXPECT_EQ(views_at_target, system.ViewsTextAt(target).value());
}

TEST_F(VersioningTest, ARollbackCanItselfBeRolledBack) {
  EveSystem system = MakeSystem();
  ASSERT_TRUE(
      system.ApplyChange(CapabilityChange::DeleteRelation("Customer")).ok());
  const uint64_t with_change = system.current_version();
  const std::string mkb_with_change = SaveMkb(system.mkb());

  ASSERT_TRUE(system.RollbackToVersion(1).ok());
  EXPECT_NE(SaveMkb(system.mkb()), mkb_with_change);
  // Roll forward again by rolling back to the rolled-past version.
  ASSERT_TRUE(system.RollbackToVersion(with_change).ok());
  EXPECT_EQ(SaveMkb(system.mkb()), mkb_with_change);
  const VersionScrubStats stats = system.ScrubVersions();
  EXPECT_EQ(stats.corruptions, 0u) << stats.ToString();
}

TEST_F(VersioningTest, RollbackToUnknownVersionIsAnError) {
  EveSystem system = MakeSystem();
  const std::string before = StateOf(system);
  EXPECT_EQ(system.RollbackToVersion(99).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(StateOf(system), before);
}

TEST_F(VersioningTest, SerializeDeserializeRoundTrips) {
  EveSystem system = MakeSystem();
  ASSERT_TRUE(
      system.ApplyChange(CapabilityChange::DeleteRelation("RentACar")).ok());
  ASSERT_TRUE(system.RollbackToVersion(1).ok());

  const std::string text = system.versions().Serialize();
  const Result<MkbVersionStore> loaded = MkbVersionStore::Deserialize(text);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded.value().Render(), system.versions().Render());
  EXPECT_EQ(loaded.value().Serialize(), text);
  EXPECT_EQ(SaveMkb(*loaded.value().Tip().mkb), SaveMkb(system.mkb()));
  const VersionScrubStats stats = loaded.value().Scrub();
  EXPECT_EQ(stats.corruptions, 0u) << stats.ToString();
}

// Satellite (b): every single flipped byte in the serialized VERSIONS text
// is detected — either the load fails outright or the loaded chain scrubs
// dirty. No silent corruption.
TEST_F(VersioningTest, EveryFlippedSerializedByteIsDetected) {
  // Three views in three buckets; the delete re-renders one bucket and
  // shares the other two.
  EveSystem system = MakeBucketedSystem();
  ASSERT_TRUE(
      system.ApplyChange(CapabilityChange::DeleteRelation("RentACar")).ok());
  const std::string text = system.versions().Serialize();
  ASSERT_FALSE(text.empty());

  size_t undetected = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    std::string mutated = text;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x01);
    const Result<MkbVersionStore> loaded =
        MkbVersionStore::Deserialize(mutated);
    if (!loaded.ok()) continue;  // detected at load
    if (loaded.value().Scrub().corruptions > 0) continue;  // detected by scrub
    ++undetected;
    ADD_FAILURE() << "flip at byte " << i << " (" << text[i]
                  << ") survived both load and scrub";
  }
  EXPECT_EQ(undetected, 0u);
}

// The scrub finds every injected segment corruption: any version, any
// segment.
TEST_F(VersioningTest, ScrubDetectsEveryInjectedSegmentCorruption) {
  EveSystem system = MakeBucketedSystem();
  ASSERT_TRUE(
      system.ExtendMkb("SOURCE IS9 RELATION Extra9 (Name string, X int)")
          .ok());
  ASSERT_TRUE(
      system.ApplyChange(CapabilityChange::DeleteRelation("Extra9")).ok());

  const uint64_t versions = system.versions().NumVersions();
  ASSERT_GE(versions, 4u);
  for (uint64_t id = 0; id < versions; ++id) {
    for (size_t segment = 0; segment < kNumVersionSegments; ++segment) {
      MkbVersionStore corrupted = system.versions();
      if (!corrupted.CorruptSegmentForTesting(id, segment,
                                              /*byte_offset=*/0)) {
        continue;  // empty segment body: nothing to flip
      }
      const VersionScrubStats stats = corrupted.Scrub();
      EXPECT_GT(stats.corruptions, 0u)
          << "corruption in version " << id << " segment " << segment
          << " went undetected";
    }
  }
  // The shared original is untouched throughout.
  EXPECT_EQ(system.ScrubVersions().corruptions, 0u);
}

TEST_F(VersioningTest, ScrubChecksViewSyncStamps) {
  EveSystem system = MakeSystem();
  EXPECT_EQ(system.ScrubVersions().corruptions, 0u);
  // A stamp naming a version that was never committed is an integrity
  // finding.
  std::vector<RegisteredView> pool =
      ParseViewPool(SaveViews(system), system.mkb().catalog()).MoveValue();
  ASSERT_EQ(pool.front().definition.name(), "CustomerPassengersAsia");
  pool.front().synced_at_version = 77;
  system.RestoreViews(std::move(pool));
  const VersionScrubStats stats = system.ScrubVersions();
  EXPECT_GT(stats.corruptions, 0u);
  ASSERT_FALSE(stats.findings.empty());
  EXPECT_NE(stats.findings.back().find("CustomerPassengersAsia"),
            std::string::npos);
}

// crash_recovery_test's site-coverage check points here: the scrub site is
// armed in BOTH modes by the two ScrubFailpoint tests below.
TEST_F(VersioningTest, ScrubFailpointErrorIsCountedAsAFinding) {
  EveSystem system = MakeSystem();
  Failpoints::Instance().Arm(fp::kVersionScrub, FailpointAction::kError);
  const VersionScrubStats stats = system.ScrubVersions();
  Failpoints::Instance().Reset();
  EXPECT_GT(stats.corruptions, 0u);
  ASSERT_FALSE(stats.findings.empty());
  EXPECT_NE(stats.findings.front().find("injected fault"),
            std::string::npos);
  // The chain itself is untouched: a clean pass follows.
  EXPECT_EQ(system.ScrubVersions().corruptions, 0u);
}

TEST_F(VersioningTest, ScrubFailpointCrashKillsThePassAndRetrySucceeds) {
  EveSystem system = MakeSystem();
  Failpoints::Instance().Arm(fp::kVersionScrub, FailpointAction::kCrash);
  EXPECT_THROW((void)system.ScrubVersions(), SimulatedCrash);
  Failpoints::Instance().Reset();
  // Scrubbing is read-only: the killed pass left nothing behind.
  const VersionScrubStats stats = system.ScrubVersions();
  EXPECT_EQ(stats.corruptions, 0u) << stats.ToString();
}

// Versioning survives the durability cycle: checkpoint + journal replay
// rebuild the same chain, and RECOVER reports torn-tail bytes.
TEST_F(VersioningTest, RecoveryRestoresTheVersionChain) {
  const std::string base = ::testing::TempDir() + "versioning_recover";
  const std::string checkpoint_path = base + ".ckpt";
  const std::string journal_path = base + ".wal";
  std::remove(checkpoint_path.c_str());
  std::remove(journal_path.c_str());

  EveSystem system = MakeSystem();
  ASSERT_TRUE(WriteCheckpoint(system, checkpoint_path).ok());
  Result<Journal> journal = Journal::Open(journal_path);
  ASSERT_TRUE(journal.ok()) << journal.status();
  system.AttachJournal(&journal.value());
  ASSERT_TRUE(
      system.ApplyChange(CapabilityChange::DeleteRelation("Customer")).ok());
  ASSERT_TRUE(system.RollbackToVersion(1).ok());
  system.AttachJournal(nullptr);

  const Result<EveSystem> recovered =
      RecoverFromFiles(checkpoint_path, journal_path);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered.value().versions().Render(), system.versions().Render());
  EXPECT_EQ(recovered.value().current_version(), system.current_version());
  EXPECT_EQ(SaveMkb(recovered.value().mkb()), SaveMkb(system.mkb()));
  EXPECT_EQ(recovered.value().ScrubVersions().corruptions, 0u);

  std::remove(checkpoint_path.c_str());
  std::remove(journal_path.c_str());
}

TEST_F(VersioningTest, ParentFormatVersionsSectionIsRejectedClearly) {
  // A chain written with one unsplit VIEWS segment per version has no
  // BUCKETS header and five segment references per version.
  const std::string old_format =
      "SEGMENT 0 RELATIONS 0 0\n\nVERSION 0 0 0 SEGS 0 0 0 0 0 CHANGE x\n";
  const Result<MkbVersionStore> loaded =
      MkbVersionStore::Deserialize(old_format);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("BUCKETS"), std::string::npos)
      << loaded.status();
}

// A commit that re-renders one bucket shares the four MISD segments and
// every bucket chunk but the one holding that bucket with its parent.
TEST_F(VersioningTest, OneBucketCommitCopiesOneChunk) {
  EveSystem system = MakeBucketedSystem();
  const PinnedMkb before = system.PinTip();
  ASSERT_TRUE(system.SetViewState("Rentals", ViewState::kDisabled).ok());
  const PinnedMkb after = system.PinTip();
  ASSERT_EQ(after.id(), before.id() + 1);
  for (size_t i = 0; i < kNumMkbSegments; ++i) {
    EXPECT_EQ(after.version->misd[i], before.version->misd[i]) << i;
  }
  size_t shared = 0;
  for (size_t c = 0; c < kBucketChunks; ++c) {
    if (after.version->chunks[c] == before.version->chunks[c]) ++shared;
  }
  EXPECT_EQ(shared, kBucketChunks - 1);
  const size_t bucket = ViewBucketOf("Rentals");
  EXPECT_NE(after.version->chunks[bucket / kChunkBuckets],
            before.version->chunks[bucket / kChunkBuckets]);
  EXPECT_NE(&after.version->view_bucket(bucket),
            &before.version->view_bucket(bucket));
}

// A flipped chunk checksum is a finding of the one version holding the
// flipped copy, never of the versions sharing the original chunk.
TEST_F(VersioningTest, ScrubFlagsAFlippedChunkChecksum) {
  EveSystem system = MakeBucketedSystem();
  ASSERT_TRUE(
      system.ApplyChange(CapabilityChange::DeleteRelation("RentACar")).ok());
  const uint64_t versions = system.versions().NumVersions();
  for (uint64_t id = 0; id < versions; ++id) {
    for (const size_t chunk : {size_t{0}, ViewBucketOf("Rentals") /
                                              kChunkBuckets,
                               kBucketChunks - 1}) {
      MkbVersionStore corrupted = system.versions();
      ASSERT_TRUE(corrupted.CorruptChunkCrcForTesting(id, chunk));
      const VersionScrubStats stats = corrupted.Scrub();
      const std::string version = "version " + std::to_string(id) + " ";
      EXPECT_EQ(stats.corruptions, 2u) << stats.ToString();
      ASSERT_EQ(stats.findings.size(), 2u) << stats.ToString();
      EXPECT_EQ(stats.findings[0], version + "bucket chunk " +
                                       std::to_string(chunk) +
                                       " fails its checksum");
      EXPECT_EQ(stats.findings[1], version + "fails its version checksum");
    }
  }
  MkbVersionStore store = system.versions();
  EXPECT_FALSE(store.CorruptChunkCrcForTesting(versions, 0));
  EXPECT_FALSE(store.CorruptChunkCrcForTesting(0, kBucketChunks));
  EXPECT_EQ(system.ScrubVersions().corruptions, 0u);
}

// Corrupting a bucket copies its chunk into one version: only that
// version's findings appear, every other node is the original one, and the
// corrupted node still shares its other chunks and MISD segments.
TEST_F(VersioningTest, BucketCorruptionReachesExactlyOneVersion) {
  EveSystem system = MakeBucketedSystem();
  ASSERT_TRUE(
      system.ApplyChange(CapabilityChange::DeleteRelation("RentACar")).ok());
  const std::vector<std::shared_ptr<const MkbVersion>> originals =
      system.versions().Versions();
  for (const char* view : {"CustomerPassengersAsia", "AsiaTours", "Rentals"}) {
    const size_t bucket = ViewBucketOf(view);
    for (uint64_t id = 0; id < originals.size(); ++id) {
      SCOPED_TRACE(std::string(view) + " in version " + std::to_string(id));
      MkbVersionStore corrupted = system.versions();
      if (!corrupted.CorruptSegmentForTesting(id, kNumMkbSegments + bucket,
                                              /*byte_offset=*/0)) {
        EXPECT_TRUE(originals[id]->view_bucket(bucket).body.empty());
        continue;
      }
      const VersionScrubStats stats = corrupted.Scrub();
      ASSERT_EQ(stats.corruptions, 1u) << stats.ToString();
      EXPECT_EQ(stats.findings[0].rfind("version " + std::to_string(id) +
                                            " bucket " +
                                            std::to_string(bucket) + " ",
                                        0),
                0u)
          << stats.findings[0];
      const std::vector<std::shared_ptr<const MkbVersion>> chain =
          corrupted.Versions();
      for (uint64_t other = 0; other < chain.size(); ++other) {
        if (other != id) {
          EXPECT_EQ(chain[other], originals[other]) << other;
        }
      }
      const MkbVersion& victim = *chain[id];
      EXPECT_EQ(victim.misd, originals[id]->misd);
      for (size_t c = 0; c < kBucketChunks; ++c) {
        EXPECT_EQ(victim.chunks[c] == originals[id]->chunks[c],
                  c != bucket / kChunkBuckets)
            << c;
      }
    }
  }
  EXPECT_EQ(system.ScrubVersions().corruptions, 0u);
}

// Re-enabling a view re-binds it against the current MKB. A view disabled
// across a rename of an attribute it reads does not bind any more, so
// re-enabling it fails with the binder's error, journals and commits
// nothing and leaves the view disabled; it used to come back active with a
// dead reference, and a rollback to the version that re-enable committed
// failed. Journal replay of the sequence lands on the same state.
TEST_F(VersioningTest, ReEnablingAStaleViewFailsAndLeavesItDisabled) {
  ChainMkbSpec spec;
  spec.length = 8;
  EveSystem system(MakeChainMkb(spec).MoveValue());
  ViewDefinition view = MakeChainView(system.mkb(), 5, 1).MoveValue();
  view.set_name("Stale");
  ASSERT_TRUE(system.RegisterView(view).ok());
  ASSERT_TRUE(system
                  .ApplyChange(
                      CapabilityChange::RenameAttribute("R5", "P5", "P5x"))
                  .ok());
  ASSERT_NE(SaveViews(system).find("R5.P5x"), std::string::npos);

  const std::string checkpoint = RenderCheckpoint(system);
  const std::string path = ::testing::TempDir() + "stale_view.wal";
  std::remove(path.c_str());
  Result<Journal> journal = Journal::Open(path);
  ASSERT_TRUE(journal.ok()) << journal.status();
  std::vector<JournalRecord> records;
  journal.value().SetObserver(
      [&records](JournalRecordKind kind, std::string_view body) {
        records.push_back({kind, std::string(body)});
      });
  system.AttachJournal(&journal.value());

  ASSERT_TRUE(system.SetViewState("Stale", ViewState::kDisabled).ok());
  ASSERT_TRUE(system
                  .ApplyChange(
                      CapabilityChange::RenameAttribute("R5", "P5x", "P5"))
                  .ok());
  const uint64_t version = system.current_version();
  const size_t journaled = records.size();
  const std::string views = SaveViews(system);
  const Status enabled = system.SetViewState("Stale", ViewState::kActive);
  EXPECT_EQ(enabled.code(), StatusCode::kNotFound) << enabled;
  EXPECT_NE(enabled.message().find("R5.P5x"), std::string::npos) << enabled;
  EXPECT_EQ(system.current_version(), version);
  EXPECT_EQ(records.size(), journaled);
  EXPECT_EQ(system.GetView("Stale").value()->state, ViewState::kDisabled);
  EXPECT_EQ(SaveViews(system), views);
  EXPECT_EQ(system.NumActiveViews(), 0u);

  // Every version rolls back, the tip at the failed re-enable included.
  ASSERT_TRUE(system.RollbackToVersion(version).ok());
  // Back where R5 reads P5x again, the view binds and comes back.
  ASSERT_TRUE(system.RollbackToVersion(version - 1).ok());
  ASSERT_TRUE(system.SetViewState("Stale", ViewState::kActive).ok());
  EXPECT_EQ(system.NumActiveViews(), 1u);
  EXPECT_TRUE(system.AffectedViews(CapabilityChange::DeleteAttribute(
                                       "R5", "P5x")) ==
              std::vector<std::string>{"Stale"});
  system.AttachJournal(nullptr);

  const Result<EveSystem> recovered = EveSystem::Recover(checkpoint, records);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(SaveViews(recovered.value()), SaveViews(system));
  EXPECT_EQ(SaveMkb(recovered.value().mkb()), SaveMkb(system.mkb()));
  EXPECT_EQ(recovered.value().versions().Render(),
            system.versions().Render());
  EXPECT_EQ(recovered.value().ScrubVersions().corruptions, 0u);
  std::remove(path.c_str());
}

// --- Per-commit oracle ------------------------------------------------------
//
// A seeded random op stream over registration, bulk registration,
// registration of a disabled view, disabling, changes, aborted batches and
// cascades, rollback, source degradation and heal, and LoadViews with
// synced_at=/provisional= headers; then, with the journal attached, more of
// the same stream, followed by recovery replay and a replica applying the
// journal. After every op that advanced the version, the tip's view text
// equals SaveViews of the system, and a bucket holds a new segment exactly
// when a view in it renders differently from the previous version. An
// aborted batch or cascade leaves every view, the inverted index, the log,
// the chain and the membership table as it found them. A heal un-marks
// without committing; the next commit carries it, where the oracle checks
// it.

// Names of the views whose block differs between two versions.
std::set<std::string> ChangedViews(const MkbVersion& before,
                                   const MkbVersion& after) {
  std::map<std::string, std::string_view> old_blocks;
  for (const ViewBlock& block : VersionViewBlocks(before)) {
    old_blocks[block.name] = block.text;
  }
  std::set<std::string> changed;
  for (const ViewBlock& block : VersionViewBlocks(after)) {
    const auto it = old_blocks.find(block.name);
    if (it == old_blocks.end() || it->second != block.text) {
      changed.insert(block.name);
    }
    if (it != old_blocks.end()) old_blocks.erase(it);
  }
  for (const auto& [name, text] : old_blocks) changed.insert(name);
  return changed;
}

// Checks the oracle across a step from `before` to the system's tip.
void CheckCommit(const EveSystem& system, const PinnedMkb& before,
                 const std::string& op) {
  SCOPED_TRACE(op);
  const PinnedMkb after = system.PinTip();
  if (after.id() == before.id()) return;
  ASSERT_EQ(system.ViewsTextAt(after.id()).value(), SaveViews(system));
  std::set<size_t> touched;
  for (const std::string& name :
       ChangedViews(*before.version, *after.version)) {
    touched.insert(ViewBucketOf(name));
  }
  for (size_t b = 0; b < kViewBuckets; ++b) {
    const bool renewed =
        &before.version->view_bucket(b) != &after.version->view_bucket(b);
    EXPECT_EQ(renewed, touched.count(b) > 0) << "bucket " << b;
  }
}

class OracleRun {
 public:
  // With `all_change_kinds`, the capability changes also rename relations
  // (and back), add attributes and add relations.
  explicit OracleRun(uint64_t seed, bool all_change_kinds = false)
      : rng_(seed), all_change_kinds_(all_change_kinds) {
    ChainMkbSpec spec;
    spec.length = 12;
    spec.cover_distance = 2;
    // IS<2k> exports R<2k> and R<2k+1>, so departures are two-change
    // cascades.
    std::string misd = SaveMkb(MakeChainMkb(spec).MoveValue());
    for (size_t odd = 1; odd < spec.length; odd += 2) {
      const std::string from = "SOURCE IS" + std::to_string(odd) + " ";
      misd.replace(misd.find(from), from.size(),
                   "SOURCE IS" + std::to_string(odd - 1) + " ");
    }
    mkb_ = LoadMkb(misd).MoveValue();
    system_.emplace(mkb_);
    // Three names sharing one bucket, so commits splice a bucket that
    // holds clean views next to dirty ones.
    for (uint64_t salt = 0; shared_bucket_names_.size() < 3; ++salt) {
      const std::string name = "S" + std::to_string(salt);
      if (ViewBucketOf(name) == ViewBucketOf("S0")) {
        shared_bucket_names_.push_back(name);
      }
    }
  }

  EveSystem& system() { return *system_; }
  // Heals that un-marked at least one provisional view.
  size_t unmarking_heals() const { return unmarking_heals_; }

  // One random op.
  std::string Step() {
    switch (rng_() % 11) {
      case 0: {
        ViewDefinition view = NextView();
        return "register " + view.name() + ": " +
               system_->RegisterView(view).ToString();
      }
      case 1: {
        std::vector<ViewDefinition> views;
        for (int i = 0; i < 3; ++i) views.push_back(NextView());
        std::vector<RegisteredView> batch(views.size());
        for (size_t i = 0; i < views.size(); ++i) {
          Result<ViewDefinition> bound =
              BindView(views[i].ToParsedView(), system_->mkb().catalog());
          if (!bound.ok()) return "bulk: " + bound.status().ToString();
          batch[i].definition = bound.MoveValue();
        }
        return "bulk: " + system_->RegisterViews(std::move(batch)).ToString();
      }
      case 2: {
        // A disabled view registers without binding: it may read
        // capabilities the MKB lost.
        std::vector<RegisteredView> batch(1);
        batch[0].definition = NextView();
        batch[0].state = ViewState::kDisabled;
        const std::string name = batch[0].definition.name();
        return "register disabled " + name + ": " +
               system_->RegisterViews(std::move(batch)).ToString();
      }
      case 3: {
        // Operators disable views; re-enabling one whose relations are
        // gone would leave a pool no checkpoint can load.
        const std::string name = AnyView();
        if (name.empty()) return "disable: empty pool";
        return "disable " + name + ": " +
               system_->SetViewState(name, ViewState::kDisabled).ToString();
      }
      case 4:
      case 5: {
        const CapabilityChange change = NextChange();
        return change.ToString() + ": " +
               system_->ApplyChange(change).status().ToString();
      }
      case 6: {
        // Fails between the two changes, or, with fewer than two of the
        // source's relations left, before the commit.
        const std::string source = "IS" + std::to_string(2 * (rng_() % 6));
        const testing_pool::PoolSnapshot before =
            testing_pool::SnapshotPool(*system_);
        Failpoints::Instance().Arm(fp::kSourceLeavesBetweenChanges,
                                   FailpointAction::kError);
        Failpoints::Instance().Arm(fp::kSourceLeavesBeforeCommit,
                                   FailpointAction::kError);
        const Status status = system_->DepartSource(source).status();
        Failpoints::Instance().Reset();
        testing_pool::ExpectSamePool(before,
                                     testing_pool::SnapshotPool(*system_));
        return "aborted departure " + source + ": " + status.ToString();
      }
      case 7: {
        const std::string source = "IS" + std::to_string(rng_() % 12);
        const testing_pool::PoolSnapshot before =
            testing_pool::SnapshotPool(*system_);
        Failpoints::Instance().Arm(fp::kSourceLeavesBeforeCommit,
                                   FailpointAction::kError);
        const Status status = system_->DepartSource(source).status();
        Failpoints::Instance().Reset();
        testing_pool::ExpectSamePool(before,
                                     testing_pool::SnapshotPool(*system_));
        return "aborted cascade " + source + ": " + status.ToString();
      }
      case 8: {
        // A fresh system is at version 0: roll back to it.
        const uint64_t target =
            rng_() % std::max<uint64_t>(1, system_->current_version());
        return "rollback to " + std::to_string(target) + ": " +
               system_->RollbackToVersion(target).status().ToString();
      }
      case 9: {
        // Degrade or heal one source. A heal un-marks provisional views
        // without committing; the next commit must carry it.
        const std::string source = "IS" + std::to_string(rng_() % 12);
        federation::SourceMembership row = federation::MakeHealthy({}, 0);
        if (rng_() % 2 == 0) row.state = federation::SourceState::kSuspect;
        for (const std::string& name : system_->ViewNames()) {
          if (row.state == federation::SourceState::kHealthy &&
              system_->GetView(name).value()->provisional_sources.count(
                  source) > 0) {
            ++unmarking_heals_;
            break;
          }
        }
        return "membership " + source + ": " +
               system_->SetSourceMembership(source, row).ToString();
      }
      default: {
        ViewDefinition active = NextView();
        ViewDefinition disabled = NextView();
        const std::string text =
            "-- VIEW active provisional=IS1,IS2 synced_at=1\n" +
            active.ToString() + ";\n\n-- VIEW disabled synced_at=1\n" +
            disabled.ToString() + ";\n\n";
        return "load views: " + LoadViews(text, &*system_).ToString();
      }
    }
  }

 private:
  ViewDefinition NextView() {
    const size_t start = rng_() % 10;
    Result<ViewDefinition> view =
        MakeChainView(system_->mkb(), start, 1 + rng_() % 2);
    if (!view.ok()) view = MakeChainView(mkb_, start, 1);
    const size_t n = next_view_++;
    view.value().set_name(n < shared_bucket_names_.size()
                              ? shared_bucket_names_[n]
                              : "V" + std::to_string(n));
    return view.MoveValue();
  }

  std::string AnyView() {
    const std::vector<std::string> names = system_->ViewNames();
    return names.empty() ? "" : names[rng_() % names.size()];
  }

  CapabilityChange NextChange() {
    const std::string relation = "R" + std::to_string(rng_() % 12);
    const std::string payload = "P" + relation.substr(1);
    switch (rng_() % (all_change_kinds_ ? 8 : 4)) {
      case 0:
        return CapabilityChange::DeleteAttribute(relation, payload);
      case 1:
        return CapabilityChange::RenameAttribute(relation, payload,
                                                 payload + "x");
      case 2:
        return CapabilityChange::RenameAttribute(relation, payload + "x",
                                                 payload);
      case 4:
        return CapabilityChange::RenameRelation(relation, relation + "r");
      case 5:
        return CapabilityChange::RenameRelation(relation + "r", relation);
      case 6:
        return CapabilityChange::AddAttribute(
            relation, {"A" + std::to_string(next_added_++), DataType::kInt});
      case 7: {
        RelationDef added;
        added.source = "IS" + std::to_string(rng_() % 12);
        added.name = "N" + std::to_string(next_added_++);
        added.schema = Schema({{"K" + added.name, DataType::kInt}});
        return CapabilityChange::AddRelation(added);
      }
      default:
        return CapabilityChange::DeleteRelation(relation);
    }
  }

  std::mt19937_64 rng_;
  bool all_change_kinds_ = false;
  size_t next_added_ = 0;
  Mkb mkb_;
  std::optional<EveSystem> system_;
  std::vector<std::string> shared_bucket_names_;
  size_t next_view_ = 0;
  size_t unmarking_heals_ = 0;
};

TEST_F(VersioningTest, PerCommitOracleHoldsOverRandomOpStreams) {
  size_t unmarking_heals = 0;
  for (const uint64_t seed : {1, 2, 3, 4}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    OracleRun run(seed);
    EveSystem& system = run.system();
    for (int i = 0; i < 60; ++i) {
      const PinnedMkb before = system.PinTip();
      CheckCommit(system, before, run.Step());
    }

    // Journal the rest of the stream, and follow it on a replica that
    // applies each record as it lands.
    const std::string checkpoint = RenderCheckpoint(system);
    const std::string path = ::testing::TempDir() + "oracle_" +
                             std::to_string(seed) + ".wal";
    std::remove(path.c_str());
    Result<Journal> journal = Journal::Open(path);
    ASSERT_TRUE(journal.ok()) << journal.status();
    Result<EveSystem> replica = LoadCheckpoint(checkpoint);
    ASSERT_TRUE(replica.ok()) << replica.status();
    JournalReplayer replayer;
    std::vector<JournalRecord> records;
    journal.value().SetObserver(
        [&](JournalRecordKind kind, std::string_view body) {
          records.push_back({kind, std::string(body)});
          const PinnedMkb replica_before = replica.value().PinTip();
          replayer.Apply(&replica.value(), records.back(), nullptr);
          CheckCommit(replica.value(), replica_before, "replica apply");
        });
    system.AttachJournal(&journal.value());
    for (int i = 0; i < 60; ++i) {
      const PinnedMkb before = system.PinTip();
      CheckCommit(system, before, run.Step());
    }
    system.AttachJournal(nullptr);
    replayer.Finish(nullptr);
    EXPECT_EQ(SaveViews(replica.value()), SaveViews(system));
    EXPECT_EQ(replica.value().versions().Render(), system.versions().Render());

    const Result<EveSystem> recovered = EveSystem::Recover(checkpoint, records);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    EXPECT_EQ(SaveViews(recovered.value()), SaveViews(system));
    EXPECT_EQ(recovered.value().versions().Render(),
              system.versions().Render());
    EXPECT_EQ(recovered.value().ScrubVersions().corruptions, 0u);
    std::remove(path.c_str());
    unmarking_heals += run.unmarking_heals();
  }
  // The streams exercised the heal trap: un-marking without a commit.
  EXPECT_GT(unmarking_heals, 0u);
}

// A stream journaled from a fresh system can draw the rollback step before
// its first commit, at version 0 (seed 19 draws it first).
TEST_F(VersioningTest, FreshJournaledStreamRollsBackAtVersionZero) {
  OracleRun run(19);
  EveSystem& system = run.system();
  ASSERT_EQ(system.current_version(), 0u);
  const std::string checkpoint = RenderCheckpoint(system);
  const std::string path = ::testing::TempDir() + "fresh_oracle.wal";
  std::remove(path.c_str());
  Result<Journal> journal = Journal::Open(path);
  ASSERT_TRUE(journal.ok()) << journal.status();
  system.AttachJournal(&journal.value());
  const std::string first = run.Step();
  EXPECT_EQ(first.rfind("rollback to 0: ", 0), 0u) << first;
  for (int i = 0; i < 30; ++i) {
    const PinnedMkb before = system.PinTip();
    CheckCommit(system, before, run.Step());
  }
  system.AttachJournal(nullptr);
  const Result<JournalScan> scan = ReadJournal(path);
  ASSERT_TRUE(scan.ok()) << scan.status();
  const Result<EveSystem> recovered =
      EveSystem::Recover(checkpoint, scan.value().records);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(SaveViews(recovered.value()), SaveViews(system));
  EXPECT_EQ(recovered.value().versions().Render(), system.versions().Render());
  std::remove(path.c_str());
}

// Over seeded op streams of every change kind, rollbacks and aborted
// batches, every version's checksum (the head, the MISD pairs, each MISD
// crc combined from its runs, and one combined CRC per bucket chunk)
// equals the whole-segment oracle, in the live chain, in the chain
// Deserialize rebuilds, and in the chain recovery replays.
TEST_F(VersioningTest, ChunkedVersionCrcMatchesTheWholeRunOracle) {
  const auto check_chain = [](const MkbVersionStore& store,
                              const std::string& what) {
    SCOPED_TRACE(what);
    for (const auto& version : store.Versions()) {
      EXPECT_EQ(version->crc, legacy::VersionCrc(*version))
          << "version " << version->id;
    }
    const VersionScrubStats stats = store.Scrub();
    EXPECT_EQ(stats.corruptions, 0u) << stats.ToString();
  };
  for (const uint64_t seed : {1, 2, 3, 4}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    OracleRun run(seed, /*all_change_kinds=*/true);
    EveSystem& system = run.system();
    for (int i = 0; i < 40; ++i) (void)run.Step();
    const std::string checkpoint = RenderCheckpoint(system);
    std::vector<JournalRecord> records;
    const std::string path = ::testing::TempDir() + "crc_oracle_" +
                             std::to_string(seed) + ".wal";
    std::remove(path.c_str());
    Result<Journal> journal = Journal::Open(path);
    ASSERT_TRUE(journal.ok()) << journal.status();
    journal.value().SetObserver(
        [&records](JournalRecordKind kind, std::string_view body) {
          records.push_back({kind, std::string(body)});
        });
    system.AttachJournal(&journal.value());
    for (int i = 0; i < 60; ++i) (void)run.Step();
    system.AttachJournal(nullptr);
    ASSERT_GT(system.versions().NumVersions(), 20u);
    check_chain(system.versions(), "live chain");

    const std::string text = system.versions().Serialize();
    const Result<MkbVersionStore> loaded = MkbVersionStore::Deserialize(text);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    check_chain(loaded.value(), "deserialized chain");
    EXPECT_EQ(loaded.value().Serialize(), text);
    EXPECT_EQ(loaded.value().Render(), system.versions().Render());

    const Result<EveSystem> recovered = EveSystem::Recover(checkpoint, records);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    check_chain(recovered.value().versions(), "recovered chain");
    EXPECT_EQ(recovered.value().versions().Render(),
              system.versions().Render());
    std::remove(path.c_str());
  }
}

// ByteStats and Render read a byte total per MISD segment and per bucket
// chunk; on a 1,001-version chain they must agree with a walk over every
// segment of every version (SHOW VERSIONS and logical bytes unchanged;
// retained bytes count each distinct MISD run and bucket once).
TEST_F(VersioningTest, ByteStatsAndRenderMatchThePerSegmentWalk) {
  ChainMkbSpec spec;
  spec.length = 16;
  EveSystem system(MakeChainMkb(spec).MoveValue());
  for (int v = 0; v < 40; ++v) {
    Result<ViewDefinition> view = MakeChainView(system.mkb(), v % 15, 1 + v % 2);
    ASSERT_TRUE(view.ok()) << view.status();
    view.value().set_name("V" + std::to_string(v));
    ASSERT_TRUE(system.RegisterView(view.MoveValue()).ok());
  }
  while (system.versions().NumVersions() < 1001) {
    const size_t r = 1 + system.versions().NumVersions() % 14;
    const std::string rel = "R" + std::to_string(r);
    const std::string payload = "P" + std::to_string(r);
    const bool forward = system.mkb().catalog().HasAttribute({rel, payload});
    ASSERT_TRUE(system
                    .ApplyChange(CapabilityChange::RenameAttribute(
                        rel, forward ? payload : payload + "x",
                        forward ? payload + "x" : payload))
                    .ok());
  }
  const std::vector<std::shared_ptr<const MkbVersion>> versions =
      system.versions().Versions();
  ASSERT_EQ(versions.size(), 1001u);
  VersionByteStats walked;
  std::unordered_set<const void*> seen;
  std::ostringstream render;
  for (const auto& version : versions) {
    uint64_t bytes = 0;
    for (const auto& segment : version->misd) {
      bytes += segment->Text().size();
      for (const auto& run : segment->runs) {
        if (seen.insert(run.get()).second) {
          walked.retained_bytes += run->text.size();
        }
      }
    }
    for (size_t bucket = 0; bucket < kViewBuckets; ++bucket) {
      const MkbVersionSegment& segment = version->view_bucket(bucket);
      bytes += segment.body.size();
      if (seen.insert(&segment).second) {
        walked.retained_bytes += segment.body.size();
      }
    }
    walked.logical_bytes += bytes;
    render << "  v" << version->id;
    if (version->id != version->parent) render << " <- v" << version->parent;
    render << "  crc=" << std::hex << version->crc << std::dec
           << " bytes=" << bytes << "  " << version->change << "\n";
  }
  const VersionByteStats stats = system.versions().ByteStats();
  EXPECT_EQ(stats.logical_bytes, walked.logical_bytes);
  EXPECT_EQ(stats.retained_bytes, walked.retained_bytes);
  EXPECT_EQ(system.versions().Render(), render.str());
}

}  // namespace
}  // namespace eve
