#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <iterator>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "eve/eve_system.h"
#include "eve/journal.h"
#include "eve/view_pool_io.h"
#include "federation/membership.h"
#include "mkb/serializer.h"
#include "pool_snapshot.h"
#include "workload/generator.h"
#include "workload/travel_agency.h"

namespace eve {
namespace {

class EveSystemTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Mkb mkb = MakeTravelAgencyMkb().MoveValue();
    ASSERT_TRUE(AddAccidentInsPc(&mkb).ok());
    system_ = std::make_unique<EveSystem>(std::move(mkb));
  }

  std::unique_ptr<EveSystem> system_;
};

TEST_F(EveSystemTest, RegisterAndLookup) {
  ASSERT_TRUE(system_->RegisterViewText(CustomerPassengersAsiaSql()).ok());
  EXPECT_EQ(system_->NumViews(), 1u);
  EXPECT_EQ(system_->NumActiveViews(), 1u);
  const RegisteredView* view =
      system_->GetView("CustomerPassengersAsia").value();
  EXPECT_EQ(view->state, ViewState::kActive);
  EXPECT_FALSE(system_->GetView("nope").ok());
  EXPECT_EQ(system_->ViewNames(),
            (std::vector<std::string>{"CustomerPassengersAsia"}));
}

TEST_F(EveSystemTest, RejectsDuplicateNamesAndBadViews) {
  ASSERT_TRUE(system_->RegisterViewText(CustomerPassengersAsiaSql()).ok());
  EXPECT_EQ(system_->RegisterViewText(CustomerPassengersAsiaSql()).code(),
            StatusCode::kAlreadyExists);
  EXPECT_FALSE(
      system_->RegisterViewText("CREATE VIEW X AS SELECT A.b FROM Nope A")
          .ok());
  EXPECT_FALSE(system_->RegisterViewText("garbage").ok());
}

TEST_F(EveSystemTest, AffectedViewDetection) {
  ASSERT_TRUE(system_->RegisterViewText(CustomerPassengersAsiaSql()).ok());
  ASSERT_TRUE(system_->RegisterViewText(
                         "CREATE VIEW HotelCars AS SELECT H.City FROM "
                         "Hotels H, RentACar R WHERE H.Address = R.Location")
                  .ok());
  EXPECT_EQ(
      system_->AffectedViews(CapabilityChange::DeleteRelation("Customer")),
      (std::vector<std::string>{"CustomerPassengersAsia"}));
  EXPECT_EQ(
      system_->AffectedViews(CapabilityChange::DeleteRelation("Hotels")),
      (std::vector<std::string>{"HotelCars"}));
  EXPECT_TRUE(
      system_->AffectedViews(CapabilityChange::DeleteRelation("Tour"))
          .empty());
  EXPECT_EQ(system_
                ->AffectedViews(CapabilityChange::DeleteAttribute(
                    "FlightRes", "Dest"))
                .size(),
            1u);
  RelationDef def;
  def.source = "IS9";
  def.name = "X";
  def.schema = Schema({{"x", DataType::kInt}});
  EXPECT_TRUE(
      system_->AffectedViews(CapabilityChange::AddRelation(def)).empty());
}

TEST_F(EveSystemTest, ApplyChangeRewritesAffectedViews) {
  ASSERT_TRUE(system_->RegisterViewText(CustomerPassengersAsiaSql()).ok());
  ASSERT_TRUE(system_->RegisterViewText(
                         "CREATE VIEW HotelCars AS SELECT H.City FROM "
                         "Hotels H, RentACar R WHERE H.Address = R.Location")
                  .ok());
  const ChangeReport report =
      system_->ApplyChange(CapabilityChange::DeleteRelation("Customer"))
          .value();
  EXPECT_EQ(report.CountOutcome(ViewOutcomeKind::kRewritten), 1u);
  EXPECT_EQ(report.CountOutcome(ViewOutcomeKind::kUnaffected), 1u);
  EXPECT_EQ(report.CountOutcome(ViewOutcomeKind::kDisabled), 0u);
  // The view keeps its registered name but no longer uses Customer.
  const RegisteredView* view =
      system_->GetView("CustomerPassengersAsia").value();
  EXPECT_EQ(view->state, ViewState::kActive);
  EXPECT_EQ(view->definition.name(), "CustomerPassengersAsia");
  EXPECT_FALSE(view->definition.ReferencesRelation("Customer"));
  EXPECT_EQ(view->history.size(), 1u);
  // The MKB evolved.
  EXPECT_FALSE(system_->mkb().catalog().HasRelation("Customer"));
  EXPECT_EQ(system_->change_log().size(), 1u);
}

TEST_F(EveSystemTest, ApplyChangeDisablesIncurableViews) {
  // A view demanding VE = ≡ cannot be preserved under delete-relation.
  ASSERT_TRUE(system_->RegisterViewText(
                         "CREATE VIEW Rigid (VE = =) AS "
                         "SELECT C.Name (false, true) FROM Customer C, "
                         "FlightRes F WHERE C.Name = F.PName")
                  .ok());
  const ChangeReport report =
      system_->ApplyChange(CapabilityChange::DeleteRelation("Customer"))
          .value();
  EXPECT_EQ(report.CountOutcome(ViewOutcomeKind::kDisabled), 1u);
  const RegisteredView* view = system_->GetView("Rigid").value();
  EXPECT_EQ(view->state, ViewState::kDisabled);
  // Disabled views are skipped by later change processing.
  const ChangeReport second =
      system_->ApplyChange(CapabilityChange::DeleteRelation("Tour")).value();
  EXPECT_TRUE(second.outcomes.empty());
}

TEST_F(EveSystemTest, RenameChangeKeepsViewsActive) {
  ASSERT_TRUE(system_->RegisterViewText(CustomerPassengersAsiaSql()).ok());
  const ChangeReport report =
      system_
          ->ApplyChange(
              CapabilityChange::RenameRelation("Customer", "Client"))
          .value();
  EXPECT_EQ(report.CountOutcome(ViewOutcomeKind::kRewritten), 1u);
  const RegisteredView* view =
      system_->GetView("CustomerPassengersAsia").value();
  EXPECT_TRUE(view->definition.HasFromRelation("Client"));
}

TEST_F(EveSystemTest, CascadingChangesSurviveWhilePossible) {
  ASSERT_TRUE(system_->RegisterViewText(CustomerPassengersAsiaSql()).ok());
  // 1. Rename FlightRes.Dest -> Destination: survive.
  ASSERT_TRUE(system_
                  ->ApplyChange(CapabilityChange::RenameAttribute(
                      "FlightRes", "Dest", "Destination"))
                  .ok());
  EXPECT_EQ(system_->NumActiveViews(), 1u);
  // 2. Delete Customer: rewrite through Accident-Ins or FlightRes.
  ASSERT_TRUE(
      system_->ApplyChange(CapabilityChange::DeleteRelation("Customer"))
          .ok());
  EXPECT_EQ(system_->NumActiveViews(), 1u);
  // 3. Delete Participant: Participant and TourID items are dispensable,
  //    so the view survives by dropping them.
  const ChangeReport report =
      system_->ApplyChange(CapabilityChange::DeleteRelation("Participant"))
          .value();
  EXPECT_EQ(report.CountOutcome(ViewOutcomeKind::kRewritten) +
                report.CountOutcome(ViewOutcomeKind::kDisabled),
            1u);
  const RegisteredView* view =
      system_->GetView("CustomerPassengersAsia").value();
  if (view->state == ViewState::kActive) {
    EXPECT_FALSE(view->definition.ReferencesRelation("Participant"));
  }
}

TEST_F(EveSystemTest, ChangeReportToStringReadable) {
  ASSERT_TRUE(system_->RegisterViewText(CustomerPassengersAsiaSql()).ok());
  const ChangeReport report =
      system_->ApplyChange(CapabilityChange::DeleteRelation("Customer"))
          .value();
  const std::string text = report.ToString();
  EXPECT_NE(text.find("delete-relation Customer"), std::string::npos);
  EXPECT_NE(text.find("rewritten"), std::string::npos);
  EXPECT_NE(text.find("dropped constraints"), std::string::npos);
}

TEST_F(EveSystemTest, RegisterValidatesAgainstCurrentMkb) {
  ASSERT_TRUE(
      system_->ApplyChange(CapabilityChange::DeleteRelation("Customer"))
          .ok());
  // Registering a Customer view after the deletion fails at bind time.
  EXPECT_FALSE(system_->RegisterViewText(CustomerPassengersAsiaSql()).ok());
}

TEST_F(EveSystemTest, DepartSourceDropsEveryExportedRelation) {
  ASSERT_TRUE(system_->RegisterViewText(CustomerPassengersAsiaSql()).ok());
  // IS1 exports only Customer; its departure triggers the Ex. 9 rewrite.
  const auto reports = system_->DepartSource("IS1").value();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].CountOutcome(ViewOutcomeKind::kRewritten), 1u);
  EXPECT_FALSE(system_->mkb().catalog().HasRelation("Customer"));
  EXPECT_EQ(system_->NumActiveViews(), 1u);
}

TEST_F(EveSystemTest, DepartSourceMidCascadeFailureRollsBack) {
  ASSERT_TRUE(system_->RegisterViewText(CustomerPassengersAsiaSql()).ok());
  // Two relations under one source: the cascade applies two delete-relation
  // changes and passes its between-changes failpoint once in between.
  ASSERT_TRUE(system_
                  ->ExtendMkb("SOURCE ExtraIS RELATION Extra1 "
                              "(Name string, X int)\n"
                              "SOURCE ExtraIS RELATION Extra2 "
                              "(Name string, Y int)")
                  .ok());
  // Extra1 has no cover, so the first change disables this view.
  ASSERT_TRUE(system_->RegisterViewText(
                         "CREATE VIEW Rigid (VE = =) AS "
                         "SELECT E.X (false, true) FROM Extra1 E")
                  .ok());
  const std::string mkb_before = SaveMkb(system_->mkb());
  const std::string views_before = SaveViews(*system_);
  const size_t log_before = system_->change_log().size();

  Failpoints::Instance().Reset();
  Failpoints::Instance().Arm(fp::kSourceLeavesBetweenChanges,
                             FailpointAction::kError);
  const Status failed = system_->DepartSource("ExtraIS").status();
  Failpoints::Instance().Reset();
  EXPECT_NE(failed.message().find("source-leave cascade aborted at 'Extra2'"),
            std::string::npos)
      << failed;

  // The first relation was already deleted, and Rigid disabled, when the
  // failpoint fired; the transactional cascade must have rolled that back.
  EXPECT_TRUE(system_->mkb().catalog().HasRelation("Extra1"));
  EXPECT_TRUE(system_->mkb().catalog().HasRelation("Extra2"));
  EXPECT_EQ(system_->GetView("Rigid").value()->state, ViewState::kActive);
  EXPECT_EQ(SaveMkb(system_->mkb()), mkb_before);
  EXPECT_EQ(SaveViews(*system_), views_before);
  EXPECT_EQ(system_->change_log().size(), log_before);

  // A clean retry goes through: the failure left no poison behind.
  ASSERT_TRUE(system_->DepartSource("ExtraIS").ok());
  EXPECT_FALSE(system_->mkb().catalog().HasRelation("Extra1"));
  EXPECT_FALSE(system_->mkb().catalog().HasRelation("Extra2"));
}

TEST_F(EveSystemTest, ExtendMkbIsAdditiveAndAtomic) {
  ASSERT_TRUE(system_->RegisterViewText(CustomerPassengersAsiaSql()).ok());
  // A new source joins and publishes a relation plus semantics.
  ASSERT_TRUE(system_
                  ->ExtendMkb(R"misd(
        SOURCE IS8 RELATION Person (Name string, SSN string, PAddr string)
        JOIN CONSTRAINT JCP BETWEEN Customer AND Person
            WHERE Customer.Name = Person.Name
        FUNCTION FADDR Customer.Addr = Person.PAddr
      )misd")
                  .ok());
  EXPECT_TRUE(system_->mkb().catalog().HasRelation("Person"));
  EXPECT_EQ(system_->mkb().CoversOf({"Customer", "Addr"}).size(), 1u);
  EXPECT_EQ(system_->NumActiveViews(), 1u);  // nothing affected

  // A failing extension leaves the MKB untouched.
  const size_t relations_before = system_->mkb().catalog().NumRelations();
  EXPECT_FALSE(system_
                   ->ExtendMkb("SOURCE IS9 RELATION Broken (x int)\n"
                               "JOIN CONSTRAINT bad BETWEEN Broken AND "
                               "Ghost WHERE Broken.x = Ghost.x")
                   .ok());
  EXPECT_EQ(system_->mkb().catalog().NumRelations(), relations_before);
  EXPECT_FALSE(system_->mkb().catalog().HasRelation("Broken"));
}

TEST_F(EveSystemTest, ExtendedMkbEnablesNewRewritings) {
  // Without the Person extension, deleting Customer.Addr from AsiaCustomer
  // would disable it; after ExtendMkb the Ex. 4 rewriting applies.
  ASSERT_TRUE(system_->RegisterViewText(AsiaCustomerSql()).ok());
  ASSERT_TRUE(system_
                  ->ExtendMkb(R"misd(
        SOURCE IS8 RELATION Person (Name string, SSN string, PAddr string)
        JOIN CONSTRAINT JCP BETWEEN Customer AND Person
            WHERE Customer.Name = Person.Name
        FUNCTION FADDR Customer.Addr = Person.PAddr
        PC PCP Person (Name, PAddr) SUPERSET Customer (Name, Addr)
      )misd")
                  .ok());
  const ChangeReport report =
      system_
          ->ApplyChange(CapabilityChange::DeleteAttribute("Customer",
                                                          "Addr"))
          .value();
  EXPECT_EQ(report.CountOutcome(ViewOutcomeKind::kRewritten), 1u)
      << report.ToString();
  EXPECT_TRUE(system_->GetView("AsiaCustomer")
                  .value()
                  ->definition.HasFromRelation("Person"));
}

TEST_F(EveSystemTest, DryRunChangeDoesNotMutate) {
  ASSERT_TRUE(system_->RegisterViewText(CustomerPassengersAsiaSql()).ok());
  const ChangeReport preview =
      system_->DryRunChange(CapabilityChange::DeleteRelation("Customer"))
          .value()
          .report;
  EXPECT_EQ(preview.CountOutcome(ViewOutcomeKind::kRewritten), 1u);
  // Nothing changed.
  EXPECT_TRUE(system_->mkb().catalog().HasRelation("Customer"));
  EXPECT_TRUE(system_->change_log().empty());
  EXPECT_TRUE(system_->GetView("CustomerPassengersAsia")
                  .value()
                  ->definition.ReferencesRelation("Customer"));
  // Applying for real matches the preview's outcome counts.
  const ChangeReport applied =
      system_->ApplyChange(CapabilityChange::DeleteRelation("Customer"))
          .value();
  EXPECT_EQ(applied.CountOutcome(ViewOutcomeKind::kRewritten),
            preview.CountOutcome(ViewOutcomeKind::kRewritten));
}

TEST_F(EveSystemTest, EmptyNameRejected) {
  ViewDefinition anonymous;
  EXPECT_EQ(system_->RegisterView(anonymous).code(),
            StatusCode::kInvalidArgument);
}

// --- Batch undo -------------------------------------------------------------
//
// An aborted batch restores the views it wrote and leaves every other view
// in place: each view is still the object GetView returned before, the
// written ones hold their pre-batch fields again, and the inverted index
// answers as before the batch.

using testing_pool::ExpectSamePool;
using testing_pool::PoolSnapshot;
using testing_pool::SnapshotPool;
using testing_pool::TouchedViews;

// A 60-view pool on an 8-relation chain in which IS6 exports R6 and R7, so
// its departure is a two-change cascade; IS6 is tracked, so the departure
// also writes its membership row. IS2 and IS4 were suspect when R1 and R3
// were deleted, so the views rewritten onto their covers on R2 and R4 got
// provisional marks; IS2 has healed since, un-marking its views without a
// commit, so they are still dirty when a batch starts.
std::unique_ptr<EveSystem> MakeBatchSystem() {
  ChainMkbSpec spec;
  spec.length = 8;
  std::string misd = SaveMkb(MakeChainMkb(spec).MoveValue());
  const size_t r7 = misd.find("SOURCE IS7 RELATION");
  EXPECT_NE(r7, std::string::npos);
  misd.replace(r7, std::string("SOURCE IS7").size(), "SOURCE IS6");
  auto system = std::make_unique<EveSystem>(LoadMkb(misd).MoveValue());
  ViewPoolSpec pool_spec;
  pool_spec.num_views = 60;
  pool_spec.seed = 11;
  EXPECT_TRUE(system
                  ->RegisterViews(testing_pool::BoundBatch(
                      MakeViewPool(system->mkb(), pool_spec).value(),
                      system->mkb().catalog()))
                  .ok());
  EXPECT_TRUE(
      system->SetSourceMembership("IS6", federation::MakeHealthy({}, 0)).ok());
  for (const char* source : {"IS2", "IS4"}) {
    EXPECT_TRUE(system
                    ->SetSourceMembership(
                        source, federation::OnProbeFailure(
                                    federation::MakeHealthy({}, 0), source, 10))
                    .ok());
  }
  EXPECT_TRUE(system->ApplyChange(CapabilityChange::DeleteRelation("R1")).ok());
  EXPECT_TRUE(system->ApplyChange(CapabilityChange::DeleteRelation("R3")).ok());
  EXPECT_NE(SaveViews(*system).find("provisional=IS2"), std::string::npos);
  EXPECT_TRUE(
      system->SetSourceMembership("IS2", federation::MakeHealthy({}, 20)).ok());
  return system;
}

// Checks on a copy of `system` that `commit`, the part of a batch that
// succeeds, writes some but not all views; then runs `abort`, the batch
// that must fail, on `system` itself and checks that it left the pool as
// it found it, probing the index with the committed copy's catalog too.
void ExpectBatchUndone(EveSystem* system,
                       const std::function<Status(EveSystem*)>& commit,
                       const std::function<Status(EveSystem*)>& abort) {
  EveSystem committed = *system;
  committed.AttachJournal(nullptr);
  ASSERT_TRUE(commit(&committed).ok());
  const Catalog& extra = committed.mkb().catalog();
  const PoolSnapshot before = SnapshotPool(*system, &extra);
  const std::vector<std::string> touched =
      TouchedViews(before, SnapshotPool(committed, &extra));
  EXPECT_FALSE(touched.empty());
  EXPECT_LT(touched.size(), before.views.size());
  EXPECT_FALSE(abort(system).ok());
  ExpectSamePool(before, SnapshotPool(*system, &extra));
  // The pre-batch dirty marks are back: the next commit renders the views
  // the heal un-marked.
  ASSERT_TRUE(system->ExtendMkb("SOURCE ISP RELATION Probe (a int)").ok());
  EXPECT_EQ(system->ViewsTextAt(system->current_version()).value(),
            SaveViews(*system));
}

TEST_F(EveSystemTest, AbortedCascadeRestoresOnlyTheViewsItWrote) {
  {
    // R6's cover lives on R7: views the cascade's first change rewrites
    // onto R7 are written again by its second, and the undo must restore
    // what they were before the first write.
    EveSystem committed = *MakeBatchSystem();
    const std::vector<std::string> first =
        committed.AffectedViews(CapabilityChange::DeleteRelation("R6"));
    ASSERT_TRUE(
        committed.ApplyChange(CapabilityChange::DeleteRelation("R6")).ok());
    const std::vector<std::string> second =
        committed.AffectedViews(CapabilityChange::DeleteRelation("R7"));
    std::vector<std::string> twice;
    std::set_intersection(first.begin(), first.end(), second.begin(),
                          second.end(), std::back_inserter(twice));
    EXPECT_FALSE(twice.empty());
  }
  for (const char* site :
       {fp::kSourceLeavesBetweenChanges, fp::kSourceLeavesBeforeCommit}) {
    SCOPED_TRACE(site);
    system_ = MakeBatchSystem();
    ExpectBatchUndone(
        system_.get(),
        [](EveSystem* s) { return s->DepartSource("IS6").status(); },
        [&](EveSystem* s) {
          Failpoints::Instance().Arm(site, FailpointAction::kError);
          const Status status = s->DepartSource("IS6").status();
          Failpoints::Instance().Reset();
          return status;
        });
  }
}

TEST_F(EveSystemTest, FailedBatchAppendLeavesNoRecordOfTheBatch) {
  system_ = MakeBatchSystem();
  const std::string checkpoint = RenderCheckpoint(*system_);
  const std::string path = ::testing::TempDir() + "failed_batch_append.wal";
  std::remove(path.c_str());
  Result<Journal> journal = Journal::Open(path);
  ASSERT_TRUE(journal.ok()) << journal.status();
  system_->AttachJournal(&journal.value());
  // The cascade journals its begin marker, R6's and R7's change records,
  // IS6's DEPARTED row and its commit marker with one append, the first.
  ExpectBatchUndone(
      system_.get(),
      [](EveSystem* s) { return s->DepartSource("IS6").status(); },
      [](EveSystem* s) {
        Failpoints::Instance().Arm(fp::kJournalAppendBeforeWrite,
                                   FailpointAction::kError);
        const Status status = s->DepartSource("IS6").status();
        Failpoints::Instance().Reset();
        EXPECT_NE(status.message().find(fp::kJournalAppendBeforeWrite),
                  std::string::npos)
            << status;
        return status;
      });

  // Nothing of the batch reached the journal: it holds only the probe
  // source ExpectBatchUndone added after the failure.
  Result<JournalScan> scan = ReadJournal(path);
  ASSERT_TRUE(scan.ok()) << scan.status();
  ASSERT_EQ(scan.value().records.size(), 1u);
  EXPECT_EQ(scan.value().records[0].kind, JournalRecordKind::kExtendMkb);

  // The journal stays attached: a later commit lands, and recovery
  // equals memory.
  ASSERT_TRUE(system_
                  ->ApplyChange(
                      CapabilityChange::RenameAttribute("R5", "P5", "P5x"))
                  .ok());
  scan = ReadJournal(path);
  ASSERT_TRUE(scan.ok()) << scan.status();
  RecoveryReport report;
  const Result<EveSystem> recovered =
      EveSystem::Recover(checkpoint, scan.value().records, &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(report.skipped + report.discarded, 0u) << report.ToString();
  EXPECT_EQ(SaveMkb(recovered.value().mkb()), SaveMkb(system_->mkb()));
  EXPECT_EQ(SaveViews(recovered.value()), SaveViews(*system_));
  EXPECT_EQ(SaveFederation(recovered.value()), SaveFederation(*system_));
  EXPECT_EQ(recovered.value().versions().Render(),
            system_->versions().Render());
  std::remove(path.c_str());
}

// --- Dry run and commit ------------------------------------------------------

// A dry run renders the report ApplyChange commits and leaves the system as
// it found it; the commit writes each affected view in place. Run on the
// batch pool, whose IS4 is suspect (its rewritings are provisional), and on
// the same pool once IS4 has healed.
TEST(DryRunTest, RendersWhatTheCommitWritesAndWritesNothing) {
  for (const bool degraded : {true, false}) {
    SCOPED_TRACE(degraded ? "IS4 suspect" : "no degraded source");
    std::unique_ptr<EveSystem> system = MakeBatchSystem();
    if (!degraded) {
      ASSERT_TRUE(system
                      ->SetSourceMembership("IS4",
                                            federation::MakeHealthy({}, 30))
                      .ok());
    }
    size_t provisional = 0;
    size_t disabled = 0;
    for (const CapabilityChange& change :
         {CapabilityChange::DeleteRelation("R5"),
          CapabilityChange::RenameAttribute("R4", "P4", "P4x"),
          CapabilityChange::DeleteAttribute("R4", "P4x"),
          CapabilityChange::DeleteRelation("R4")}) {
      SCOPED_TRACE(change.ToString());
      const PoolSnapshot before = SnapshotPool(*system);
      const Result<DryRunReport> dry = system->DryRunChange(change);
      ASSERT_TRUE(dry.ok()) << dry.status();
      ExpectSamePool(before, SnapshotPool(*system));

      EveSystem committed = *system;
      const Result<ChangeReport> applied = committed.ApplyChange(change);
      ASSERT_TRUE(applied.ok()) << applied.status();
      EXPECT_EQ(dry.value().report.ToString(), applied.value().ToString());
      ASSERT_FALSE(applied.value().outcomes.empty());

      // Exactly the affected views changed, each as its outcome says.
      std::vector<std::string> affected;
      for (const ViewOutcome& outcome : applied.value().outcomes) {
        affected.push_back(outcome.view_name);
        const RegisteredView& view =
            *committed.GetView(outcome.view_name).value();
        const bool rewritten = outcome.kind == ViewOutcomeKind::kRewritten;
        EXPECT_EQ(view.state,
                  rewritten ? ViewState::kActive : ViewState::kDisabled);
        EXPECT_EQ(view.history.back(),
                  (rewritten ? "rewritten under " : "disabled under ") +
                      change.ToString());
        EXPECT_EQ(view.provisional_sources,
                  std::set<std::string>(outcome.provisional_sources.begin(),
                                        outcome.provisional_sources.end()));
        EXPECT_EQ(view.synced_at_version, committed.current_version());
        provisional += outcome.provisional_sources.size();
        disabled += rewritten ? 0 : 1;
      }
      EXPECT_EQ(TouchedViews(before, SnapshotPool(committed)), affected);
      // The next change runs on the committed pool.
      *system = std::move(committed);
    }
    EXPECT_EQ(provisional > 0, degraded);
    EXPECT_GT(disabled, 0u);
  }
}

// --- Reports against the full-outcome-list renderer ------------------------

// ChangeReport::ToString as it was when a report carried one kUnaffected
// outcome per untouched active view: `outcomes` is that full list.
std::string LegacyRender(const ChangeReport& report,
                         const std::vector<ViewOutcome>& outcomes) {
  std::ostringstream os;
  os << "change: " << report.change.ToString() << "\n";
  if (!report.dropped_constraints.empty()) {
    os << "  dropped constraints:";
    for (const std::string& id : report.dropped_constraints) os << " " << id;
    os << "\n";
  }
  if (!report.weakened_constraints.empty()) {
    os << "  weakened constraints:";
    for (const std::string& id : report.weakened_constraints) os << " " << id;
    os << "\n";
  }
  for (const ViewOutcome& outcome : outcomes) {
    os << "  view " << outcome.view_name << ": ";
    switch (outcome.kind) {
      case ViewOutcomeKind::kUnaffected:
        os << "unaffected";
        break;
      case ViewOutcomeKind::kRewritten:
        os << "rewritten";
        break;
      case ViewOutcomeKind::kDisabled:
        os << "DISABLED";
        break;
    }
    if (!outcome.detail.empty()) os << " — " << outcome.detail;
    if (!outcome.provisional_sources.empty()) {
      os << " [provisional:";
      for (const std::string& source : outcome.provisional_sources) {
        os << " " << source;
      }
      os << "]";
    }
    os << "\n";
  }
  return os.str();
}

// Drives a seeded op stream and mirrors, for every change_log() entry, the
// full outcome list the old reports carried (unaffected views first, then
// the affected views' outcomes), computed from the pool before the change.
class ReportStream {
 public:
  explicit ReportStream(EveSystem* system) : system_(system) {}

  void set_system(EveSystem* system) { system_ = system; }

  std::vector<std::string> ActiveViews() const {
    std::vector<std::string> active;
    for (const std::string& name : system_->ViewNames()) {
      if (system_->GetView(name).value()->state == ViewState::kActive) {
        active.push_back(name);
      }
    }
    return active;
  }

  // The full outcome list of `report`, prepared against `active` with
  // `affected` affected views.
  static std::vector<ViewOutcome> FullOutcomes(
      const std::vector<std::string>& active,
      const std::vector<std::string>& affected, const ChangeReport& report) {
    std::vector<ViewOutcome> full;
    for (const std::string& name : active) {
      if (!std::binary_search(affected.begin(), affected.end(), name)) {
        full.push_back(ViewOutcome{name, ViewOutcomeKind::kUnaffected, "", {}});
      }
    }
    full.insert(full.end(), report.outcomes.begin(), report.outcomes.end());
    return full;
  }

  static void ExpectRendersAs(const ChangeReport& report,
                              const std::vector<ViewOutcome>& full) {
    EXPECT_EQ(report.ToString(), LegacyRender(report, full))
        << report.change.ToString();
    for (const ViewOutcomeKind kind :
         {ViewOutcomeKind::kUnaffected, ViewOutcomeKind::kRewritten,
          ViewOutcomeKind::kDisabled}) {
      EXPECT_EQ(report.CountOutcome(kind),
                static_cast<size_t>(std::count_if(
                    full.begin(), full.end(),
                    [&](const ViewOutcome& o) { return o.kind == kind; })))
          << report.change.ToString();
    }
  }

  // Applies `change`, which must succeed, and checks its report. Returns
  // the report.
  ChangeReport Apply(const CapabilityChange& change) {
    const std::vector<std::string> active = ActiveViews();
    const std::vector<std::string> affected = system_->AffectedViews(change);
    // A dry run reports exactly what the commit will.
    const Result<DryRunReport> dry = system_->DryRunChange(change);
    EXPECT_TRUE(dry.ok()) << dry.status();
    Result<ChangeReport> report = system_->ApplyChange(change);
    EXPECT_TRUE(report.ok()) << change.ToString() << ": " << report.status();
    if (!report.ok()) return ChangeReport();
    // The report (and its log entry) holds exactly the affected outcomes.
    std::vector<std::string> names;
    for (const ViewOutcome& outcome : report.value().outcomes) {
      names.push_back(outcome.view_name);
      EXPECT_NE(outcome.kind, ViewOutcomeKind::kUnaffected);
    }
    EXPECT_EQ(names, affected) << change.ToString();
    EXPECT_EQ(system_->change_log().back().outcomes.size(), affected.size());
    const std::vector<ViewOutcome> full =
        FullOutcomes(active, affected, report.value());
    ExpectRendersAs(report.value(), full);
    if (dry.ok()) ExpectRendersAs(dry.value().report, full);
    log_.push_back(full);
    ExpectLog();
    return report.MoveValue();
  }

  // Every change_log() entry still renders as its mirrored full list.
  void ExpectLog() const {
    ASSERT_EQ(system_->change_log().size(), log_.size());
    for (size_t i = 0; i < log_.size(); ++i) {
      ExpectRendersAs(system_->change_log()[i], log_[i]);
    }
  }

  std::vector<std::vector<ViewOutcome>>& log() { return log_; }

 private:
  EveSystem* system_;
  std::vector<std::vector<ViewOutcome>> log_;
};

TEST(ReportTest, OpStreamMatchesTheFullOutcomeRenderer) {
  ChainMkbSpec spec;
  spec.length = 8;
  spec.cover_distance = 1;
  EveSystem system(MakeChainMkb(spec).MoveValue());
  ViewPoolSpec pool_spec;
  pool_spec.num_views = 60;
  pool_spec.seed = 11;
  const std::vector<ViewDefinition> pool =
      MakeViewPool(system.mkb(), pool_spec).MoveValue();
  ASSERT_TRUE(system
                  .RegisterViews(
                      testing_pool::BoundBatch(pool, system.mkb().catalog()))
                  .ok());
  ViewDefinition extra = MakeChainView(system.mkb(), 6, 2).MoveValue();
  extra.set_name("zz_extra");
  ASSERT_TRUE(system.RegisterView(extra).ok());
  ReportStream stream(&system);

  // Renames disable nothing: consecutive reports share one active list.
  const ChangeReport first =
      stream.Apply(CapabilityChange::RenameAttribute("R5", "P5", "P5x"));
  const ChangeReport second =
      stream.Apply(CapabilityChange::RenameAttribute("R6", "P6", "P6x"));
  ASSERT_NE(first.active_views, nullptr);
  EXPECT_EQ(first.active_views.get(), second.active_views.get());
  EXPECT_EQ(system.change_log()[0].active_views.get(),
            system.change_log()[1].active_views.get());
  EXPECT_EQ(first.active_views->size(), system.NumActiveViews());

  // A state flip rebuilds the list; flipping back rebuilds it again. (The
  // flipped view reads R1, which the renames in between leave alone.)
  const std::string flipped = system.AffectedViews(
      CapabilityChange::RenameAttribute("R1", "P1", "P1x")).front();
  ASSERT_TRUE(system.SetViewState(flipped, ViewState::kDisabled).ok());
  const ChangeReport after_disable =
      stream.Apply(CapabilityChange::RenameAttribute("R5", "P5x", "P5"));
  EXPECT_NE(after_disable.active_views.get(), second.active_views.get());
  ASSERT_TRUE(system.SetViewState(flipped, ViewState::kActive).ok());
  const ChangeReport after_enable =
      stream.Apply(CapabilityChange::RenameAttribute("R6", "P6x", "P6"));
  EXPECT_NE(after_enable.active_views.get(), after_disable.active_views.get());

  // R7 has no cover: deleting it disables its views, and the next report
  // is built on a fresh list without them.
  const uint64_t before_delete = system.current_version();
  const ChangeReport deleted =
      stream.Apply(CapabilityChange::DeleteRelation("R7"));
  ASSERT_GT(deleted.CountOutcome(ViewOutcomeKind::kDisabled), 0u);
  const ChangeReport after_delete =
      stream.Apply(CapabilityChange::RenameAttribute("R4", "P4", "P4x"));
  EXPECT_NE(after_delete.active_views.get(), deleted.active_views.get());
  EXPECT_EQ(after_delete.active_views->size(), system.NumActiveViews());

  // Rollback re-enables the disabled views (the log keeps its entries).
  const Result<uint64_t> rolled = system.RollbackToVersion(before_delete);
  ASSERT_TRUE(rolled.ok()) << rolled.status();
  stream.ExpectLog();
  const ChangeReport after_rollback =
      stream.Apply(CapabilityChange::RenameAttribute("R3", "P3", "P3x"));
  EXPECT_EQ(after_rollback.active_views->size(), system.NumActiveViews());

  // An aborted departure (IS7 exports R7, whose delete disables views
  // first) restores the pool and the log.
  Failpoints::Instance().Arm(fp::kSourceLeavesBeforeCommit,
                             FailpointAction::kError);
  ASSERT_FALSE(system.DepartSource("IS7").ok());
  Failpoints::Instance().Reset();
  stream.ExpectLog();
  stream.Apply(CapabilityChange::RenameAttribute("R3", "P3x", "P3"));
  stream.Apply(CapabilityChange::RenameAttribute("R2", "P2", "P2x"));

  // Heal un-marking: R3's cover lives on R4 (IS4). With IS4 degraded the
  // rewritings of R3's views are provisional; healing IS4 clears the
  // marks in the logged outcomes too.
  const federation::SourceMembership degraded = federation::OnProbeFailure(
      federation::MakeHealthy({}, 0), "IS4", 10);
  ASSERT_TRUE(system.SetSourceMembership("IS4", degraded).ok());
  const ChangeReport provisional =
      stream.Apply(CapabilityChange::DeleteRelation("R3"));
  ASSERT_NE(provisional.ToString().find("[provisional: IS4]"),
            std::string::npos);
  ASSERT_TRUE(system
                  .SetSourceMembership(
                      "IS4", federation::OnProbeSuccess(degraded, "IS4", 20))
                  .ok());
  for (ViewOutcome& outcome : stream.log().back()) {
    outcome.provisional_sources.clear();
  }
  stream.ExpectLog();
  EXPECT_EQ(system.change_log().back().ToString().find("provisional"),
            std::string::npos);

  // A checkpoint reload keeps only the changes of the log; reports made
  // after it list the same views as the original system's.
  Result<EveSystem> reloaded = LoadCheckpoint(RenderCheckpoint(system));
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  EveSystem copy = reloaded.MoveValue();
  stream.set_system(&copy);
  for (std::vector<ViewOutcome>& full : stream.log()) full.clear();
  stream.ExpectLog();
  const ChangeReport reloaded_report =
      stream.Apply(CapabilityChange::RenameAttribute("R5", "P5", "P5y"));
  const ChangeReport original_report =
      system.ApplyChange(CapabilityChange::RenameAttribute("R5", "P5", "P5y"))
          .value();
  EXPECT_EQ(reloaded_report.ToString(), original_report.ToString());
}

TEST(ReportTest, UnaffectedListingOffKeepsOnlyTheOutcomes) {
  ChainMkbSpec spec;
  spec.length = 6;
  EveSystem system(MakeChainMkb(spec).MoveValue());
  ViewPoolSpec pool_spec;
  pool_spec.num_views = 20;
  ASSERT_TRUE(system
                  .RegisterViews(testing_pool::BoundBatch(
                      MakeViewPool(system.mkb(), pool_spec).MoveValue(),
                      system.mkb().catalog()))
                  .ok());
  system.SetReportUnaffected(false);
  const CapabilityChange change =
      CapabilityChange::RenameAttribute("R1", "P1", "P1x");
  const std::vector<std::string> affected = system.AffectedViews(change);
  ASSERT_FALSE(affected.empty());
  const ChangeReport report = system.ApplyChange(change).value();
  EXPECT_EQ(report.active_views, nullptr);
  EXPECT_EQ(report.CountOutcome(ViewOutcomeKind::kUnaffected), 0u);
  EXPECT_EQ(report.ToString(),
            LegacyRender(report, ReportStream::FullOutcomes(
                                     affected, affected, report)));
}

}  // namespace
}  // namespace eve
