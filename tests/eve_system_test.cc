#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "eve/eve_system.h"
#include "eve/view_pool_io.h"
#include "mkb/serializer.h"
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

TEST_F(EveSystemTest, SourceLeavesDropsEveryExportedRelation) {
  ASSERT_TRUE(system_->RegisterViewText(CustomerPassengersAsiaSql()).ok());
  // IS1 exports only Customer; its departure triggers the Ex. 9 rewrite.
  const auto reports = system_->SourceLeaves("IS1").value();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].CountOutcome(ViewOutcomeKind::kRewritten), 1u);
  EXPECT_FALSE(system_->mkb().catalog().HasRelation("Customer"));
  EXPECT_EQ(system_->NumActiveViews(), 1u);
}

TEST_F(EveSystemTest, SourceLeavesMidCascadeFailureRollsBack) {
  ASSERT_TRUE(system_->RegisterViewText(CustomerPassengersAsiaSql()).ok());
  // Two relations under one source: the cascade applies two delete-relation
  // changes and passes its between-changes failpoint once in between.
  ASSERT_TRUE(system_
                  ->ExtendMkb("SOURCE ExtraIS RELATION Extra1 "
                              "(Name string, X int)\n"
                              "SOURCE ExtraIS RELATION Extra2 "
                              "(Name string, Y int)")
                  .ok());
  const std::string mkb_before = SaveMkb(system_->mkb());
  const std::string views_before = SaveViews(*system_);
  const size_t log_before = system_->change_log().size();

  Failpoints::Instance().Reset();
  Failpoints::Instance().Arm(fp::kSourceLeavesBetweenChanges,
                             FailpointAction::kError);
  EXPECT_FALSE(system_->SourceLeaves("ExtraIS").ok());
  Failpoints::Instance().Reset();

  // The first relation was already deleted when the failpoint fired; the
  // transactional cascade must have rolled that back.
  EXPECT_TRUE(system_->mkb().catalog().HasRelation("Extra1"));
  EXPECT_TRUE(system_->mkb().catalog().HasRelation("Extra2"));
  EXPECT_EQ(SaveMkb(system_->mkb()), mkb_before);
  EXPECT_EQ(SaveViews(*system_), views_before);
  EXPECT_EQ(system_->change_log().size(), log_before);

  // A clean retry goes through: the failure left no poison behind.
  ASSERT_TRUE(system_->SourceLeaves("ExtraIS").ok());
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

TEST_F(EveSystemTest, SourceLeavesUnknownSourceFails) {
  EXPECT_EQ(system_->SourceLeaves("IS99").status().code(),
            StatusCode::kNotFound);
}

TEST_F(EveSystemTest, EmptyNameRejected) {
  ViewDefinition anonymous;
  EXPECT_EQ(system_->RegisterView(anonymous).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(EveSystemTest, NonTransactionalBatchKeepsAppliedPrefix) {
  // A rigid view that the first change disables (see
  // ApplyChangeDisablesIncurableViews).
  ASSERT_TRUE(system_->RegisterViewText(
                         "CREATE VIEW Rigid (VE = =) AS "
                         "SELECT C.Name (false, true) FROM Customer C, "
                         "FlightRes F WHERE C.Name = F.PName")
                  .ok());
  const size_t log_before = system_->change_log().size();
  // Change 1 succeeds and disables Rigid; change 2 succeeds; change 3
  // fails (Customer is already gone).
  const Result<std::vector<ChangeReport>> result = system_->ApplyChanges(
      {CapabilityChange::DeleteRelation("Customer"),
       CapabilityChange::DeleteRelation("Tour"),
       CapabilityChange::DeleteRelation("Customer")},
      /*transactional=*/false);
  ASSERT_FALSE(result.ok());

  // Without rollback, the applied prefix sticks: both deletions are live...
  EXPECT_FALSE(system_->mkb().catalog().HasRelation("Customer"));
  EXPECT_FALSE(system_->mkb().catalog().HasRelation("Tour"));
  // ...the view disabled mid-batch stays disabled...
  EXPECT_EQ(system_->GetView("Rigid").value()->state, ViewState::kDisabled);
  // ...and the change log reflects exactly the applied prefix.
  ASSERT_EQ(system_->change_log().size(), log_before + 2);
  EXPECT_EQ(system_->change_log()[log_before].change.ToString(),
            CapabilityChange::DeleteRelation("Customer").ToString());
  EXPECT_EQ(system_->change_log()[log_before + 1].change.ToString(),
            CapabilityChange::DeleteRelation("Tour").ToString());
}

TEST_F(EveSystemTest, TransactionalBatchRollsBackOnFailure) {
  ASSERT_TRUE(system_->RegisterViewText(
                         "CREATE VIEW Rigid (VE = =) AS "
                         "SELECT C.Name (false, true) FROM Customer C, "
                         "FlightRes F WHERE C.Name = F.PName")
                  .ok());
  const size_t log_before = system_->change_log().size();
  const Result<std::vector<ChangeReport>> result = system_->ApplyChanges(
      {CapabilityChange::DeleteRelation("Customer"),
       CapabilityChange::DeleteRelation("Customer")},
      /*transactional=*/true);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(system_->mkb().catalog().HasRelation("Customer"));
  EXPECT_EQ(system_->GetView("Rigid").value()->state, ViewState::kActive);
  EXPECT_EQ(system_->change_log().size(), log_before);
}

}  // namespace
}  // namespace eve
