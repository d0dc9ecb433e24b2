#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "esql/binder.h"
#include "eve/journal.h"
#include "eve/view_pool_io.h"
#include "net/console.h"
#include "sql/parser.h"
#include "workload/travel_agency.h"

namespace eve {
namespace {

EveSystem FreshSystem() {
  Mkb mkb = MakeTravelAgencyMkb().value();
  EXPECT_TRUE(AddAccidentInsPc(&mkb).ok());
  return EveSystem(std::move(mkb));
}

TEST(ViewPoolIoTest, SaveLoadRoundTrip) {
  EveSystem original = FreshSystem();
  ASSERT_TRUE(original.RegisterViewText(CustomerPassengersAsiaSql()).ok());
  ASSERT_TRUE(original.RegisterViewText(
                          "CREATE VIEW HotelCars AS SELECT H.City FROM "
                          "Hotels H, RentACar R "
                          "WHERE H.Address = R.Location")
                  .ok());
  const std::string text = SaveViews(original);

  EveSystem restored = FreshSystem();
  ASSERT_TRUE(LoadViews(text, &restored).ok());
  EXPECT_EQ(restored.ViewNames(), original.ViewNames());
  for (const std::string& name : original.ViewNames()) {
    EXPECT_EQ((*restored.GetView(name))->definition.ToString(),
              (*original.GetView(name))->definition.ToString());
    EXPECT_EQ((*restored.GetView(name))->state,
              (*original.GetView(name))->state);
  }
}

TEST(ViewPoolIoTest, DisabledStateSurvivesRoundTrip) {
  EveSystem original = FreshSystem();
  ASSERT_TRUE(original.RegisterViewText(CustomerPassengersAsiaSql()).ok());
  ASSERT_TRUE(original
                  .SetViewState("CustomerPassengersAsia",
                                ViewState::kDisabled)
                  .ok());
  const std::string text = SaveViews(original);
  EXPECT_NE(text.find("-- VIEW disabled"), std::string::npos);

  EveSystem restored = FreshSystem();
  ASSERT_TRUE(LoadViews(text, &restored).ok());
  EXPECT_EQ((*restored.GetView("CustomerPassengersAsia"))->state,
            ViewState::kDisabled);
}

TEST(ViewPoolIoTest, LoadRejectsUnbindableViews) {
  EveSystem original = FreshSystem();
  ASSERT_TRUE(original.RegisterViewText(CustomerPassengersAsiaSql()).ok());
  const std::string text = SaveViews(original);

  // Restore into a system whose MKB lost Customer: binding fails.
  Mkb small = MakeTravelAgencyMkb().value();
  ASSERT_TRUE(small.catalog().DropRelation("Customer").ok());
  EveSystem restored{std::move(small)};
  EXPECT_FALSE(LoadViews(text, &restored).ok());
}

TEST(ViewPoolIoTest, LoadErrorsOnMalformedHeaders) {
  EveSystem system = FreshSystem();
  EXPECT_FALSE(LoadViews("-- VIEW sideways\nCREATE VIEW V AS SELECT "
                         "C.Name FROM Customer C;",
                         &system)
                   .ok());
  EXPECT_FALSE(
      LoadViews("-- VIEW active\nCREATE VIEW V AS SELECT C.Name FROM "
                "Customer C",  // missing ';'
                &system)
          .ok());
  // Text without headers is an empty pool.
  EveSystem empty = FreshSystem();
  EXPECT_TRUE(LoadViews("nothing here", &empty).ok());
  EXPECT_EQ(empty.NumViews(), 0u);
}

// A view whose string literal and quoted alias each hold a ';' and a line
// that starts like a view header.
const char* const kQuotedTrips =
    "CREATE VIEW Trips (VE = ~) AS SELECT F.PName (true, true), F.Dest AS "
    "\"d;x\n-- VIEW disabled\nCREATE VIEW Ghost2 AS y\" (true, true) "
    "FROM FlightRes F (true, true) WHERE F.Dest = "
    "'As;ia\n-- VIEW disabled\nCREATE VIEW Ghost AS x' (true, true)";

std::string RunOk(net::Console* console, const std::string& statement) {
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_TRUE(console->Run(statement, out, err))
      << statement << ": " << err.str();
  return out.str();
}

// Every reader of view-pool text (LOAD VIEWS, RECOVER's checkpoint pool,
// the version buckets behind ROLLBACK, SYNC DRYRUN ... AT VERSION and SHOW
// VIEW(S)) ends the statement at its ';' outside quotes and looks for the
// next header only after it.
TEST(ViewPoolIoTest, QuotedSemicolonsAndHeadersStayInsideTheirView) {
  const std::string dir = ::testing::TempDir();
  const std::string views = dir + "quoted_trips.views";
  const std::string checkpoint = dir + "quoted_trips.ckpt";
  const std::string journal = dir + "quoted_trips.wal";
  std::remove(journal.c_str());
  const std::string define_flights =
      "DEFINE SOURCE IS2 RELATION FlightRes (PName string, Dest string)";
  net::Console console;
  RunOk(&console, "DEFINE SOURCE IS1 RELATION Customer (Name string, Age int)");
  RunOk(&console, define_flights);
  RunOk(&console, "JOURNAL '" + journal + "'");
  RunOk(&console, kQuotedTrips);
  const uint64_t registered = console.system().current_version();
  const std::string definition =
      (*console.system().GetView("Trips"))->definition.ToString();
  const auto expect_trips = [&](net::Console* c, const std::string& when) {
    EXPECT_EQ(RunOk(c, "SHOW VIEWS"), "  [active] Trips\n") << when;
    EXPECT_EQ(RunOk(c, "SHOW VIEW Trips").rfind(definition + "\n", 0), 0u)
        << when;
    ASSERT_EQ(c->system().ViewNames(), std::vector<std::string>{"Trips"})
        << when;
    EXPECT_EQ((*c->system().GetView("Trips"))->definition.ToString(),
              definition)
        << when;
  };
  expect_trips(&console, "registered");

  RunOk(&console, "SAVE VIEWS '" + views + "'");
  net::Console loaded;
  RunOk(&loaded, define_flights);
  RunOk(&loaded, "LOAD VIEWS '" + views + "'");
  expect_trips(&loaded, "LOAD VIEWS");

  RunOk(&console, "CHECKPOINT '" + checkpoint + "'");
  RunOk(&console, "DELETE ATTRIBUTE Customer.Age");
  EXPECT_NE(RunOk(&console, "SYNC DRYRUN DELETE ATTRIBUTE FlightRes.PName AT "
                            "VERSION " +
                                std::to_string(registered))
                .find("view Trips: rewritten"),
            std::string::npos);
  RunOk(&console, "ROLLBACK TO VERSION " + std::to_string(registered));
  expect_trips(&console, "ROLLBACK");

  RunOk(&console, "RECOVER '" + checkpoint + "' '" + journal + "'");
  expect_trips(&console, "RECOVER");
  std::remove(views.c_str());
  std::remove(checkpoint.c_str());
  std::remove(journal.c_str());
}

// The journal record of a bulk registration is view-pool text too.
TEST(ViewPoolIoTest, BulkRegistrationReplayKeepsQuotedSemicolonsAndHeaders) {
  const std::string path = ::testing::TempDir() + "quoted_bulk.wal";
  std::remove(path.c_str());
  EveSystem system = FreshSystem();
  const std::string checkpoint = RenderCheckpoint(system);
  Result<Journal> journal = Journal::Open(path);
  ASSERT_TRUE(journal.ok()) << journal.status();
  system.AttachJournal(&journal.value());
  Result<ViewDefinition> bound =
      BindView(ParseView(kQuotedTrips).value(), system.mkb().catalog());
  ASSERT_TRUE(bound.ok()) << bound.status();
  ASSERT_TRUE(system.RegisterViewsBulk({bound.value()}).ok());
  system.AttachJournal(nullptr);

  const Result<JournalScan> scan = ReadJournal(path);
  ASSERT_TRUE(scan.ok()) << scan.status();
  RecoveryReport report;
  const Result<EveSystem> recovered =
      EveSystem::Recover(checkpoint, scan.value().records, &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(report.skipped, 0u) << report.ToString();
  ASSERT_EQ(recovered.value().ViewNames(), system.ViewNames());
  EXPECT_EQ((*recovered.value().GetView("Trips"))->definition.ToString(),
            (*system.GetView("Trips"))->definition.ToString());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace eve
