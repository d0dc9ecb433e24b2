#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "common/file_io.h"
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
  // A name the text repeats fails the whole load.
  const std::string hotels =
      "-- VIEW active\nCREATE VIEW V AS SELECT H.City FROM Hotels H;\n";
  EXPECT_EQ(LoadViews(hotels + hotels, &system).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(system.NumViews(), 0u);
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
  std::vector<RegisteredView> batch(1);
  batch[0].definition = bound.MoveValue();
  ASSERT_TRUE(system.RegisterViews(std::move(batch)).ok());
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

// Journals written before every registration was one kRegisterViewsBulk
// record hold a kRegisterView record per view, "<state>[@<stamp>]\n<E-SQL>";
// replay still reads them. Each view takes its registration's stamp.
TEST(ViewPoolIoTest, OneViewRegistrationRecordsStillReplay) {
  const std::string checkpoint = RenderCheckpoint(FreshSystem());
  const std::vector<JournalRecord> records = {
      {JournalRecordKind::kRegisterView,
       "active\n" + CustomerPassengersAsiaSql()},
      {JournalRecordKind::kRegisterView,
       "disabled@7\nCREATE VIEW Gone AS SELECT G.X FROM Gone G"},
      {JournalRecordKind::kRegisterView,
       "disabled@x\nCREATE VIEW Bad AS SELECT G.X FROM Gone G"},
  };
  RecoveryReport report;
  const Result<EveSystem> recovered =
      EveSystem::Recover(checkpoint, records, &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(report.replayed, 2u) << report.ToString();
  EXPECT_EQ(report.skipped, 1u) << report.ToString();
  const EveSystem& system = recovered.value();
  ASSERT_EQ(system.ViewNames(),
            (std::vector<std::string>{"CustomerPassengersAsia", "Gone"}));
  EXPECT_EQ((*system.GetView("CustomerPassengersAsia"))->synced_at_version,
            1u);
  EXPECT_EQ((*system.GetView("Gone"))->state, ViewState::kDisabled);
  EXPECT_EQ((*system.GetView("Gone"))->synced_at_version, 2u);
  EXPECT_EQ(system.versions().Tip().version->change, "register view Gone");
  EXPECT_EQ(system.ScrubVersions().corruptions, 0u);
}

// A pool whose last view does not bind loads nothing: no view, no version
// and no journal record.
TEST(ViewPoolIoTest, PoolWithAnUnbindableViewLoadsNothing) {
  const std::string path = ::testing::TempDir() + "unbindable_pool.wal";
  std::remove(path.c_str());
  EveSystem system = FreshSystem();
  Result<Journal> journal = Journal::Open(path);
  ASSERT_TRUE(journal.ok()) << journal.status();
  size_t records = 0;
  journal.value().SetObserver(
      [&records](JournalRecordKind, std::string_view) { ++records; });
  system.AttachJournal(&journal.value());
  const uint64_t version = system.current_version();
  const std::string text =
      "-- VIEW active\nCREATE VIEW Rentals AS SELECT R.Company FROM "
      "RentACar R;\n\n"
      "-- VIEW disabled\nCREATE VIEW Gone AS SELECT G.X FROM Gone G;\n\n"
      "-- VIEW active\nCREATE VIEW Broken AS SELECT N.X FROM NoSuchRel N;\n";
  const Status status = LoadViews(text, &system);
  EXPECT_EQ(status.code(), StatusCode::kNotFound) << status;
  EXPECT_EQ(system.NumViews(), 0u);
  EXPECT_EQ(system.current_version(), version);
  EXPECT_EQ(records, 0u);
  system.AttachJournal(nullptr);
  EXPECT_EQ(ReadJournal(path).value().records.size(), 0u);
  std::remove(path.c_str());
}

// A pool saved by a system whose chain ran past its stamps loads as one
// version, and every view carries that version: SCRUB stays clean.
TEST(ViewPoolIoTest, LoadedPoolIsStampedWithTheLoadsVersion) {
  EveSystem original = FreshSystem();
  ASSERT_TRUE(original.RegisterViewText(CustomerPassengersAsiaSql()).ok());
  for (int i = 0; i < 4; ++i) {
    const CapabilityChange rename =
        i % 2 == 0 ? CapabilityChange::RenameAttribute("Tour", "Type", "Kind")
                   : CapabilityChange::RenameAttribute("Tour", "Kind", "Type");
    ASSERT_TRUE(original.ApplyChange(rename).ok());
  }
  ASSERT_TRUE(original
                  .RegisterViewText("CREATE VIEW HotelCars AS SELECT H.City "
                                    "FROM Hotels H, RentACar R "
                                    "WHERE H.Address = R.Location")
                  .ok());
  const std::string text = SaveViews(original);
  EXPECT_NE(text.find("synced_at=6"), std::string::npos) << text;

  EveSystem loaded = FreshSystem();
  ASSERT_TRUE(LoadViews(text, &loaded).ok());
  EXPECT_EQ(loaded.current_version(), 1u);
  EXPECT_EQ(loaded.versions().Tip().version->change,
            "register 2 views (bulk)");
  for (const std::string& name : loaded.ViewNames()) {
    EXPECT_EQ((*loaded.GetView(name))->synced_at_version, 1u) << name;
  }
  const VersionScrubStats scrub = loaded.ScrubVersions();
  EXPECT_EQ(scrub.corruptions, 0u) << scrub.ToString();
}

// Checkpoint load installs the saved pool as it is, stamps and marks
// included, on the saved chain, and commits nothing; a checkpoint without
// a VERSIONS section commits its pool as one version.
TEST(ViewPoolIoTest, CheckpointLoadInstallsThePoolAsItIs) {
  EveSystem system = FreshSystem();
  ASSERT_TRUE(system.RegisterViewText(CustomerPassengersAsiaSql()).ok());
  ASSERT_TRUE(LoadViews("-- VIEW disabled provisional=IS4\n"
                        "CREATE VIEW Gone AS SELECT G.X FROM Gone G;\n",
                        &system)
                  .ok());
  ASSERT_TRUE(system
                  .ApplyChange(
                      CapabilityChange::RenameAttribute("Tour", "Type", "Kind"))
                  .ok());
  const std::string checkpoint = RenderCheckpoint(system);
  const Result<EveSystem> loaded = LoadCheckpoint(checkpoint);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(SaveViews(loaded.value()), SaveViews(system));
  EXPECT_EQ(loaded.value().versions().NumVersions(),
            system.versions().NumVersions());
  EXPECT_EQ(loaded.value().versions().Tip().version->crc,
            system.versions().Tip().version->crc);

  const size_t versions_at = checkpoint.find("-- SECTION VERSIONS\n");
  const size_t end_at = checkpoint.find("-- SECTION END\n");
  ASSERT_LT(versions_at, end_at);
  const Result<EveSystem> unversioned = LoadCheckpoint(
      checkpoint.substr(0, versions_at) + checkpoint.substr(end_at));
  ASSERT_TRUE(unversioned.ok()) << unversioned.status();
  EXPECT_EQ(SaveViews(unversioned.value()), SaveViews(system));
  EXPECT_EQ(unversioned.value().current_version(), 1u);
  EXPECT_EQ(unversioned.value().versions().Tip().version->change,
            "restore 2 views");
}

// A journaled load of disabled and provisional views: memory, recovery
// from the checkpoint and the journal, and a replica fed the journal's
// records agree on the pool (stamps and marks included) and the tip CRC.
TEST(ViewPoolIoTest, JournaledLoadRecoversAndReplicatesAsMemoryHoldsIt) {
  const std::string dir = ::testing::TempDir();
  const std::string checkpoint = dir + "journaled_load.ckpt";
  const std::string wal = dir + "journaled_load.wal";
  std::remove(checkpoint.c_str());
  std::remove(wal.c_str());
  EveSystem system = FreshSystem();
  ASSERT_TRUE(system.RegisterViewText(CustomerPassengersAsiaSql()).ok());
  ASSERT_TRUE(WriteCheckpoint(system, checkpoint).ok());
  Result<Journal> journal = Journal::Open(wal);
  ASSERT_TRUE(journal.ok()) << journal.status();
  system.AttachJournal(&journal.value());
  const std::string text =
      "-- VIEW active provisional=IS4,IS6 synced_at=9\n"
      "CREATE VIEW HotelCars AS SELECT H.City FROM Hotels H, RentACar R "
      "WHERE H.Address = R.Location;\n\n"
      "-- VIEW disabled synced_at=3\n"
      "CREATE VIEW Gone AS SELECT G.X FROM Gone G;\n\n"
      "-- VIEW active\n" +
      std::string(kQuotedTrips) + ";\n";
  ASSERT_TRUE(LoadViews(text, &system).ok());
  system.AttachJournal(nullptr);
  const std::string saved = SaveViews(system);
  EXPECT_NE(saved.find("-- VIEW active provisional=IS4,IS6 synced_at=2\n"),
            std::string::npos)
      << saved;
  EXPECT_NE(saved.find("-- VIEW disabled synced_at=2\n"), std::string::npos)
      << saved;

  RecoveryReport report;
  const Result<EveSystem> recovered =
      RecoverFromFiles(checkpoint, wal, &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(report.replayed, 1u) << report.ToString();
  EXPECT_EQ(SaveViews(recovered.value()), saved);
  EXPECT_EQ(recovered.value().versions().Tip().version->crc,
            system.versions().Tip().version->crc);

  Result<EveSystem> replica =
      LoadCheckpoint(ReadFileToString(checkpoint).MoveValue());
  ASSERT_TRUE(replica.ok()) << replica.status();
  const Result<JournalScan> scan = ReadJournal(wal);
  ASSERT_TRUE(scan.ok()) << scan.status();
  JournalReplayer replayer;
  for (const JournalRecord& record : scan.value().records) {
    replayer.Apply(&replica.value(), record, nullptr);
  }
  EXPECT_EQ(SaveViews(replica.value()), saved);
  EXPECT_EQ(replica.value().versions().Tip().version->crc,
            system.versions().Tip().version->crc);
  std::remove(checkpoint.c_str());
  std::remove(wal.c_str());
}

}  // namespace
}  // namespace eve
