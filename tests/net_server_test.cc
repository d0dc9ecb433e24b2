// eved's serving loop, end to end over real sockets: remote statements
// are byte-identical to the local console, snapshot reads and writers
// multiplex across concurrent sessions, overload sheds explicitly (and
// NetClient's backoff absorbs it), slow-loris and flooding sessions are
// evicted, corrupt bytes resync without dropping the connection, graceful
// drain says goodbye — and every net.* failpoint site is exercised in
// error mode (the server keeps serving) and crash mode (crashed_site()).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "net/client.h"
#include "net/console.h"
#include "net/protocol.h"
#include "net/server.h"

namespace eve {
namespace net {
namespace {

// Inline MKB so no test depends on files or the working directory.
const char* const kDefineCustomer =
    "DEFINE SOURCE IS1 RELATION Customer (Name string, Age int)";
const char* const kDefineFlight =
    "DEFINE SOURCE IS2 RELATION FlightRes (PName string, Dest string)";
const char* const kCreateView =
    "CREATE VIEW V1 (VE = ~) AS "
    "SELECT C.Name (true, true), C.Age (true, true) "
    "FROM Customer C (true, true) "
    "WHERE (C.Age = 30) (true, true)";

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override { Failpoints::Instance().Reset(); }
  void TearDown() override {
    Failpoints::Instance().Reset();
    if (server_) {
      server_->Stop();
      server_->WaitUntilStopped();
    }
  }

  Server& StartServer(ServerOptions options = {}) {
    console_ = std::make_unique<Console>();
    server_ = std::make_unique<Server>(console_.get(), options);
    const Status started = server_->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    return *server_;
  }

  NetClient MustConnect(ClientOptions options = {}) {
    options.port = server_->port();
    Result<NetClient> client = NetClient::Connect(options);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return client.MoveValue();
  }

  // A raw TCP connection for byte-level protocol abuse.
  int RawConnect() {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server_->port());
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    return fd;
  }

  // Spins (bounded) until `probe` returns true; server counters are
  // updated by the I/O thread, so tests observe them asynchronously.
  template <class Probe>
  bool WaitFor(Probe probe, int timeout_ms = 5000) {
    for (int waited = 0; waited < timeout_ms; ++waited) {
      if (probe()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return probe();
  }

  std::unique_ptr<Console> console_;
  std::unique_ptr<Server> server_;
};

// --- Remote execution -------------------------------------------------------

TEST_F(ServerTest, RemoteOutputIsByteIdenticalToLocalConsole) {
  const std::vector<std::string> script = {
      kDefineCustomer, kDefineFlight, kCreateView,
      "SHOW MKB",     "SHOW VIEWS", "SHOW VIEW V1",
      "SHOW SYNC STATS"};

  // Local: the same statements against a private console.
  Console local;
  std::ostringstream local_out;
  for (const std::string& statement : script) {
    std::ostringstream err;
    EXPECT_TRUE(local.Run(statement, local_out, err)) << err.str();
  }

  StartServer();
  NetClient client = MustConnect();
  std::string remote_out;
  for (const std::string& statement : script) {
    Result<Response> response = client.Run(statement);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->code, 0) << response->error;
    remote_out += response->output;
  }
  EXPECT_EQ(remote_out, local_out.str());
}

TEST_F(ServerTest, FailedStatementCarriesCodeAndDiagnostic) {
  StartServer();
  NetClient client = MustConnect();
  Result<Response> response = client.Run("SHOW VIEW NoSuchView");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_NE(response->code, 0);
  EXPECT_NE(response->error.find("NoSuchView"), std::string::npos)
      << response->error;
}

TEST_F(ServerTest, OutOfRangeLiteralFailsTheStatementNotTheServer) {
  StartServer();
  NetClient client = MustConnect();
  ASSERT_TRUE(client.Run(kDefineCustomer).ok());
  for (const std::string& statement :
       {std::string("CREATE VIEW Big AS SELECT C.Name FROM Customer C WHERE "
                    "C.Age = 99999999999999999999"),
        "CREATE VIEW Big AS SELECT C.Name FROM Customer C WHERE C.Age = " +
            std::string(400, '9') + ".5"}) {
    Result<Response> response = client.Run(statement);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_NE(response->code, 0);
    EXPECT_NE(response->error.find("parse_error"), std::string::npos)
        << response->error;
  }
  Result<Response> alive = client.Run("SHOW MKB");
  ASSERT_TRUE(alive.ok()) << alive.status().ToString();
  EXPECT_EQ(alive->code, 0);
}

TEST_F(ServerTest, ShowServerStatsAnswersFromCounters) {
  StartServer();
  NetClient client = MustConnect();
  Result<Response> response = client.Run("SHOW SERVER STATS");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->code, 0);
  EXPECT_NE(response->output.find("server: accepted=1"), std::string::npos)
      << response->output;
  EXPECT_NE(response->output.find("shed_overload=0"), std::string::npos);
}

TEST_F(ServerTest, PerRequestWorkBudgetPropagatesAndRestores) {
  StartServer();
  NetClient setup = MustConnect();
  ASSERT_TRUE(setup.Run(kDefineCustomer).ok());
  ASSERT_TRUE(setup.Run(kCreateView).ok());

  // A budgeted session: its DRAIN runs under a per-request work budget of
  // 7 units (the enumeration stats echo "spent N/7 units" afterwards).
  ClientOptions budgeted;
  budgeted.work_budget = 7;
  NetClient limited = MustConnect(budgeted);
  ASSERT_TRUE(limited.Run("ENQUEUE DELETE ATTRIBUTE Customer.Age").ok());
  Result<Response> drained = limited.Run("DRAIN");
  ASSERT_TRUE(drained.ok()) << drained.status().ToString();
  EXPECT_EQ(drained->code, 0) << drained->error;

  Result<Response> stats = setup.Run("SHOW SYNC STATS");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(stats->output.find("/7 units"), std::string::npos)
      << "the request budget did not reach the sync: " << stats->output;

  // The override was per-request: the default-limits session's next drain
  // runs with NO deadline clause in its stats (unlimited again).
  ASSERT_TRUE(setup.Run("ENQUEUE DELETE ATTRIBUTE Customer.Name").ok());
  Result<Response> redrained = setup.Run("DRAIN");
  ASSERT_TRUE(redrained.ok()) << redrained.status().ToString();
  EXPECT_EQ(redrained->code, 0) << redrained->error;
  Result<Response> after = setup.Run("SHOW SYNC STATS");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->output.find("deadline:"), std::string::npos)
      << "the budget override leaked past its request: " << after->output;
}

// --- Concurrency ------------------------------------------------------------

TEST_F(ServerTest, ConcurrentSessionsMixReadersAndWriters) {
  StartServer();
  {
    NetClient setup = MustConnect();
    ASSERT_TRUE(setup.Run(kDefineCustomer).ok());
    ASSERT_TRUE(setup.Run(kCreateView).ok());
  }
  constexpr int kSessions = 8;
  constexpr int kStatementsEach = 20;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kSessions; ++t) {
    threads.emplace_back([this, t, &failures] {
      ClientOptions options;
      options.port = server_->port();
      Result<NetClient> client = NetClient::Connect(options);
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kStatementsEach; ++i) {
        // Even sessions hammer snapshot reads (shared lock), odd sessions
        // interleave writers (exclusive lock).
        const std::string statement =
            (t % 2 == 0) ? "SHOW VIEWS"
            : (i % 2 == 0)
                ? "SHOW SYNC STATS"
                : ("DEFINE SOURCE S" + std::to_string(t) + "_" +
                   std::to_string(i) + " RELATION R" + std::to_string(t) +
                   "_" + std::to_string(i) + " (A int)");
        Result<Response> response = client.value().Run(statement);
        if (!response.ok() || response->code != 0) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  const ServerStats stats = server_->stats();
  EXPECT_GE(stats.accepted, static_cast<uint64_t>(kSessions));
  EXPECT_GE(stats.responses,
            static_cast<uint64_t>(kSessions * kStatementsEach));
}

// --- Overload and shedding --------------------------------------------------

TEST_F(ServerTest, OverloadShedsExplicitlyAndClientBacksOff) {
  ServerOptions options;
  options.max_pending_per_session = 0;  // shed every statement
  StartServer(options);

  ClientOptions retrying;
  retrying.max_shed_retries = 2;
  retrying.initial_backoff_micros = 1'000;
  NetClient client = MustConnect(retrying);
  Result<Response> response = client.Run("SHOW MKB");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->code,
            static_cast<int32_t>(StatusCode::kResourceExhausted));
  EXPECT_GT(response->retry_after_micros, 0u);
  // The client retried (and re-sent) before surfacing the shed.
  EXPECT_EQ(client.sheds_retried(), 2u);
  EXPECT_GE(server_->stats().shed_overload, 3u);
}

TEST_F(ServerTest, SessionCapRefusesTheExtraConnection) {
  ServerOptions options;
  options.max_sessions = 2;
  StartServer(options);
  NetClient first = MustConnect();
  NetClient second = MustConnect();
  // Make sure both sessions are registered before the third connects.
  ASSERT_TRUE(WaitFor([this] { return server_->stats().sessions_now == 2; }));

  ClientOptions options3;
  options3.port = server_->port();
  Result<NetClient> third = NetClient::Connect(options3);
  // TCP connect itself succeeds (backlog), but the server refuses the
  // session: the first statement dies on a closed connection.
  if (third.ok()) {
    EXPECT_FALSE(third.value().Run("SHOW MKB").ok());
  }
  EXPECT_TRUE(WaitFor([this] { return server_->stats().refused >= 1; }));
}

// --- Byte-level robustness --------------------------------------------------

TEST_F(ServerTest, CorruptBytesResyncWithoutDroppingTheConnection) {
  StartServer();
  const int fd = RawConnect();

  // Garbage, then a valid request: the decoder must resync and serve it.
  const std::string garbage = "this is not a frame at all...";
  const std::string request = EncodeFrame(
      FrameType::kRequest, EncodeRequest(Request{7, 0, 0, "SHOW MKB"}));
  ASSERT_EQ(::write(fd, garbage.data(), garbage.size()),
            static_cast<ssize_t>(garbage.size()));
  ASSERT_EQ(::write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));

  FrameDecoder decoder;
  std::optional<Frame> frame;
  char buf[4096];
  while (!frame) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    ASSERT_GT(n, 0) << "server closed the connection on garbage";
    decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
    frame = decoder.Next();
  }
  ASSERT_EQ(frame->type, FrameType::kResponse);
  Result<Response> response = DecodeResponse(frame->payload);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->id, 7u);
  EXPECT_EQ(response->code, 0);
  EXPECT_TRUE(WaitFor([this] { return server_->stats().resyncs >= 1; }));
  ::close(fd);
}

TEST_F(ServerTest, SlowLorisPartialFrameIsEvicted) {
  ServerOptions options;
  options.idle_timeout_micros = 30'000;  // 30ms
  StartServer(options);
  const int fd = RawConnect();

  // Half a frame, then silence: the sweep must evict this session.
  const std::string wire = EncodeFrame(
      FrameType::kRequest, EncodeRequest(Request{1, 0, 0, "SHOW MKB"}));
  ASSERT_EQ(::write(fd, wire.data(), wire.size() / 2),
            static_cast<ssize_t>(wire.size() / 2));
  EXPECT_TRUE(WaitFor(
      [this] { return server_->stats().evicted_slow_loris >= 1; }));

  // The listener is unaffected: a fresh well-behaved client still works.
  NetClient client = MustConnect();
  Result<Response> response = client.Run("SHOW MKB");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->code, 0);
  ::close(fd);
}

TEST_F(ServerTest, CleanIdleBetweenFramesIsNotSlowLoris) {
  ServerOptions options;
  options.idle_timeout_micros = 30'000;
  StartServer(options);
  NetClient client = MustConnect();
  ASSERT_TRUE(client.Run("SHOW MKB").ok());
  // Idle far past the timeout with NO partial frame buffered.
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  Result<Response> response = client.Run("SHOW MKB");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->code, 0);
  EXPECT_EQ(server_->stats().evicted_slow_loris, 0u);
}

TEST_F(ServerTest, FloodingSessionIsEvictedForOverflow) {
  ServerOptions options;
  options.max_read_buffer_bytes = 4096;
  StartServer(options);
  const int fd = RawConnect();
  // One giant partial frame: a header promising 1 MiB, then the bytes —
  // the read-buffer bound trips long before the payload completes.
  std::string header = EncodeFrame(FrameType::kRequest, "x");
  // Rewrite the length field to claim 1 MiB (CRC never checked: the
  // payload stays incomplete past the buffer bound).
  const uint32_t huge = 1u << 20;
  header[5] = static_cast<char>(huge & 0xff);
  header[6] = static_cast<char>((huge >> 8) & 0xff);
  header[7] = static_cast<char>((huge >> 16) & 0xff);
  header[8] = static_cast<char>((huge >> 24) & 0xff);
  const std::string flood = header.substr(0, kHeaderSize) +
                            std::string(64 * 1024, 'z');
  (void)!::write(fd, flood.data(), flood.size());
  EXPECT_TRUE(
      WaitFor([this] { return server_->stats().evicted_overflow >= 1; }));
  ::close(fd);
}

// --- Graceful drain ---------------------------------------------------------

TEST_F(ServerTest, DrainSaysGoodbyeAndStops) {
  StartServer();
  NetClient client = MustConnect();
  ASSERT_TRUE(client.Run("SHOW MKB").ok());

  server_->BeginDrain();
  server_->WaitUntilStopped();
  EXPECT_TRUE(server_->stopped());
  EXPECT_GE(server_->stats().goodbyes, 1u);
  EXPECT_TRUE(server_->crashed_site().empty());

  // The drained server answers nothing.
  EXPECT_FALSE(client.Run("SHOW MKB").ok());
}

TEST_F(ServerTest, DrainRefusesNewConnections) {
  ServerOptions options;
  options.drain_timeout_micros = 2'000'000;
  StartServer(options);
  // Park a raw connection holding HALF a frame so the drain has a live
  // session to wait on (pending stays 0, so drain completes fast — but
  // the accept-refusal window is what we probe here).
  server_->BeginDrain();
  server_->WaitUntilStopped();
  ClientOptions late;
  late.port = server_->port();
  Result<NetClient> client = NetClient::Connect(late);
  if (client.ok()) {
    EXPECT_FALSE(client.value().Run("SHOW MKB").ok());
  }
}

// --- Failpoints: error mode (the server keeps serving) ----------------------

TEST_F(ServerTest, ServerFailpointAcceptErrorRefusesOneConnection) {
  StartServer();
  Failpoints::Instance().Arm(fp::kNetAccept, FailpointAction::kError);
  ClientOptions options;
  options.port = server_->port();
  Result<NetClient> refused = NetClient::Connect(options);
  if (refused.ok()) {
    EXPECT_FALSE(refused.value().Run("SHOW MKB").ok());
  }
  EXPECT_TRUE(WaitFor([this] { return server_->stats().refused >= 1; }));

  // One-shot: the next connection is served normally.
  NetClient client = MustConnect();
  Result<Response> response = client.Run("SHOW MKB");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->code, 0);
}

TEST_F(ServerTest, ServerFailpointSessionStartErrorRefusesOneConnection) {
  StartServer();
  Failpoints::Instance().Arm(fp::kNetSessionStart, FailpointAction::kError);
  ClientOptions options;
  options.port = server_->port();
  Result<NetClient> refused = NetClient::Connect(options);
  if (refused.ok()) {
    EXPECT_FALSE(refused.value().Run("SHOW MKB").ok());
  }
  EXPECT_TRUE(WaitFor([this] { return server_->stats().refused >= 1; }));
  NetClient client = MustConnect();
  ASSERT_TRUE(client.Run("SHOW MKB").ok());
}

TEST_F(ServerTest, ServerFailpointFrameReadErrorEvictsTheSession) {
  StartServer();
  NetClient victim = MustConnect();
  ASSERT_TRUE(victim.Run("SHOW MKB").ok());
  Failpoints::Instance().Arm(fp::kNetFrameRead, FailpointAction::kError);
  EXPECT_FALSE(victim.Run("SHOW MKB").ok());
  EXPECT_TRUE(
      WaitFor([this] { return server_->stats().evicted_io_error >= 1; }));
  // The server survives the eviction.
  NetClient client = MustConnect();
  ASSERT_TRUE(client.Run("SHOW MKB").ok());
}

TEST_F(ServerTest, ServerFailpointFrameWriteErrorEvictsTheSession) {
  StartServer();
  NetClient victim = MustConnect();
  ASSERT_TRUE(victim.Run("SHOW MKB").ok());
  Failpoints::Instance().Arm(fp::kNetFrameWrite, FailpointAction::kError);
  EXPECT_FALSE(victim.Run("SHOW MKB").ok());
  EXPECT_TRUE(
      WaitFor([this] { return server_->stats().evicted_io_error >= 1; }));
  NetClient client = MustConnect();
  ASSERT_TRUE(client.Run("SHOW MKB").ok());
}

TEST_F(ServerTest, ServerFailpointDrainErrorIsAbsorbed) {
  StartServer();
  Failpoints::Instance().Arm(fp::kNetDrain, FailpointAction::kError);
  server_->BeginDrain();  // a drain cannot be refused
  server_->WaitUntilStopped();
  EXPECT_TRUE(server_->stopped());
  EXPECT_TRUE(server_->crashed_site().empty());
}

TEST_F(ServerTest, ServerFailpointShutdownErrorIsAbsorbed) {
  StartServer();
  Failpoints::Instance().Arm(fp::kNetShutdown, FailpointAction::kError);
  server_->Stop();
  server_->WaitUntilStopped();
  EXPECT_TRUE(server_->stopped());
  EXPECT_TRUE(server_->crashed_site().empty());
}

// --- Failpoints: crash mode (simulated process death) -----------------------

TEST_F(ServerTest, ServerFailpointFrameReadCrashStopsTheServer) {
  StartServer();
  NetClient client = MustConnect();
  ASSERT_TRUE(client.Run("SHOW MKB").ok());
  Failpoints::Instance().Arm(fp::kNetFrameRead, FailpointAction::kCrash);
  (void)client.Run("SHOW MKB");  // dies mid-crash; outcome is a transport error
  server_->WaitUntilStopped();
  EXPECT_EQ(server_->crashed_site(), fp::kNetFrameRead);
}

TEST_F(ServerTest, ServerFailpointAcceptCrashStopsTheServer) {
  StartServer();
  Failpoints::Instance().Arm(fp::kNetAccept, FailpointAction::kCrash);
  ClientOptions options;
  options.port = server_->port();
  (void)NetClient::Connect(options);
  server_->WaitUntilStopped();
  EXPECT_EQ(server_->crashed_site(), fp::kNetAccept);
}

TEST_F(ServerTest, ServerFailpointDrainCrashRecordsTheSite) {
  StartServer();
  Failpoints::Instance().Arm(fp::kNetDrain, FailpointAction::kCrash);
  server_->BeginDrain();
  server_->WaitUntilStopped();
  EXPECT_EQ(server_->crashed_site(), fp::kNetDrain);
}

TEST_F(ServerTest, ServerFailpointShutdownCrashRecordsTheSite) {
  StartServer();
  Failpoints::Instance().Arm(fp::kNetShutdown, FailpointAction::kCrash);
  server_->Stop();
  server_->WaitUntilStopped();
  EXPECT_EQ(server_->crashed_site(), fp::kNetShutdown);
}

TEST_F(ServerTest, ServerFailpointSessionStartCrashStopsTheServer) {
  StartServer();
  Failpoints::Instance().Arm(fp::kNetSessionStart, FailpointAction::kCrash);
  ClientOptions options;
  options.port = server_->port();
  (void)NetClient::Connect(options);
  server_->WaitUntilStopped();
  EXPECT_EQ(server_->crashed_site(), fp::kNetSessionStart);
}

TEST_F(ServerTest, ServerFailpointFrameWriteCrashStopsTheServer) {
  StartServer();
  NetClient client = MustConnect();
  ASSERT_TRUE(client.Run("SHOW MKB").ok());
  Failpoints::Instance().Arm(fp::kNetFrameWrite, FailpointAction::kCrash);
  (void)client.Run("SHOW MKB");
  server_->WaitUntilStopped();
  EXPECT_EQ(server_->crashed_site(), fp::kNetFrameWrite);
}

// --- Console: replacing the serving system ---------------------------------

TEST(ConsoleTest, ReplacingTheSystemForgetsTheConfiguredSyncLimits) {
  // LOAD MISD, RECOVER and a replica's snapshot install each serve a new
  // system without the old SET SYNC limits. A request with its own budget
  // and deadline must afterwards restore the new system's limits, not
  // write the replaced system's back.
  const std::string dir = ::testing::TempDir();
  const std::string misd = dir + "console_replace.misd";
  const std::string checkpoint = dir + "console_replace.ckpt";
  const std::string journal = dir + "console_replace.wal";
  const std::vector<std::string> replacements = {
      "LOAD MISD '" + misd + "'",
      "RECOVER '" + checkpoint + "' '" + journal + "'",
      "snapshot install",
  };
  for (const std::string& replacement : replacements) {
    std::remove(journal.c_str());
    Console console;
    std::ostringstream out;
    std::ostringstream err;
    ASSERT_TRUE(console.Run(kDefineCustomer, out, err)) << err.str();
    ASSERT_TRUE(console.Run("SAVE MISD '" + misd + "'", out, err)) << err.str();
    ASSERT_TRUE(console.Run("JOURNAL '" + journal + "'", out, err))
        << err.str();
    ASSERT_TRUE(console.Run("CHECKPOINT '" + checkpoint + "'", out, err))
        << err.str();
    const std::string snapshot = console.RenderSnapshotText();
    ASSERT_TRUE(console.Run("SET SYNC WORKBUDGET 5", out, err));
    ASSERT_TRUE(console.Run("SET SYNC DEADLINE 9000", out, err));

    if (replacement == "snapshot install") {
      ASSERT_TRUE(console.InstallSnapshotText(snapshot).ok());
    } else {
      ASSERT_TRUE(console.Run(replacement, out, err)) << err.str();
    }
    EXPECT_EQ(console.system().sync_work_budget(), 0u) << replacement;
    EXPECT_EQ(console.system().sync_deadline_micros(), 0u) << replacement;

    ASSERT_TRUE(console.RunWithLimits("SHOW MKB", 100, 7, out, err))
        << err.str();
    EXPECT_EQ(console.system().sync_work_budget(), 0u) << replacement;
    EXPECT_EQ(console.system().sync_deadline_micros(), 0u) << replacement;
  }
  std::remove(misd.c_str());
  std::remove(checkpoint.c_str());
  std::remove(journal.c_str());
}

TEST(ConsoleTest, IntegerArgumentsAcceptOnlyPlainDecimals) {
  // A sign, trailing bytes or a value past UINT64_MAX is refused with the
  // usual message, by SET SYNC and by every other integer argument.
  Console console;
  for (const std::string value :
       {"-5", "+5", "12abc", "123456789012345678901"}) {
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_FALSE(console.Run("SET SYNC BUDGET " + value, out, err));
    EXPECT_EQ(err.str(),
              "error: SET SYNC BUDGET expects a non-negative integer, got " +
                  value + "\n");
    std::ostringstream at_out;
    std::ostringstream at_err;
    EXPECT_FALSE(console.Run("SHOW MKB AT VERSION " + value, at_out, at_err));
    EXPECT_EQ(at_err.str(),
              "error: expected a non-negative integer, got " + value + "\n");
  }
  EXPECT_EQ(console.system().sync_candidate_budget(), 0u);
  std::ostringstream out;
  std::ostringstream err;
  ASSERT_TRUE(console.Run("SET SYNC BUDGET 18446744073709551615", out, err))
      << err.str();
  EXPECT_EQ(console.system().sync_candidate_budget(), SIZE_MAX);
}

// --- SplitStatements line accounting (the evectl file:line contract) --------

TEST(SplitStatementsTest, TracksTheStartingLineOfEachStatement) {
  const std::string script =
      "-- comment line\n"
      "SHOW MKB;\n"
      "\n"
      "SHOW\n  VIEWS;\n"
      "-- trailing\nSHOW SYNC STATS";
  const std::vector<Statement> statements = SplitStatements(script);
  ASSERT_EQ(statements.size(), 3u);
  EXPECT_EQ(statements[0].text, "SHOW MKB");
  EXPECT_EQ(statements[0].line, 2u);
  EXPECT_EQ(statements[1].line, 4u);
  EXPECT_EQ(statements[2].text, "SHOW SYNC STATS");
  EXPECT_EQ(statements[2].line, 7u);
}

TEST(SplitStatementsTest, SemicolonsInsideQuotesDoNotSplit) {
  const std::vector<Statement> statements =
      SplitStatements("LOAD MISD 'a;b.misd';\nSHOW MKB");
  ASSERT_EQ(statements.size(), 2u);
  EXPECT_EQ(statements[0].text, "LOAD MISD 'a;b.misd'");
}

}  // namespace
}  // namespace net
}  // namespace eve
