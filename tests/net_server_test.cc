// eved's serving loop, end to end over real sockets: remote statements
// are byte-identical to the local console, snapshot reads and writers
// multiplex across concurrent sessions while each session's statements run
// one at a time, in order, point reads are answered on the I/O thread
// unless a writer holds the console lock, a drain sheds explicitly (and
// NetClient's backoff absorbs sheds), slow-loris and flooding sessions are
// evicted, corrupt bytes resync without dropping the connection, graceful
// drain says goodbye — and every net.* failpoint site is exercised in error
// mode (the server keeps serving) and crash mode (crashed_site()).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "net/client.h"
#include "net/console.h"
#include "net/metrics.h"
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

// Runs one statement and returns its code (0 = ok), output and error, the
// way a client sees it.
using StatementRunner = std::function<Response(const std::string&)>;

StatementRunner LocalRunner(Console* console) {
  return [console](const std::string& statement) {
    std::ostringstream out;
    std::ostringstream err;
    Response response;
    response.code = console->Run(statement, out, err) ? 0 : 1;
    response.output = out.str();
    response.error = err.str();
    return response;
  };
}

StatementRunner RemoteRunner(NetClient* client) {
  return [client](const std::string& statement) {
    Result<Response> response = client->Run(statement);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    return response.ok() ? response.value() : Response{};
  };
}

// '...' with each ' doubled: how a statement spells a path argument.
// Written out here, not through QuoteArgument, so the statements these
// tests send do not depend on the code they check.
std::string Quoted(const std::string& path) {
  std::string quoted = "'";
  for (const char c : path) {
    quoted += c;
    if (c == '\'') quoted += c;
  }
  return quoted + "'";
}

// Saves, journals, checkpoints and recovers through files under `dir`,
// whose name may hold a space or a quote; returns the transcript of
// outputs and errors. Every statement must succeed.
std::string RunPathStatements(const StatementRunner& run,
                              const std::string& dir) {
  const std::string misd = dir + "/schema.misd";
  const std::string views = dir + "/pool.views";
  const std::string wal = dir + "/w.wal";
  const std::string ckpt = dir + "/c.ckpt";
  for (const std::string& file : {misd, views, wal, ckpt}) {
    std::remove(file.c_str());
  }
  std::string transcript;
  for (const std::string& statement : {
           std::string(kDefineCustomer),
           std::string(kDefineFlight),
           std::string(kCreateView),
           "SAVE MISD " + Quoted(misd),
           "SAVE VIEWS " + Quoted(views),
           "JOURNAL " + Quoted(wal),
           "CHECKPOINT " + Quoted(ckpt),
           std::string("RENAME RELATION Customer TO Client"),
           "RECOVER " + Quoted(ckpt) + " " + Quoted(wal),
           std::string("SHOW VIEWS"),
           std::string("SHOW MKB"),
           "LOAD MISD " + Quoted(misd),
           "LOAD VIEWS " + Quoted(views),
           std::string("SHOW VIEWS"),
       }) {
    const Response response = run(statement);
    EXPECT_EQ(response.code, 0) << statement << "\n" << response.error;
    transcript += response.output + response.error;
  }
  return transcript;
}

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

  // Writes request frames, one per (id, statement), in one write.
  static void SendRequests(
      int fd, const std::vector<std::pair<uint64_t, std::string>>& requests) {
    std::string wire;
    for (const auto& [id, statement] : requests) {
      wire += EncodeFrame(FrameType::kRequest,
                          EncodeRequest(Request{id, statement}));
    }
    ASSERT_EQ(::write(fd, wire.data(), wire.size()),
              static_cast<ssize_t>(wire.size()));
  }

  // Reads the next response frame off a raw connection.
  static Response ReadResponse(int fd, FrameDecoder* decoder) {
    char buf[4096];
    while (true) {
      if (std::optional<Frame> frame = decoder->Next()) {
        EXPECT_EQ(frame->type, FrameType::kResponse);
        Result<Response> response = DecodeResponse(frame->payload);
        EXPECT_TRUE(response.ok()) << response.status().ToString();
        return response.ok() ? response.value() : Response{};
      }
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n <= 0) {
        ADD_FAILURE() << "the server closed the connection";
        return Response{};
      }
      decoder->Feed(std::string_view(buf, static_cast<size_t>(n)));
    }
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

TEST_F(ServerTest, ShowAtFormsOtherThanMkbOrViewsAtVersionAreRefused) {
  // None of these names a version to pin: each is the console's usage
  // error, locally and served alike, and never the tip.
  Console local;
  const StatementRunner local_run = LocalRunner(&local);
  StartServer();
  NetClient client = MustConnect();
  const StatementRunner served_run = RemoteRunner(&client);
  for (const char* statement :
       {kDefineCustomer, kDefineFlight, kCreateView,
        "DELETE RELATION FlightRes"}) {
    ASSERT_EQ(local_run(statement).code, 0) << statement;
    ASSERT_EQ(served_run(statement).code, 0) << statement;
  }
  for (const char* statement :
       {"SHOW MKB AT VERSION", "SHOW VIEWS AT 0",
        "SHOW HYPERGRAPH AT VERSION 0", "SHOW VIEW V1 AT VERSION 0",
        "SHOW VERSIONS AT 0", "SHOW SOURCES AT 0",
        "SHOW SYNC STATS AT VERSION 0", "SHOW SCRUB STATS AT VERSION 0",
        "SHOW MKB AT VERSION 0 1"}) {
    const Response mine = local_run(statement);
    const Response served = served_run(statement);
    EXPECT_NE(mine.code, 0) << statement;
    EXPECT_EQ(mine.output, "") << statement;
    EXPECT_EQ(mine.error.rfind("error: SHOW expects ", 0), 0u)
        << statement << ": " << mine.error;
    EXPECT_EQ(served.code, static_cast<int32_t>(StatusCode::kInternal))
        << statement;
    EXPECT_EQ(served.output, mine.output) << statement;
    EXPECT_EQ(served.error, mine.error) << statement;
  }
  // The AT VERSION forms still answer the version they name.
  for (const char* statement :
       {"SHOW MKB AT VERSION 0", "SHOW VIEWS AT VERSION 1"}) {
    const Response mine = local_run(statement);
    const Response served = served_run(statement);
    EXPECT_EQ(mine.code, 0) << statement << ": " << mine.error;
    EXPECT_EQ(served.code, 0) << statement << ": " << served.error;
    EXPECT_EQ(served.output, mine.output) << statement;
  }
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

TEST_F(ServerTest, ServedReadStalenessRefusesWhatTheConsoleRefuses) {
  // One rule decides READ STALENESS: the same forms, the same integer rule
  // and the same texts locally and served; a served refusal answers
  // kInvalidArgument.
  StartServer();
  NetClient client = MustConnect();
  Console local;
  const StatementRunner local_run = LocalRunner(&local);
  for (const std::string value :
       {"-5", "+5", "12abc", "123456789012345678901"}) {
    const std::string statement = "READ STALENESS " + value;
    const std::string refusal =
        "error: expected a non-negative integer, got " + value + "\n";
    Result<Response> served = client.Run(statement);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    EXPECT_EQ(served->code,
              static_cast<int32_t>(StatusCode::kInvalidArgument))
        << statement;
    EXPECT_EQ(served->error, refusal);
    EXPECT_EQ(served->output, "");
    EXPECT_EQ(local_run(statement).error, refusal);
  }
  for (const std::string statement :
       {"READ STALENESS 5", "READ STALENESS 5 x", "read staleness none",
        "READ STALENESS NONE x", "READ STALENESS soon"}) {
    const Response mine = local_run(statement);
    Result<Response> served = client.Run(statement);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    EXPECT_EQ(served->output, mine.output) << statement;
    EXPECT_EQ(served->error, mine.error) << statement;
    EXPECT_EQ(served->code == 0, mine.code == 0) << statement;
  }
}

TEST_F(ServerTest, ServedPathArgumentsMayHoldSpacesAndQuotes) {
  for (const std::string name : {"eve served dir", "eve served it's"}) {
    const std::string dir = ::testing::TempDir() + name;
    std::filesystem::create_directories(dir);
    Console local;
    const std::string expected = RunPathStatements(LocalRunner(&local), dir);
    EXPECT_NE(expected.find("recovered 1 views, 2 relations\n"),
              std::string::npos)
        << expected;
    StartServer();
    NetClient client = MustConnect();
    EXPECT_EQ(RunPathStatements(RemoteRunner(&client), dir), expected);
    server_->Stop();
    server_->WaitUntilStopped();
    server_.reset();
    std::filesystem::remove_all(dir);
  }
}

TEST_F(ServerTest, RemoteWorkBudgetReachesTheSyncUntilReset) {
  StartServer();
  NetClient setup = MustConnect();
  ASSERT_TRUE(setup.Run(kDefineCustomer).ok());
  ASSERT_TRUE(setup.Run(kCreateView).ok());

  // A remote SET SYNC WORKBUDGET limits the console's syncs: the DRAIN
  // runs under 7 units per view (the enumeration stats echo "spent N/7
  // units" afterwards, to any session).
  NetClient limited = MustConnect();
  Result<Response> set = limited.Run("SET SYNC WORKBUDGET 7");
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  EXPECT_EQ(set->output, "sync work budget = 7 units/view\n");
  ASSERT_TRUE(limited.Run("ENQUEUE DELETE ATTRIBUTE Customer.Age").ok());
  Result<Response> drained = limited.Run("DRAIN");
  ASSERT_TRUE(drained.ok()) << drained.status().ToString();
  EXPECT_EQ(drained->code, 0) << drained->error;

  Result<Response> stats = setup.Run("SHOW SYNC STATS");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(stats->output.find("/7 units"), std::string::npos)
      << "the budget did not reach the sync: " << stats->output;

  // SET SYNC WORKBUDGET 0 lifts it: the next drain runs with NO deadline
  // clause in its stats (unlimited again).
  ASSERT_TRUE(limited.Run("SET SYNC WORKBUDGET 0").ok());
  ASSERT_TRUE(setup.Run("ENQUEUE DELETE ATTRIBUTE Customer.Name").ok());
  Result<Response> redrained = setup.Run("DRAIN");
  ASSERT_TRUE(redrained.ok()) << redrained.status().ToString();
  EXPECT_EQ(redrained->code, 0) << redrained->error;
  Result<Response> after = setup.Run("SHOW SYNC STATS");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->output.find("deadline:"), std::string::npos)
      << "the budget outlived its reset: " << after->output;
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

// --- Point reads on the I/O thread -----------------------------------------

TEST_F(ServerTest, PointReadOnTheIoThreadMatchesTheLocalConsole) {
  Console local;
  const StatementRunner local_run = LocalRunner(&local);
  StartServer();
  NetClient client = MustConnect();
  for (const char* statement : {kDefineCustomer, kCreateView}) {
    ASSERT_EQ(local_run(statement).code, 0);
    Result<Response> served = client.Run(statement);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    ASSERT_EQ(served->code, 0) << served->error;
  }
  for (const std::string statement : {"SHOW VIEW V1", "SHOW VIEW NoSuchView"}) {
    const Response mine = local_run(statement);
    Result<Response> served = client.Run(statement);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    EXPECT_EQ(served->output, mine.output) << statement;
    EXPECT_EQ(served->error, mine.error) << statement;
    EXPECT_EQ(served->code == 0, mine.code == 0) << statement;
  }
  // A failed read answers with the code a worker answers with.
  Result<Response> unknown = client.Run("SHOW VIEW NoSuchView");
  ASSERT_TRUE(unknown.ok()) << unknown.status().ToString();
  EXPECT_EQ(unknown->code, static_cast<int32_t>(StatusCode::kInternal));
  const ServerStats stats = server_->stats();
  EXPECT_EQ(stats.reads_inline, 3u);
  EXPECT_EQ(stats.reads_deferred, 0u);
}

TEST_F(ServerTest, PointReadHopsToAWorkerWhileAWriterHoldsTheConsole) {
  StartServer();
  NetClient client = MustConnect();
  ASSERT_TRUE(client.Run(kDefineCustomer).ok());
  ASSERT_TRUE(client.Run(kCreateView).ok());
  Result<Response> served_inline = client.Run("SHOW VIEW V1");
  ASSERT_TRUE(served_inline.ok()) << served_inline.status().ToString();
  ASSERT_EQ(served_inline->code, 0) << served_inline->error;
  ASSERT_EQ(server_->stats().reads_inline, 1u);

  const int fd = RawConnect();
  FrameDecoder decoder;
  {
    std::unique_lock<std::shared_mutex> writer(server_->console_mutex());
    SendRequests(fd, {{7, "SHOW VIEW V1"}});
    ASSERT_TRUE(
        WaitFor([this] { return server_->stats().reads_deferred == 1; }));
    // The I/O thread never waits for the lock: another session's
    // statements are still answered.
    Result<Response> stats = client.Run("SHOW SERVER STATS");
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_NE(stats->output.find(" reads_inline=1 reads_deferred=1\n"),
              std::string::npos)
        << stats->output;
  }
  const Response deferred = ReadResponse(fd, &decoder);
  EXPECT_EQ(deferred.id, 7u);
  EXPECT_EQ(deferred.code, served_inline->code);
  EXPECT_EQ(deferred.output, served_inline->output);
  EXPECT_EQ(deferred.error, served_inline->error);
  EXPECT_EQ(server_->stats().reads_inline, 1u);
  ::close(fd);
}

TEST_F(ServerTest, PoolAndMkbReadsAlwaysHopToAWorker) {
  // SHOW VIEWS, MKB and HYPERGRAPH cost O(pool) or O(MKB): they are not
  // point reads, so they are neither served inline nor counted deferred.
  StartServer();
  NetClient client = MustConnect();
  ASSERT_TRUE(client.Run(kDefineCustomer).ok());
  ASSERT_TRUE(client.Run(kCreateView).ok());
  for (const std::string statement : {"SHOW VIEWS", "SHOW MKB",
                                      "SHOW HYPERGRAPH"}) {
    Result<Response> response = client.Run(statement);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->code, 0) << statement << response->error;
  }
  const ServerStats stats = server_->stats();
  EXPECT_EQ(stats.reads_inline, 0u);
  EXPECT_EQ(stats.reads_deferred, 0u);
}

TEST_F(ServerTest, PointReadBehindAStatementAnswersAfterItOnTheIoThread) {
  Console local;
  const StatementRunner local_run = LocalRunner(&local);
  StartServer();
  {
    NetClient setup = MustConnect();
    for (const char* statement : {kDefineCustomer, kCreateView}) {
      ASSERT_EQ(local_run(statement).code, 0);
      ASSERT_TRUE(setup.Run(statement).ok());
    }
  }
  const uint64_t before = server_->stats().requests;
  const int fd = RawConnect();
  FrameDecoder decoder;
  {
    // SHOW SYNC STATS needs the exclusive lock, so this shared hold keeps
    // it in flight; the point read behind it waits in the decoder.
    std::shared_lock<std::shared_mutex> reader(server_->console_mutex());
    SendRequests(fd, {{1, "SHOW SYNC STATS"}, {2, "SHOW VIEW V1"}});
    ASSERT_TRUE(
        WaitFor([&] { return server_->stats().requests == before + 1; }));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(server_->stats().requests, before + 1);
  }
  const Response first = ReadResponse(fd, &decoder);
  const Response second = ReadResponse(fd, &decoder);
  EXPECT_EQ(first.id, 1u);
  EXPECT_EQ(first.code, 0) << first.error;
  EXPECT_EQ(second.id, 2u);
  EXPECT_EQ(second.code, 0) << second.error;
  EXPECT_EQ(second.output, local_run("SHOW VIEW V1").output);
  const ServerStats stats = server_->stats();
  EXPECT_EQ(stats.reads_inline, 1u);
  EXPECT_EQ(stats.reads_deferred, 0u);
  ::close(fd);
}

// --- One statement at a time per session ------------------------------------

TEST_F(ServerTest, PipelinedReadSeesTheViewCreatedBeforeIt) {
  StartServer();
  {
    NetClient setup = MustConnect();
    ASSERT_TRUE(setup.Run(kDefineCustomer).ok());
  }
  const uint64_t before = server_->stats().requests;
  const int fd = RawConnect();
  FrameDecoder decoder;
  {
    // The shared hold keeps CREATE VIEW (exclusive) waiting, while a
    // SHOW VIEWS (shared) on a worker of its own would run at once.
    std::shared_lock<std::shared_mutex> reader(server_->console_mutex());
    SendRequests(fd, {{1, kCreateView}, {2, "SHOW VIEWS"}});
    ASSERT_TRUE(
        WaitFor([&] { return server_->stats().requests >= before + 1; }));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  const Response first = ReadResponse(fd, &decoder);
  const Response second = ReadResponse(fd, &decoder);
  EXPECT_EQ(first.id, 1u);
  EXPECT_EQ(second.id, 2u);
  const Response& views = first.id == 2 ? first : second;
  EXPECT_EQ(views.code, 0) << views.error;
  EXPECT_EQ(views.output, "  [active] V1\n");
  ::close(fd);
}

TEST_F(ServerTest, PipelinedStatementsAreAnsweredInOrderAndNoneIsShed) {
  StartServer();
  {
    NetClient setup = MustConnect();
    ASSERT_TRUE(setup.Run(kDefineCustomer).ok());
    ASSERT_TRUE(setup.Run(kCreateView).ok());
  }
  constexpr uint64_t kStatements = 32;
  std::vector<std::pair<uint64_t, std::string>> requests;
  for (uint64_t id = 1; id <= kStatements; ++id) {
    const std::string n = std::to_string(id);
    const std::string statement =
        id % 4 == 0   ? "DEFINE SOURCE S" + n + " RELATION R" + n + " (A int)"
        : id % 4 == 1 ? "SHOW VIEW V1"
        : id % 4 == 2 ? "SHOW VIEWS"
                      : "SHOW SERVER STATS";
    requests.emplace_back(id, statement);
  }
  const int fd = RawConnect();
  SendRequests(fd, requests);
  FrameDecoder decoder;
  for (uint64_t id = 1; id <= kStatements; ++id) {
    const Response response = ReadResponse(fd, &decoder);
    EXPECT_EQ(response.id, id);
    EXPECT_EQ(response.code, 0) << requests[id - 1].second << "\n"
                                << response.error;
  }
  EXPECT_EQ(server_->stats().shed_overload, 0u);
  ::close(fd);
}

TEST_F(ServerTest, TinyFramesQueuedBehindAStatementDoNotStallOtherSessions) {
  StartServer();
  const uint64_t before = server_->stats().requests;
  const int fd = RawConnect();
  // Nearly a read buffer's worth of empty 13-byte frames the server skips:
  // the I/O thread takes them all at once when the statement answers.
  const std::string tiny = EncodeFrame(FrameType::kResponse, "");
  ASSERT_EQ(tiny.size(), kHeaderSize);
  std::string flood;
  while (flood.size() + tiny.size() + 4096 <
         ServerOptions{}.max_read_buffer_bytes) {
    flood += tiny;
  }
  NetClient other = MustConnect();
  const uint64_t answered = server_->stats().responses;
  {
    std::shared_lock<std::shared_mutex> reader(server_->console_mutex());
    SendRequests(fd, {{1, "SHOW SYNC STATS"}});
    ASSERT_TRUE(
        WaitFor([&] { return server_->stats().requests == before + 1; }));
    size_t off = 0;
    while (off < flood.size()) {
      const ssize_t n = ::write(fd, flood.data() + off, flood.size() - off);
      ASSERT_GT(n, 0);
      off += static_cast<size_t>(n);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  // The statement has answered: the I/O thread now takes the flood. Taking
  // a frame costs O(frame), so the other session is served within a few
  // milliseconds (a decoder that shifts its buffer per frame took a
  // second on a 4-core x86 VM).
  ASSERT_TRUE(
      WaitFor([&] { return server_->stats().responses == answered + 1; }));
  const auto start = std::chrono::steady_clock::now();
  Result<Response> stats = other.Run("SHOW SERVER STATS");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(500));
  SendRequests(fd, {{2, "SHOW SERVER STATS"}});
  FrameDecoder decoder;
  EXPECT_EQ(ReadResponse(fd, &decoder).id, 1u);
  EXPECT_EQ(ReadResponse(fd, &decoder).id, 2u);
  EXPECT_EQ(server_->stats().evicted_overflow, 0u);
  ::close(fd);
}

// --- Overload and shedding --------------------------------------------------

TEST_F(ServerTest, DrainShedsAStatementPipelinedBehindOneInFlight) {
  StartServer();
  const uint64_t before = server_->stats().requests;
  const int fd = RawConnect();
  FrameDecoder decoder;
  {
    // SHOW SYNC STATS waits for the exclusive lock; SHOW MKB waits behind
    // it in the decoder and is taken only once the drain has begun.
    std::shared_lock<std::shared_mutex> reader(server_->console_mutex());
    SendRequests(fd, {{1, "SHOW SYNC STATS"}, {2, "SHOW MKB"}});
    ASSERT_TRUE(
        WaitFor([&] { return server_->stats().requests == before + 1; }));
    server_->BeginDrain();
  }
  const Response finished = ReadResponse(fd, &decoder);
  EXPECT_EQ(finished.id, 1u);
  EXPECT_EQ(finished.code, 0) << finished.error;
  const Response shed = ReadResponse(fd, &decoder);
  EXPECT_EQ(shed.id, 2u);
  EXPECT_EQ(shed.code, static_cast<int32_t>(StatusCode::kResourceExhausted));
  EXPECT_GT(shed.retry_after_micros, 0u);
  EXPECT_EQ(shed.error, "error: resource_exhausted: server draining\n");
  server_->WaitUntilStopped();
  EXPECT_EQ(server_->stats().shed_overload, 1u);
  EXPECT_TRUE(server_->crashed_site().empty());
  ::close(fd);
}

TEST_F(ServerTest, ClientBacksOffOnShedResponses) {
  // Against an endpoint that sheds every request, the client retries (and
  // re-sends) max_shed_retries times, then surfaces the shed.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), len), 0);
  ASSERT_EQ(::listen(listener, 1), 0);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  int requests_seen = 0;
  std::thread shedder([&] {
    const int conn = ::accept(listener, nullptr, nullptr);
    if (conn < 0) return;
    FrameDecoder requests;
    char in[4096];
    while (true) {
      std::optional<Frame> frame = requests.Next();
      if (!frame) {
        const ssize_t n = ::read(conn, in, sizeof(in));
        if (n <= 0) break;
        requests.Feed(std::string_view(in, static_cast<size_t>(n)));
        continue;
      }
      Result<Request> request = DecodeRequest(frame->payload);
      if (!request.ok()) break;
      ++requests_seen;
      Response reply;
      reply.id = request->id;
      reply.code = static_cast<int32_t>(StatusCode::kResourceExhausted);
      reply.retry_after_micros = 1'000;
      reply.error = "overloaded";
      const std::string out =
          EncodeFrame(FrameType::kResponse, EncodeResponse(reply));
      if (::write(conn, out.data(), out.size()) !=
          static_cast<ssize_t>(out.size())) {
        break;
      }
    }
    ::close(conn);
  });
  {
    ClientOptions retrying;
    retrying.port = ntohs(addr.sin_port);
    retrying.max_shed_retries = 2;
    retrying.initial_backoff_micros = 1'000;
    Result<NetClient> client = NetClient::Connect(retrying);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    Result<Response> response = client.value().Run("SHOW MKB");
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->code,
              static_cast<int32_t>(StatusCode::kResourceExhausted));
    EXPECT_GT(response->retry_after_micros, 0u);
    EXPECT_EQ(client.value().sheds_retried(), 2u);
  }  // the client hangs up, which ends the shedder
  shedder.join();
  ::close(listener);
  EXPECT_EQ(requests_seen, 3);
}

TEST_F(ServerTest, ClientConnectsByHostName) {
  StartServer();
  ClientOptions options;
  options.host = "localhost";
  options.port = server_->port();
  Result<NetClient> client = NetClient::Connect(options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Result<Response> response = client.value().Run("SHOW MKB");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->code, 0) << response->error;
}

TEST_F(ServerTest, ServerAndMetricsBindByHostName) {
  ServerOptions options;
  options.host = "localhost";
  StartServer(options);
  NetClient client = MustConnect();
  Result<Response> response = client.Run("SHOW MKB");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->code, 0) << response->error;

  MetricsServer metrics("localhost", 0, [] { return std::string("up 1\n"); });
  const Status started = metrics.Start();
  ASSERT_TRUE(started.ok()) << started.ToString();
  Result<int> scrape = DialTcp("localhost", metrics.port());
  ASSERT_TRUE(scrape.ok()) << scrape.status().ToString();
  const std::string get = "GET /metrics HTTP/1.0\r\n\r\n";
  ASSERT_EQ(::write(scrape.value(), get.data(), get.size()),
            static_cast<ssize_t>(get.size()));
  std::string page;
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::read(scrape.value(), buf, sizeof(buf))) > 0) {
    page.append(buf, static_cast<size_t>(n));
  }
  ::close(scrape.value());
  EXPECT_EQ(page.rfind("HTTP/1.0 200 OK\r\n", 0), 0u) << page;
  EXPECT_NE(page.find("\r\n\r\nup 1\n"), std::string::npos) << page;
}

TEST_F(ServerTest, StartOnATakenPortFailsAndClosesWhatItOpened) {
  StartServer();
  const auto open_fds = [] {
    return std::distance(std::filesystem::directory_iterator("/proc/self/fd"),
                         std::filesystem::directory_iterator());
  };
  const auto fds = open_fds();
  Console console;
  ServerOptions options;
  options.port = server_->port();
  const std::string in_use = "listen 127.0.0.1:" +
                             std::to_string(options.port) +
                             ": Address already in use";
  {
    Server second(&console, options);
    const Status started = second.Start();
    ASSERT_FALSE(started.ok());
    EXPECT_NE(started.ToString().find(in_use), std::string::npos)
        << started.ToString();
    MetricsServer metrics("127.0.0.1", options.port,
                          [] { return std::string(); });
    const Status metrics_started = metrics.Start();
    ASSERT_FALSE(metrics_started.ok());
    EXPECT_NE(metrics_started.ToString().find(in_use), std::string::npos)
        << metrics_started.ToString();
  }
  EXPECT_EQ(open_fds(), fds);
}

TEST_F(ServerTest, UnresolvableHostNamesTheResolverFailure) {
  // A 64-byte label is longer than DNS allows, so the name fails to
  // resolve before any query could be built.
  ClientOptions options;
  options.host = std::string(64, 'x') + ".invalid";
  options.port = 7433;
  const Result<NetClient> client = NetClient::Connect(options);
  ASSERT_FALSE(client.ok());
  const std::string error = client.status().ToString();
  EXPECT_NE(error.find("connect " + options.host + ":7433: cannot resolve"),
            std::string::npos)
      << error;
  EXPECT_EQ(error.find("Success"), std::string::npos) << error;
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
      FrameType::kRequest, EncodeRequest(Request{7, "SHOW MKB"}));
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
      FrameType::kRequest, EncodeRequest(Request{1, "SHOW MKB"}));
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
  // A worker's answer, and one the I/O thread gives itself and flushes
  // after the session's last read, so that the eviction ends the reads.
  StartServer();
  for (const char* statement : {"SHOW MKB", "SHOW SERVER STATS"}) {
    SCOPED_TRACE(statement);
    const uint64_t evicted = server_->stats().evicted_io_error;
    NetClient victim = MustConnect();
    ASSERT_TRUE(victim.Run(statement).ok());
    const uint64_t flushes =
        Failpoints::Instance().HitCount(fp::kNetFrameWrite);
    Failpoints::Instance().Arm(fp::kNetFrameWrite, FailpointAction::kError);
    EXPECT_FALSE(victim.Run(statement).ok());
    EXPECT_TRUE(WaitFor([&] {
      return server_->stats().evicted_io_error == evicted + 1;
    }));
    EXPECT_EQ(Failpoints::Instance().HitCount(fp::kNetFrameWrite),
              flushes + 1);
    EXPECT_EQ(server_->stats().sessions_now, 0u);
  }
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
  // system without the old SET SYNC limits.
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
    for (const std::string& statement :
         {"SHOW MKB AT VERSION " + value, "READ STALENESS " + value}) {
      std::ostringstream at_out;
      std::ostringstream at_err;
      EXPECT_FALSE(console.Run(statement, at_out, at_err));
      EXPECT_EQ(at_err.str(),
                "error: expected a non-negative integer, got " + value + "\n");
    }
  }
  EXPECT_EQ(console.system().sync_candidate_budget(), 32u);
  std::ostringstream out;
  std::ostringstream err;
  ASSERT_TRUE(console.Run("SET SYNC BUDGET 18446744073709551615", out, err))
      << err.str();
  EXPECT_EQ(console.system().sync_candidate_budget(), SIZE_MAX);
}

TEST(ConsoleTest, SetSyncBudgetIsThePullCap) {
  // R's one attribute has 50 covers and the view needs an equal extent,
  // which no cover establishes: every candidate is rejected, so the pull
  // loop runs until the cap (or the stream) ends it.
  Console console;
  std::ostringstream setup;
  std::ostringstream setup_err;
  ASSERT_TRUE(console.Run("DEFINE SOURCE S0 RELATION R (K int, A int)", setup,
                          setup_err))
      << setup_err.str();
  for (int i = 1; i <= 50; ++i) {
    const std::string cover = "C" + std::to_string(i);
    ASSERT_TRUE(console.Run("DEFINE SOURCE S" + std::to_string(i) +
                                " RELATION " + cover + " (K int, A int)",
                            setup, setup_err))
        << setup_err.str();
    ASSERT_TRUE(console.Run("DEFINE FUNCTION F" + std::to_string(i) +
                                " R.A = " + cover + ".A",
                            setup, setup_err))
        << setup_err.str();
  }
  ASSERT_TRUE(console.Run("CREATE VIEW V (VE = =) AS SELECT R.A (false, true) "
                          "FROM R (false, true)",
                          setup, setup_err))
      << setup_err.str();
  const auto dry_run = [&console] {
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_TRUE(console.Run("SYNC DRYRUN DELETE RELATION R", out, err))
        << err.str();
    EXPECT_TRUE(console.Run("SHOW SYNC STATS", out, err)) << err.str();
    return out.str();
  };
  const auto contains = [](const std::string& text, const std::string& part) {
    return text.find(part) != std::string::npos;
  };

  // Never set: the default cap, 32.
  EXPECT_EQ(console.system().sync_candidate_budget(), 32u);
  const std::string unset = dry_run();
  EXPECT_TRUE(contains(unset,
                       "; max_results=32 stopped the enumeration after 32 "
                       "candidates with 18 queue states unexplored; the "
                       "result may be incomplete\nsync: truncated views: V\n"))
      << unset;
  EXPECT_TRUE(contains(unset,
                       "enumeration: combos 50, trees expanded 50, yielded "
                       "32, rejected 32, pending 18\n"))
      << unset;

  std::ostringstream out;
  std::ostringstream err;
  ASSERT_TRUE(console.Run("SET SYNC BUDGET 40", out, err)) << err.str();
  EXPECT_EQ(out.str(), "sync candidate budget = 40\n");
  const std::string forty = dry_run();
  EXPECT_TRUE(contains(forty,
                       "; max_results=40 stopped the enumeration after 40 "
                       "candidates with 10 queue states unexplored"))
      << forty;
  EXPECT_TRUE(contains(forty, "yielded 40, rejected 40, pending 10\n"))
      << forty;

  // 0 is no cap: the stream runs dry and nothing is truncated.
  ASSERT_TRUE(console.Run("SET SYNC BUDGET 0", out, err)) << err.str();
  const std::string uncapped = dry_run();
  EXPECT_FALSE(contains(uncapped, "max_results")) << uncapped;
  EXPECT_FALSE(contains(uncapped, "truncated views")) << uncapped;
  EXPECT_TRUE(contains(uncapped, "yielded 50, rejected 50, exhausted\n"))
      << uncapped;
}

TEST(ConsoleTest, TickPrintsEveryReportOfADeparture) {
  // A source exporting two relations departs with a two-change cascade:
  // TICK prints both reports, not only the cascade's last.
  Console console;
  std::ostringstream out;
  std::ostringstream err;
  for (const std::string statement : {
           "DEFINE SOURCE IS9 RELATION Stay1 (Name string, Z int)",
           "DEFINE SOURCE IS9 RELATION Stay2 (Name string, W int)",
           "CREATE VIEW V1 (VE = ~) AS SELECT S.Name (true, true) FROM Stay1 "
           "S (true, true)",
           "CREATE VIEW V2 (VE = ~) AS SELECT S.Name (true, true) FROM Stay2 "
           "S (true, true)",
           "TRACK SOURCES",
           "SET SOURCE IS9 LEASE 5",
           "FAULT SOURCE IS9 TIMEOUT FROM 0 TO 200",
       }) {
    ASSERT_TRUE(console.Run(statement, out, err)) << statement << err.str();
  }
  std::ostringstream tick;
  ASSERT_TRUE(console.Run("TICK 40", tick, err)) << err.str();
  const std::string text = tick.str();
  EXPECT_NE(text.find(" departures=1\n"), std::string::npos) << text;
  const size_t first = text.find("change: delete-relation Stay1\n");
  const size_t second = text.find("change: delete-relation Stay2\n");
  ASSERT_NE(first, std::string::npos) << text;
  ASSERT_NE(second, std::string::npos) << text;
  EXPECT_LT(first, second) << text;
  EXPECT_NE(text.find("view V1: DISABLED"), std::string::npos) << text;
  EXPECT_NE(text.find("view V2: DISABLED"), std::string::npos) << text;
}

TEST(ConsoleTest, PathArgumentsMayHoldSpacesAndQuotes) {
  // Each path is one quoted word however many spaces it holds, and ''
  // inside it is a quote: RECOVER restores the checkpointed relations and
  // views, and every statement names the path it used.
  for (const std::string name : {"eve path dir", "eve path it's"}) {
    const std::string dir = ::testing::TempDir() + name;
    std::filesystem::create_directories(dir);
    Console console;
    const std::string transcript =
        RunPathStatements(LocalRunner(&console), dir);
    for (const std::string& line : {
             "saved MKB to " + dir + "/schema.misd\n",
             "saved 1 views to " + dir + "/pool.views\n",
             "journaling to " + dir + "/w.wal\n",
             "checkpointed to " + dir + "/c.ckpt\n",
             std::string("recovered 1 views, 2 relations\n"),
             "loaded 2 relations, 0 join constraints, 0 function-of "
             "constraints, 0 PC constraints from " +
                 dir + "/schema.misd\n",
             "loaded 1 views from " + dir + "/pool.views\n",
         }) {
      EXPECT_NE(transcript.find(line), std::string::npos)
          << line << "in:\n" << transcript;
    }
    // The recovered MKB holds the rename journaled after the checkpoint.
    EXPECT_NE(transcript.find("IS1.Client(Name: string, Age: int)\n"),
              std::string::npos)
        << transcript;
    std::filesystem::remove_all(dir);
  }
}

TEST(ConsoleTest, LoadViewsCountsTheViewsOfTheFile) {
  const std::string path = ::testing::TempDir() + "console_count.views";
  std::ostringstream out;
  std::ostringstream err;
  Console saver;
  ASSERT_TRUE(saver.Run(kDefineCustomer, out, err)) << err.str();
  for (const char* name : {"A", "B", "C"}) {
    ASSERT_TRUE(saver.Run(std::string("CREATE VIEW ") + name +
                              " AS SELECT C.Name FROM Customer C",
                          out, err))
        << err.str();
  }
  ASSERT_TRUE(saver.Run("SAVE VIEWS '" + path + "'", out, err)) << err.str();

  Console loader;
  ASSERT_TRUE(loader.Run(kDefineCustomer, out, err)) << err.str();
  ASSERT_TRUE(loader.Run(kCreateView, out, err)) << err.str();
  std::ostringstream loaded;
  ASSERT_TRUE(loader.Run("LOAD VIEWS '" + path + "'", loaded, err))
      << err.str();
  EXPECT_EQ(loaded.str(), "loaded 3 views from " + path + "\n");
  EXPECT_EQ(loader.system().NumViews(), 4u);
  std::remove(path.c_str());
}

// --- ParseStatement: the one reading of a statement ------------------------

TEST(ParseStatementTest, EveryReferenceFormHasItsRoute) {
  // Every statement form of evectl's reference (tools/evectl.cc), plus the
  // server's own SHOW SERVER STATS.
  const std::vector<std::pair<std::string, Route>> table = {
      {"LOAD MISD 'a.misd'", Route::kWrite},
      {"SAVE MISD 'a.misd'", Route::kWrite},
      {"LOAD VIEWS 'a.views'", Route::kWrite},
      {"SAVE VIEWS 'a.views'", Route::kWrite},
      {"SHOW MKB", Route::kSnapshotRead},
      {"SHOW HYPERGRAPH", Route::kSnapshotRead},
      {"SHOW VIEWS", Route::kSnapshotRead},
      {"SHOW VIEW V1", Route::kPointRead},
      {"show view V1", Route::kPointRead},
      {"SHOW VIEW", Route::kReadOnly},
      {kCreateView, Route::kWrite},
      {kDefineCustomer, Route::kWrite},
      {"RETRACT JC1", Route::kWrite},
      {"SET SYNC BUDGET 3", Route::kWrite},
      {"SET SYNC WORKBUDGET 3", Route::kWrite},
      {"SET SYNC DEADLINE 3", Route::kWrite},
      {"SET SYNC QUEUE 3", Route::kWrite},
      {"ENQUEUE DELETE RELATION R", Route::kWrite},
      {"ENQUEUE RENAME RELATION R TO S", Route::kWrite},
      {"DRAIN", Route::kWrite},
      {"SHOW SYNC STATS", Route::kReadOnly},
      {"PREVIEW DELETE RELATION R", Route::kWrite},
      {"PREVIEW RENAME ATTRIBUTE R.A TO B", Route::kWrite},
      {"SYNC DRYRUN DELETE RELATION R", Route::kWrite},
      {"SYNC DRYRUN RENAME RELATION R TO S AT VERSION 2", Route::kWrite},
      {"SHOW VERSIONS", Route::kReadOnly},
      {"SHOW MKB AT VERSION 2", Route::kReadOnly},
      {"SHOW VIEWS AT VERSION 2", Route::kReadOnly},
      // Every other SHOW ... AT ... form goes to Console::Show, which
      // refuses it, instead of being answered from the tip.
      {"SHOW MKB AT VERSION", Route::kReadOnly},
      {"SHOW VIEWS AT 0", Route::kReadOnly},
      {"SHOW HYPERGRAPH AT VERSION 0", Route::kReadOnly},
      {"SHOW VIEW V1 AT VERSION 0", Route::kReadOnly},
      {"SHOW REPLICATION AT VERSION 0", Route::kReadOnly},
      {"SHOW VERSIONS AT 0", Route::kReadOnly},
      {"SHOW SYNC STATS AT VERSION 0", Route::kReadOnly},
      {"SHOW VIEW AT", Route::kPointRead},  // the view named AT
      {"ROLLBACK TO VERSION 2", Route::kWrite},
      {"SCRUB", Route::kReadOnly},
      {"SHOW SCRUB STATS", Route::kReadOnly},
      {"DELETE RELATION R", Route::kWrite},
      {"DELETE ATTRIBUTE R.A", Route::kWrite},
      {"RENAME RELATION R TO S", Route::kWrite},
      {"RENAME ATTRIBUTE R.A TO B", Route::kWrite},
      {"TRACK SOURCES", Route::kWrite},
      {"SHOW SOURCES", Route::kReadOnly},
      {"SET SOURCE IS1 LEASE 5", Route::kWrite},
      {"SET SOURCE IS1 PROBE 5", Route::kWrite},
      {"SET SOURCE IS1 BREAKER 5", Route::kWrite},
      {"FAULT SOURCE IS1 TIMEOUT FROM 1 TO 5", Route::kWrite},
      {"TICK 5", Route::kWrite},
      {"JOURNAL 'w.wal'", Route::kWrite},
      {"CHECKPOINT 'c.ckpt'", Route::kWrite},
      {"RECOVER 'c.ckpt' 'w.wal'", Route::kWrite},
      {"SHOW REPLICATION", Route::kShowReplication},
      {"SHOW REPLICATION x", Route::kShowReplication},
      {"READ STALENESS 5", Route::kReadStaleness},
      {"READ STALENESS NONE", Route::kReadStaleness},
      {"READ STALENESS 5 x", Route::kReadStaleness},
      {"READ STALENESS", Route::kWrite},
      {"SHOW SERVER STATS", Route::kServerStats},
      {"SHOW SERVER STATS x", Route::kReadOnly},
      {"", Route::kWrite},
  };
  for (const auto& [statement, route] : table) {
    EXPECT_EQ(ParseStatement(statement).route, route) << statement;
  }
}

TEST(ParseStatementTest, QuotedTokensStayWhole) {
  using Words = std::vector<std::string>;
  EXPECT_EQ(ParseStatement("RECOVER '/a b/c.ckpt'\t'it''s; w.wal'").words,
            (Words{"RECOVER", "'/a b/c.ckpt'", "'it''s; w.wal'"}));
  EXPECT_EQ(ParseStatement("  SHOW VIEW \"My View\"\n").words,
            (Words{"SHOW", "VIEW", "\"My View\""}));
  EXPECT_EQ(ParseStatement("SHOW VIEW \"My View\"").route,
            Route::kPointRead);
  // Words without quoted whitespace split exactly as before.
  EXPECT_EQ(ParseStatement("WHERE F.\"Date\" = 'x'").words,
            (Words{"WHERE", "F.\"Date\"", "=", "'x'"}));
  EXPECT_EQ(ParseStatement("LOAD MISD 'open").words,
            (Words{"LOAD", "MISD", "'open"}));
  EXPECT_EQ(QuoteArgument("it's a b"), "'it''s a b'");
  EXPECT_EQ(ParseStatement("JOURNAL " + QuoteArgument("x' y")).words,
            (Words{"JOURNAL", "'x'' y'"}));
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
