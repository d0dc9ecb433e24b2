// Replicated eved, in process: cluster parsing and the deterministic
// election rule, the hub's ring/resume/snapshot bootstrap decisions,
// bounded-staleness accounting, semi-sync ack waiting, the READ STALENESS
// and SHOW REPLICATION session controls, NetClient's transport-retry
// failover across a node list — and a real 3-node cluster (journal
// shipping, convergence to byte-identical state, kill-the-primary
// failover, old-primary rejoin, repl.* failpoints in error mode).

#include <gtest/gtest.h>

#include <unistd.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/failpoint.h"
#include "common/file_io.h"
#include "net/client.h"
#include "net/console.h"
#include "net/metrics.h"
#include "net/protocol.h"
#include "net/replication.h"
#include "net/server.h"

namespace eve {
namespace net {
namespace {

uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Binds an ephemeral port, records it, releases it. The tiny window until
// the node binds it again is acceptable in tests.
uint16_t ReservePort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const int bound = ::bind(fd, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr));
  EXPECT_EQ(bound, 0);
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  const uint16_t port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

std::string FreshDir(const std::string& tag) {
  static int counter = 0;
  const std::string dir = ::testing::TempDir() + "eve_repl_" + tag + "_" +
                          std::to_string(::getpid()) + "_" +
                          std::to_string(++counter);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

bool WaitUntil(const std::function<bool()>& predicate,
               uint64_t timeout_micros = 10'000'000) {
  const uint64_t deadline = NowMicros() + timeout_micros;
  while (NowMicros() < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return predicate();
}

std::string Define(int i) {
  return "DEFINE SOURCE IS" + std::to_string(i) + " RELATION Rel" +
         std::to_string(i) + " (Name string, Age int)";
}

// --- Pure functions ---------------------------------------------------------

TEST(ReplParseTest, NodeAddressRoundTrip) {
  const Result<NodeAddress> address = ParseNodeAddress("127.0.0.1:4242");
  ASSERT_TRUE(address.ok());
  EXPECT_EQ(address.value().host, "127.0.0.1");
  EXPECT_EQ(address.value().port, 4242);
  EXPECT_EQ(address.value().ToString(), "127.0.0.1:4242");
  EXPECT_FALSE(ParseNodeAddress("no-port").ok());
  EXPECT_FALSE(ParseNodeAddress(":80").ok());
  EXPECT_FALSE(ParseNodeAddress("h:").ok());
  EXPECT_FALSE(ParseNodeAddress("h:99999").ok());
  EXPECT_FALSE(ParseNodeAddress("h:12x").ok());
  // The port is a plain decimal: no sign, no leading space, no zero port.
  EXPECT_FALSE(ParseNodeAddress("h:+80").ok());
  EXPECT_FALSE(ParseNodeAddress("h: 80").ok());
  EXPECT_FALSE(ParseNodeAddress("h:0").ok());
}

TEST(ReplParseTest, ClusterSpec) {
  const Result<std::map<std::string, NodeAddress>> cluster =
      ParseCluster("n1=127.0.0.1:1001, n2=127.0.0.1:1002,n3=127.0.0.1:1003");
  ASSERT_TRUE(cluster.ok());
  EXPECT_EQ(cluster.value().size(), 3u);
  EXPECT_EQ(cluster.value().at("n2").port, 1002);
  EXPECT_FALSE(ParseCluster("").ok());
  EXPECT_FALSE(ParseCluster("n1=127.0.0.1:1,n1=127.0.0.1:2").ok());
  EXPECT_FALSE(ParseCluster("bare").ok());
}

TEST(ReplElectionTest, ChooseLeaderIsDeterministic) {
  ReplStatus a;
  a.node_id = "a";
  a.epoch = 3;
  a.applied_version = 10;
  ReplStatus b = a;
  b.node_id = "b";
  // Higher epoch wins regardless of position.
  b.epoch = 4;
  b.applied_version = 1;
  EXPECT_EQ(ChooseLeader({a, b}), "b");
  // Same epoch: higher position wins (no acked commit may be lost).
  b.epoch = 3;
  b.applied_version = 11;
  EXPECT_EQ(ChooseLeader({a, b}), "b");
  // Full tie: min node id, so every candidate picks the same winner.
  b.applied_version = 10;
  EXPECT_EQ(ChooseLeader({a, b}), "a");
  EXPECT_EQ(ChooseLeader({b, a}), "a");
  EXPECT_EQ(ChooseLeader({}), "");
}

TEST(ReplClientTest, TransportBackoffIsDeterministicAndCapped) {
  ClientOptions options;
  options.initial_backoff_micros = 10'000;
  options.max_backoff_micros = 100'000;
  const uint64_t first = TransportBackoffMicros(options, "key", 1);
  EXPECT_EQ(first, TransportBackoffMicros(options, "key", 1));
  for (uint64_t attempt = 1; attempt <= 12; ++attempt) {
    const uint64_t delay = TransportBackoffMicros(options, "key", attempt);
    EXPECT_GE(delay, 10'000u);
    // Cap plus the half-cap jitter width.
    EXPECT_LE(delay, 100'000u + 50'001u);
  }
  // Distinct keys de-synchronize (with overwhelming probability for FNV).
  EXPECT_NE(TransportBackoffMicros(options, "key-a", 3),
            TransportBackoffMicros(options, "key-b", 3));
}

// --- Hub unit tests ---------------------------------------------------------

class HubTest : public ::testing::Test {
 protected:
  void SetUp() override { Failpoints::Instance().Reset(); }
  void TearDown() override { Failpoints::Instance().Reset(); }

  ReplicationOptions Options(const std::string& node_id,
                             const std::string& primary_of) {
    ReplicationOptions options;
    options.node_id = node_id;
    options.primary_of = primary_of;
    options.data_dir = FreshDir("hub");
    options.cluster = {{"n1", {"127.0.0.1", 1001}},
                       {"n2", {"127.0.0.1", 1002}},
                       {"n3", {"127.0.0.1", 1003}}};
    return options;
  }
};

TEST_F(HubTest, PrimaryBumpsEpochAcrossRestarts) {
  ReplicationOptions options = Options("n1", "");
  Console console;
  {
    ReplicationHub hub(options, &console);
    ASSERT_TRUE(hub.Initialize().ok());
    EXPECT_EQ(hub.role(), ReplRole::kPrimary);
    EXPECT_EQ(hub.epoch(), 1u);
  }
  {
    // Same data dir: the restarted primary fences its old epoch out.
    ReplicationHub hub(options, &console);
    ASSERT_TRUE(hub.Initialize().ok());
    EXPECT_EQ(hub.epoch(), 2u);
  }
}

TEST_F(HubTest, ResumeFromRingAndSnapshotOtherwise) {
  Console console;
  ReplicationHub hub(Options("n1", ""), &console);
  ASSERT_TRUE(hub.Initialize().ok());
  for (int i = 0; i < 3; ++i) {
    hub.OnJournalRecord(JournalRecordKind::kExtendMkb, "body");
  }
  EXPECT_EQ(hub.position(), 3u);

  std::vector<FrameType> types;
  ReplicationHub::PeerSender collect = [&types](std::string bytes) {
    FrameDecoder decoder;
    decoder.Feed(bytes);
    while (std::optional<Frame> frame = decoder.Next()) {
      types.push_back(frame->type);
    }
  };

  // Caught-up-to-1 with the right epoch: records 2 and 3 replay from the
  // ring; no snapshot.
  ReplHello hello;
  hello.node_id = "n2";
  hello.epoch = hub.epoch();
  hello.applied_version = 1;
  ASSERT_TRUE(hub.Subscribe(hello, 100, collect).ok());
  EXPECT_EQ(types, (std::vector<FrameType>{FrameType::kReplRecord,
                                           FrameType::kReplRecord}));
  EXPECT_EQ(hub.stats().resumes, 1u);

  // Wrong epoch: full snapshot bootstrap.
  types.clear();
  hello.epoch = hub.epoch() + 7;
  ASSERT_TRUE(hub.Subscribe(hello, 101, collect).ok());
  EXPECT_EQ(types, std::vector<FrameType>{FrameType::kReplSnapshot});
  EXPECT_EQ(hub.stats().snapshots_sent, 1u);

  // A position ahead of the primary is impossible to resume: snapshot.
  types.clear();
  hello.epoch = hub.epoch();
  hello.applied_version = 9;
  ASSERT_TRUE(hub.Subscribe(hello, 102, collect).ok());
  EXPECT_EQ(types, std::vector<FrameType>{FrameType::kReplSnapshot});
}

TEST_F(HubTest, RingEvictionForcesSnapshot) {
  Console console;
  ReplicationOptions options = Options("n1", "");
  options.ring_capacity = 2;
  ReplicationHub hub(options, &console);
  ASSERT_TRUE(hub.Initialize().ok());
  for (int i = 0; i < 5; ++i) {
    hub.OnJournalRecord(JournalRecordKind::kExtendMkb, "body");
  }
  std::vector<FrameType> types;
  ReplHello hello;
  hello.node_id = "n2";
  hello.epoch = hub.epoch();
  hello.applied_version = 1;  // records 2..3 already evicted (ring holds 4,5)
  ASSERT_TRUE(hub.Subscribe(hello, 100,
                            [&types](std::string bytes) {
                              FrameDecoder decoder;
                              decoder.Feed(bytes);
                              while (std::optional<Frame> f = decoder.Next()) {
                                types.push_back(f->type);
                              }
                            })
                  .ok());
  EXPECT_EQ(types, std::vector<FrameType>{FrameType::kReplSnapshot});
}

TEST_F(HubTest, SemiSyncWaitsForAcksAndTimesOut) {
  Console console;
  ReplicationOptions options = Options("n1", "");
  options.ack_replicas = 1;
  options.ack_timeout_micros = 60'000;
  ReplicationHub hub(options, &console);
  ASSERT_TRUE(hub.Initialize().ok());
  EXPECT_TRUE(hub.RequiresAck());

  hub.OnJournalRecord(JournalRecordKind::kExtendMkb, "body");
  // No subscribed peer: the wait must time out, not hang.
  EXPECT_FALSE(hub.WaitForReplication(1));
  EXPECT_EQ(hub.stats().ack_timeouts, 1u);

  ReplHello hello;
  hello.node_id = "n2";
  hello.epoch = hub.epoch();
  hello.applied_version = 0;
  ASSERT_TRUE(hub.Subscribe(hello, 100, [](std::string) {}).ok());
  std::thread acker([&hub] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ReplAck ack;
    ack.node_id = "n2";
    ack.epoch = hub.epoch();
    ack.applied_seq = 1;
    ack.applied_version = 0;
    hub.OnAck(ack);
  });
  EXPECT_TRUE(hub.WaitForReplication(1));
  acker.join();
}

TEST_F(HubTest, StalenessBoundTracksHeartbeats) {
  Console console;
  ReplicationHub hub(Options("n3", "n1"), &console);
  ASSERT_TRUE(hub.Initialize().ok());
  ASSERT_EQ(hub.role(), ReplRole::kReplica);

  uint64_t lag = 0;
  bool known = true;
  // Never heard a heartbeat: the lag is unknown and every bound fails.
  EXPECT_FALSE(hub.WithinStalenessBound(1'000'000, &lag, &known));
  EXPECT_FALSE(known);

  ReplHeartbeat heartbeat;
  heartbeat.epoch = hub.epoch();
  heartbeat.tip_version = 5;
  hub.OnPrimaryHeartbeat(heartbeat);
  EXPECT_FALSE(hub.WithinStalenessBound(3, &lag, &known));
  EXPECT_TRUE(known);
  EXPECT_EQ(lag, 5u);
  EXPECT_TRUE(hub.WithinStalenessBound(5, &lag, &known));

  hub.SetAppliedPosition(5, 0);
  EXPECT_TRUE(hub.WithinStalenessBound(0, &lag, &known));
  EXPECT_EQ(lag, 0u);
}

TEST_F(HubTest, VotesArePersistedOncePerEpoch) {
  Console console;
  const ReplicationOptions options = Options("n3", "n1");
  ReplicationHub hub(options, &console);
  ASSERT_TRUE(hub.Initialize().ok());  // replica, never heard a heartbeat

  ReplVoteReq request;
  request.candidate = "n2";
  request.epoch = hub.epoch() + 5;
  request.last_epoch = hub.epoch();
  request.last_position = 0;
  ReplVote vote = hub.HandleVoteRequest(request);
  EXPECT_TRUE(vote.granted);
  EXPECT_EQ(vote.voter, "n3");
  EXPECT_EQ(vote.epoch, request.epoch);
  // The requested epoch fed the promotion fence.
  EXPECT_GE(hub.observed_epoch(), request.epoch);

  // Same epoch, different candidate: this epoch's vote is already spent.
  ReplVoteReq rival = request;
  rival.candidate = "n1";
  EXPECT_FALSE(hub.HandleVoteRequest(rival).granted);
  // Re-asking for the SAME (epoch, candidate) is idempotent (retries).
  EXPECT_TRUE(hub.HandleVoteRequest(request).granted);
  // Older epochs are never granted.
  ReplVoteReq stale = request;
  stale.epoch = request.epoch - 1;
  EXPECT_FALSE(hub.HandleVoteRequest(stale).granted);
  // Unknown candidates are never granted.
  ReplVoteReq stranger = request;
  stranger.epoch = request.epoch + 10;
  stranger.candidate = "nX";
  EXPECT_FALSE(hub.HandleVoteRequest(stranger).granted);

  // The vote survives a restart: the node must not double-vote after a
  // crash between granting and the candidate promoting.
  ReplicationHub restarted(options, &console);
  ASSERT_TRUE(restarted.Initialize().ok());
  EXPECT_FALSE(restarted.HandleVoteRequest(rival).granted);
  EXPECT_TRUE(restarted.HandleVoteRequest(request).granted);
}

TEST_F(HubTest, VotesApplyTheUpToDateRule) {
  Console console;
  ReplicationHub hub(Options("n3", "n1"), &console);
  ASSERT_TRUE(hub.Initialize().ok());
  hub.SetAppliedPosition(10, 0);

  // A candidate whose log is behind this node's must not be elected: the
  // acked-commit quorum intersects every vote majority, and this is the
  // check that makes the intersection matter.
  ReplVoteReq behind;
  behind.candidate = "n2";
  behind.epoch = hub.epoch() + 1;
  behind.last_epoch = hub.epoch();
  behind.last_position = 9;
  EXPECT_FALSE(hub.HandleVoteRequest(behind).granted);

  ReplVoteReq even = behind;
  even.epoch = hub.epoch() + 2;
  even.last_position = 10;
  EXPECT_TRUE(hub.HandleVoteRequest(even).granted);
}

TEST_F(HubTest, LivePrimariesAndTheirReplicasRefuseVotes) {
  Console console;
  // A primary never votes someone else into its own job.
  ReplicationHub primary(Options("n1", ""), &console);
  ASSERT_TRUE(primary.Initialize().ok());
  ReplVoteReq request;
  request.candidate = "n2";
  request.epoch = primary.epoch() + 1;
  request.last_epoch = primary.epoch();
  request.last_position = 0;
  EXPECT_FALSE(primary.HandleVoteRequest(request).granted);
  // … but the fence still advances: it can never mint the asked epoch.
  EXPECT_GE(primary.observed_epoch(), request.epoch);

  // A replica inside a live primary lease refuses to depose it.
  Console replica_console;
  ReplicationHub replica(Options("n3", "n1"), &replica_console);
  ASSERT_TRUE(replica.Initialize().ok());
  ReplHeartbeat heartbeat;
  heartbeat.epoch = replica.epoch();
  heartbeat.tip_version = 0;
  replica.OnPrimaryHeartbeat(heartbeat);
  EXPECT_FALSE(replica.HandleVoteRequest(request).granted);
}

TEST_F(HubTest, BootstrapPeersStartUnacked) {
  Console console;
  ReplicationOptions options = Options("n1", "");
  options.ack_replicas = 1;
  options.ack_timeout_micros = 50'000;
  ReplicationHub hub(options, &console);
  ASSERT_TRUE(hub.Initialize().ok());
  for (int i = 0; i < 3; ++i) {
    hub.OnJournalRecord(JournalRecordKind::kExtendMkb, "body");
  }

  // A bootstrapping peer CLAIMS it already applied position 3, but its
  // hello was not resumable — the claim is unverified (its snapshot
  // install is still in flight). It must not satisfy semi-sync.
  ReplHello hello;
  hello.node_id = "n2";
  hello.epoch = 0;  // bootstrap path
  hello.applied_version = 3;
  ASSERT_TRUE(hub.Subscribe(hello, 100, [](std::string) {}).ok());
  EXPECT_FALSE(hub.WaitForReplication(3));

  // Only a real ack counts.
  ReplAck ack;
  ack.node_id = "n2";
  ack.epoch = hub.epoch();
  ack.applied_seq = 3;
  hub.OnAck(ack);
  EXPECT_TRUE(hub.WaitForReplication(3));
}

TEST_F(HubTest, EffectiveAckQuorumIntersectsElections) {
  Console console;
  ReplicationOptions options = Options("n1", "");
  options.cluster["n4"] = {"127.0.0.1", 1004};
  options.cluster["n5"] = {"127.0.0.1", 1005};
  options.ack_replicas = 1;  // configured below the safe floor
  options.ack_timeout_micros = 50'000;
  ReplicationHub hub(options, &console);
  ASSERT_TRUE(hub.Initialize().ok());
  // 5 nodes: primary + 2 acks form a majority, which intersects every
  // 3-of-5 vote quorum — a bare single ack would let a majority that
  // excludes the acked replica elect a shorter log.
  EXPECT_EQ(hub.effective_ack_replicas(), 2u);

  hub.OnJournalRecord(JournalRecordKind::kExtendMkb, "body");
  ReplHello hello;
  hello.node_id = "n2";
  hello.epoch = hub.epoch();
  hello.applied_version = 0;
  ASSERT_TRUE(hub.Subscribe(hello, 100, [](std::string) {}).ok());
  hello.node_id = "n3";
  ASSERT_TRUE(hub.Subscribe(hello, 101, [](std::string) {}).ok());

  ReplAck ack;
  ack.node_id = "n2";
  ack.epoch = hub.epoch();
  ack.applied_seq = 1;
  hub.OnAck(ack);
  // One ack is not a quorum at cluster size 5.
  EXPECT_FALSE(hub.WaitForReplication(1));
  ack.node_id = "n3";
  hub.OnAck(ack);
  EXPECT_TRUE(hub.WaitForReplication(1));

  // ack_replicas = 0 stays an explicit async opt-out.
  ReplicationOptions async_options = Options("n1", "");
  async_options.ack_replicas = 0;
  ReplicationHub async_hub(async_options, &console);
  ASSERT_TRUE(async_hub.Initialize().ok());
  EXPECT_EQ(async_hub.effective_ack_replicas(), 0u);
  EXPECT_FALSE(async_hub.RequiresAck());
}

TEST_F(HubTest, OldEpochResumeStopsAtThePromotionBase) {
  Console console;
  ReplicationHub hub(Options("n1", ""), &console);
  ASSERT_TRUE(hub.Initialize().ok());
  const uint64_t old_epoch = hub.epoch();
  for (int i = 0; i < 3; ++i) {
    hub.OnJournalRecord(JournalRecordKind::kExtendMkb, "body");
  }
  // Re-promotion at position 3: the election certified THIS log through 3.
  ASSERT_TRUE(hub.Demote(ReplRole::kCandidate).ok());
  ASSERT_TRUE(hub.Promote(old_epoch + 4).ok());
  for (int i = 0; i < 2; ++i) {
    hub.OnJournalRecord(JournalRecordKind::kExtendMkb, "body");
  }
  ASSERT_EQ(hub.position(), 5u);

  std::vector<FrameType> types;
  ReplicationHub::PeerSender collect = [&types](std::string bytes) {
    FrameDecoder decoder;
    decoder.Feed(bytes);
    while (std::optional<Frame> frame = decoder.Next()) {
      types.push_back(frame->type);
    }
  };

  // An old-epoch position at or below the promotion base is a certified
  // prefix: resume.
  ReplHello hello;
  hello.node_id = "n2";
  hello.epoch = old_epoch;
  hello.applied_version = 2;
  ASSERT_TRUE(hub.Subscribe(hello, 100, collect).ok());
  EXPECT_EQ(types.size(), 3u);  // records 3, 4, 5
  for (const FrameType type : types) {
    EXPECT_EQ(type, FrameType::kReplRecord);
  }

  // An old-epoch position PAST the base can only be a divergent suffix
  // (records this primary never saw under a dead lineage): bootstrap,
  // even though the ring technically covers the position.
  types.clear();
  hello.applied_version = 4;
  ASSERT_TRUE(hub.Subscribe(hello, 101, collect).ok());
  EXPECT_EQ(types, std::vector<FrameType>{FrameType::kReplSnapshot});

  // The same position under the CURRENT epoch is this lineage: resume.
  types.clear();
  hello.epoch = hub.epoch();
  ASSERT_TRUE(hub.Subscribe(hello, 102, collect).ok());
  EXPECT_EQ(types, std::vector<FrameType>{FrameType::kReplRecord});
}

TEST_F(HubTest, PromoteFencesAndDemoteDropsPeers) {
  Console console;
  ReplicationHub hub(Options("n1", ""), &console);
  ASSERT_TRUE(hub.Initialize().ok());
  hub.OnJournalRecord(JournalRecordKind::kExtendMkb, "body");
  ASSERT_TRUE(hub.Demote(ReplRole::kCandidate).ok());
  EXPECT_EQ(hub.role(), ReplRole::kCandidate);
  EXPECT_EQ(hub.stats().demotions, 1u);
  ASSERT_TRUE(hub.Promote(7).ok());
  EXPECT_EQ(hub.role(), ReplRole::kPrimary);
  EXPECT_EQ(hub.epoch(), 7u);
  // Position is NOT reset: the promoted node's history continues.
  EXPECT_EQ(hub.position(), 1u);
}

// --- Replicated cluster (in process) ----------------------------------------

struct ClusterNode {
  std::string id;
  uint16_t port = 0;
  std::string data_dir;
  std::unique_ptr<ReplicatedNode> node;
};

class ClusterTest : public ::testing::Test {
 protected:
  void SetUp() override { Failpoints::Instance().Reset(); }
  void TearDown() override {
    Failpoints::Instance().Reset();
    for (auto& member : nodes_) {
      if (member.node != nullptr) member.node->Stop();
    }
    nodes_.clear();
  }

  // Reserves ports and data dirs for an n-node cluster; nothing starts yet.
  void Plan(size_t n) {
    for (size_t i = 0; i < n; ++i) {
      ClusterNode member;
      member.id = "n" + std::to_string(i + 1);
      member.port = ReservePort();
      member.data_dir = FreshDir(member.id);
      nodes_.push_back(std::move(member));
    }
  }

  std::map<std::string, NodeAddress> ClusterMap() const {
    std::map<std::string, NodeAddress> cluster;
    for (const ClusterNode& member : nodes_) {
      cluster[member.id] = NodeAddress{"127.0.0.1", member.port};
    }
    return cluster;
  }

  // Starts (or restarts) node `index` with the given primary_of.
  void StartNode(size_t index, const std::string& primary_of,
                 uint32_t ack_replicas = 1,
                 uint64_t ack_timeout_micros = 3'000'000) {
    ClusterNode& member = nodes_[index];
    ReplicatedNodeOptions options;
    options.server.host = "127.0.0.1";
    options.server.port = member.port;
    options.server.worker_threads = 2;
    options.repl.node_id = member.id;
    options.repl.cluster = ClusterMap();
    options.repl.primary_of = primary_of;
    options.repl.data_dir = member.data_dir;
    options.repl.lease_micros = lease_micros_;
    options.repl.heartbeat_micros = 30'000;
    options.repl.ack_replicas = ack_replicas;
    options.repl.ack_timeout_micros = ack_timeout_micros;
    if (snapshot_chunk_bytes_ != 0) {
      options.repl.snapshot_chunk_bytes = snapshot_chunk_bytes_;
    }
    member.node = std::make_unique<ReplicatedNode>();
    const Status started = member.node->Start(options);
    ASSERT_TRUE(started.ok()) << started.ToString();
  }

  NetClient ClientFor(size_t index, int transport_retries = 0) {
    ClientOptions options;
    options.host = "127.0.0.1";
    options.port = nodes_[index].port;
    options.max_transport_retries = transport_retries;
    for (size_t i = 0; i < nodes_.size(); ++i) {
      if (i == index) continue;
      options.nodes.push_back("127.0.0.1:" +
                              std::to_string(nodes_[i].port));
    }
    Result<NetClient> client = NetClient::Connect(options);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return client.MoveValue();
  }

  bool Converged(size_t primary_index) {
    const uint64_t tip = nodes_[primary_index].node->hub().position();
    for (const ClusterNode& member : nodes_) {
      if (member.node == nullptr || member.node->stopped()) continue;
      if (member.node->hub().position() != tip) return false;
    }
    return true;
  }

  std::string ShowMkb(size_t index) {
    NetClient client = ClientFor(index);
    Result<Response> response = client.Run("SHOW MKB");
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.value().code, 0) << response.value().error;
    return response.value().output;
  }

  // Waits until `count` replicas have subscribed to node `index`.
  bool WaitForPeers(size_t index, uint64_t count) {
    return WaitUntil([this, index, count] {
      const ReplicationStats stats = nodes_[index].node->hub().stats();
      return stats.snapshots_sent + stats.resumes >= count;
    });
  }

  std::vector<ClusterNode> nodes_;
  // When non-zero, StartNode overrides snapshot_chunk_bytes (tests shrink
  // it to force multi-chunk bootstrap transfers).
  size_t snapshot_chunk_bytes_ = 0;
  uint64_t lease_micros_ = 400'000;
};

TEST_F(ClusterTest, ShipsApplyAndConvergeByteIdentical) {
  Plan(3);
  StartNode(0, "");
  StartNode(1, "n1");
  StartNode(2, "n1");
  ASSERT_TRUE(WaitForPeers(0, 2));

  NetClient client = ClientFor(0);
  for (int i = 1; i <= 8; ++i) {
    Result<Response> response = client.Run(Define(i));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response.value().code, 0) << response.value().error;
  }
  ASSERT_TRUE(WaitUntil([this] { return Converged(0); }));

  const std::string primary_mkb = ShowMkb(0);
  EXPECT_NE(primary_mkb.find("Rel8"), std::string::npos);
  EXPECT_EQ(primary_mkb, ShowMkb(1));
  EXPECT_EQ(primary_mkb, ShowMkb(2));

  // The replicas applied through their own WALs: records_applied moved.
  EXPECT_GT(nodes_[1].node->hub().stats().records_applied, 0u);
  EXPECT_GT(nodes_[2].node->hub().stats().records_applied, 0u);
}

TEST_F(ClusterTest, ReplicaRedirectsWritesToLeader) {
  Plan(3);
  StartNode(0, "");
  StartNode(1, "n1");
  StartNode(2, "n1");
  ASSERT_TRUE(WaitForPeers(0, 2));

  // Raw client (no retries): the replica refuses with a leader hint.
  NetClient raw = ClientFor(1);
  Result<Response> refused = raw.Run(Define(1));
  ASSERT_TRUE(refused.ok());
  EXPECT_EQ(refused.value().code,
            static_cast<int32_t>(StatusCode::kFailedPrecondition));
  EXPECT_NE(refused.value().error.find(
                "leader=127.0.0.1:" + std::to_string(nodes_[0].port)),
            std::string::npos)
      << refused.value().error;

  // Cluster-aware client: the redirect is chased automatically.
  NetClient chasing = ClientFor(1, /*transport_retries=*/8);
  Result<Response> applied = chasing.Run(Define(2));
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied.value().code, 0) << applied.value().error;
  EXPECT_EQ(chasing.leader_hint(),
            "127.0.0.1:" + std::to_string(nodes_[0].port));

  // Reads are always served by replicas.
  Result<Response> read = raw.Run("SHOW VIEWS");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().code, 0);
}

TEST_F(ClusterTest, SemiSyncRefusesUnackedCommits) {
  Plan(3);
  StartNode(0, "", /*ack_replicas=*/1, /*ack_timeout_micros=*/200'000);
  // No replicas at all: the commit is locally durable but cannot be acked,
  // so the client must see an explicit error, not a silent success.
  NetClient client = ClientFor(0);
  Result<Response> response = client.Run(Define(1));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().code,
            static_cast<int32_t>(StatusCode::kInternal));
  EXPECT_NE(response.value().error.find("replication ack timeout"),
            std::string::npos)
      << response.value().error;
  EXPECT_GE(nodes_[0].node->hub().stats().ack_timeouts, 1u);
}

TEST_F(ClusterTest, ReadStalenessBoundGatesReplicaReads) {
  Plan(3);
  StartNode(0, "");
  StartNode(1, "n1");
  StartNode(2, "n1");
  ASSERT_TRUE(WaitForPeers(0, 2));
  NetClient primary = ClientFor(0);
  ASSERT_EQ(primary.Run(Define(1)).value().code, 0);
  ASSERT_TRUE(WaitUntil([this] { return Converged(0); }));

  NetClient replica = ClientFor(1);
  // The knob echoes, and a fresh replica passes a generous bound.
  Result<Response> set = replica.Run("READ STALENESS 1000000");
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set.value().output, "read staleness bound = 1000000\n");
  ASSERT_TRUE(WaitUntil([this, &replica] {
    const Result<Response> read = replica.Run("SHOW MKB");
    return read.ok() && read.value().code == 0;
  }));

  // Bound 0 right after a write: the replica may pass only once it has
  // caught up AND heard a heartbeat carrying the new tip.
  Result<Response> exact = replica.Run("READ STALENESS 0");
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact.value().output, "read staleness bound = 0\n");
  ASSERT_EQ(primary.Run(Define(2)).value().code, 0);
  std::string mkb;
  ASSERT_TRUE(WaitUntil([&replica, &mkb] {
    const Result<Response> read = replica.Run("SHOW MKB");
    if (!read.ok() || read.value().code != 0) return false;
    mkb = read.value().output;
    return true;
  }));
  EXPECT_NE(mkb.find("Rel2"), std::string::npos) << mkb;

  // NONE resets the bound.
  Result<Response> none = replica.Run("READ STALENESS NONE");
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none.value().output, "read staleness bound = none\n");
  // Malformed bound: explicit error.
  Result<Response> bad = replica.Run("READ STALENESS soon");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad.value().code,
            static_cast<int32_t>(StatusCode::kInvalidArgument));
}

TEST_F(ClusterTest, ReplicaSessionEnforcesTheBoundItsEchoNames) {
  // A replica whose primary never comes up has no live heartbeat, so every
  // finite bound refuses its reads, naming the bound it enforced. A long
  // lease keeps it a replica for the whole test.
  lease_micros_ = 60'000'000;
  Plan(2);
  StartNode(1, "n1");
  NetClient replica = ClientFor(1);
  const auto read_refusal = [&replica] {
    Result<Response> read = replica.Run("SHOW MKB");
    EXPECT_TRUE(read.ok()) << read.status().ToString();
    return read.ok() ? read.value().error : "";
  };
  const auto unsatisfiable = [](const std::string& bound) {
    return "error: replica lag unknown (no live primary heartbeat); "
           "staleness bound " +
           bound + " not satisfiable\n";
  };
  for (const auto& [statement, echo, refusal] :
       std::vector<std::tuple<std::string, std::string, std::string>>{
           {"READ STALENESS 7", "7", unsatisfiable("7")},
           {"READ STALENESS NONE x", "none", ""},
           {"READ STALENESS 5 x", "5", unsatisfiable("5")},
           {"read staleness none", "none", ""},
           {"READ STALENESS 0 trailing words", "0", unsatisfiable("0")},
       }) {
    Result<Response> set = replica.Run(statement);
    ASSERT_TRUE(set.ok()) << set.status().ToString();
    EXPECT_EQ(set.value().code, 0) << statement;
    EXPECT_EQ(set.value().output, "read staleness bound = " + echo + "\n")
        << statement;
    EXPECT_EQ(read_refusal(), refusal) << statement;
  }
  // A refused bound leaves the session's bound as it was (0 here).
  Result<Response> bad = replica.Run("READ STALENESS -5");
  ASSERT_TRUE(bad.ok()) << bad.status().ToString();
  EXPECT_EQ(bad.value().code,
            static_cast<int32_t>(StatusCode::kInvalidArgument));
  EXPECT_EQ(bad.value().error,
            "error: expected a non-negative integer, got -5\n");
  EXPECT_EQ(read_refusal(), unsatisfiable("0"));

  // SHOW REPLICATION with a trailing word is answered by the hub too.
  Result<Response> status = replica.Run("SHOW REPLICATION x");
  ASSERT_TRUE(status.ok()) << status.status().ToString();
  EXPECT_NE(status.value().output.find("role=replica"), std::string::npos)
      << status.value().output;
  EXPECT_NE(status.value().output, "replication: disabled\n");
}

TEST_F(ClusterTest, DataDirWithASpaceRestartsOntoItsCheckpointAndWal) {
  Plan(1);
  nodes_[0].data_dir = FreshDir("data dir");
  StartNode(0, "", /*ack_replicas=*/0);
  ASSERT_FALSE(HasFatalFailure());
  {
    NetClient client = ClientFor(0);
    for (const std::string& statement :
         {Define(1), Define(2),
          "CHECKPOINT '" + nodes_[0].data_dir + "/checkpoint'", Define(3)}) {
      Result<Response> response = client.Run(statement);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      ASSERT_EQ(response.value().code, 0) << response.value().error;
    }
  }
  // Rel1 and Rel2 are only in the checkpoint (it reset the WAL), Rel3 only
  // in the WAL.
  nodes_[0].node->Stop();
  nodes_[0].node->WaitUntilStopped();
  nodes_[0].node.reset();
  StartNode(0, "", /*ack_replicas=*/0);
  ASSERT_FALSE(HasFatalFailure());
  const std::string mkb = ShowMkb(0);
  for (const char* relation : {"IS1.Rel1(", "IS2.Rel2(", "IS3.Rel3("}) {
    EXPECT_NE(mkb.find(relation), std::string::npos) << relation << "\n"
                                                     << mkb;
  }
}

TEST_F(ClusterTest, ShowReplicationReportsRolesAndLag) {
  Plan(3);
  StartNode(0, "");
  StartNode(1, "n1");
  StartNode(2, "n1");
  ASSERT_TRUE(WaitForPeers(0, 2));

  NetClient primary = ClientFor(0);
  Result<Response> status = primary.Run("SHOW REPLICATION");
  ASSERT_TRUE(status.ok());
  EXPECT_NE(status.value().output.find("role=primary"), std::string::npos)
      << status.value().output;
  EXPECT_NE(status.value().output.find("replica n2"), std::string::npos);
  EXPECT_NE(status.value().output.find("replica n3"), std::string::npos);

  NetClient replica = ClientFor(1);
  Result<Response> replica_status = replica.Run("SHOW REPLICATION");
  ASSERT_TRUE(replica_status.ok());
  EXPECT_NE(replica_status.value().output.find("role=replica"),
            std::string::npos)
      << replica_status.value().output;
}

TEST_F(ClusterTest, FailoverElectsSurvivorWithoutLosingAckedCommits) {
  Plan(3);
  StartNode(0, "");
  StartNode(1, "n1");
  StartNode(2, "n1");
  ASSERT_TRUE(WaitForPeers(0, 2));

  NetClient client = ClientFor(0, /*transport_retries=*/10);
  for (int i = 1; i <= 5; ++i) {
    Result<Response> response = client.Run(Define(i));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response.value().code, 0) << response.value().error;
  }
  ASSERT_TRUE(WaitUntil([this] { return Converged(0); }));

  // Kill the primary abruptly. Survivors must elect within a few leases.
  nodes_[0].node->Stop();
  size_t new_primary = 0;
  ASSERT_TRUE(WaitUntil([this, &new_primary] {
    for (size_t i = 1; i < nodes_.size(); ++i) {
      if (nodes_[i].node->hub().role() == ReplRole::kPrimary) {
        new_primary = i;
        return true;
      }
    }
    return false;
  }));
  EXPECT_GT(nodes_[new_primary].node->hub().epoch(), 1u);

  // Every acked commit survived the failover.
  ASSERT_TRUE(WaitUntil([this, new_primary] {
    const std::string mkb = ShowMkb(new_primary);
    for (int i = 1; i <= 5; ++i) {
      if (mkb.find("Rel" + std::to_string(i)) == std::string::npos) {
        return false;
      }
    }
    return true;
  }));

  // The cluster-aware client fails over: its old connection is dead, the
  // node list + leader redirect find the new primary. Semi-sync needs the
  // remaining replica subscribed to the new primary first.
  ASSERT_TRUE(WaitUntil([this, new_primary] {
    const ReplicationStats stats = nodes_[new_primary].node->hub().stats();
    return stats.snapshots_sent + stats.resumes >= 1;
  }));
  Result<Response> after = client.Run(Define(6));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_EQ(after.value().code, 0) << after.value().error;
  EXPECT_GE(client.transport_retries(), 1u);

  // The old primary rejoins as a replica of the new leader; its unacked
  // suffix (none here) is discarded by the snapshot/resume handshake, and
  // it converges to byte-identical state.
  StartNode(0, nodes_[new_primary].id);
  ASSERT_TRUE(WaitUntil([this, new_primary] {
    return nodes_[0].node->hub().role() == ReplRole::kReplica &&
           nodes_[0].node->hub().position() ==
               nodes_[new_primary].node->hub().position();
  }));
  EXPECT_EQ(ShowMkb(0), ShowMkb(new_primary));
}

TEST_F(ClusterTest, ChunkedSnapshotBootstrapsLateJoiner) {
  Plan(3);
  // Checkpoints outgrow the frame payload cap in production; 64-byte chunks
  // force the same multi-frame transfer shape at test scale.
  snapshot_chunk_bytes_ = 64;
  StartNode(0, "");
  StartNode(1, "n1");
  ASSERT_TRUE(WaitForPeers(0, 1));

  NetClient client = ClientFor(0);
  for (int i = 1; i <= 6; ++i) {
    Result<Response> response = client.Run(Define(i));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response.value().code, 0) << response.value().error;
  }

  // The late joiner bootstraps from a checkpoint many times the chunk size:
  // it must reassemble the transfer and install atomically.
  StartNode(2, "n1");
  ASSERT_TRUE(WaitUntil([this] { return Converged(0); }));
  EXPECT_GE(nodes_[2].node->hub().stats().snapshots_installed, 1u);
  EXPECT_EQ(ShowMkb(2), ShowMkb(0));
}

TEST_F(ClusterTest, RecordTooLargeForAFrameFallsBackToSnapshots) {
  Plan(3);
  StartNode(0, "");
  StartNode(1, "n1");
  StartNode(2, "n1");
  ASSERT_TRUE(WaitForPeers(0, 2));
  NetClient client = ClientFor(0);
  ASSERT_EQ(client.Run(Define(1)).value().code, 0);
  ASSERT_TRUE(WaitUntil([this] { return Converged(0); }));

  // A few hundred views padded with long literals: the load's one record
  // is larger than any frame may be.
  const std::string pad(16 * 1024, 'p');
  std::string pool;
  for (int i = 0; i < 300; ++i) {
    pool += "-- VIEW active\nCREATE VIEW Big" + std::to_string(i) +
            " (VE = ~) AS SELECT R.Name (true, true) FROM Rel1 R (true, "
            "true) WHERE (R.Name = '" +
            pad + "') (false, true);\n\n";
  }
  ASSERT_GT(pool.size(), kMaxPayload);
  const std::string path = FreshDir("big_pool") + "/big.views";
  ASSERT_TRUE(AtomicWriteFile(path, pool).ok());
  const uint64_t snapshots = nodes_[0].node->hub().stats().snapshots_sent;

  // The record stays off the stream: every replica is sent back to a
  // fresh hello and bootstraps from a snapshot. Until they have, the load
  // (durable on the primary) may answer that it was not acknowledged.
  Result<Response> loaded = client.Run("LOAD VIEWS '" + path + "'");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  if (loaded.value().code != 0) {
    EXPECT_NE(loaded.value().error.find("replication ack timeout"),
              std::string::npos)
        << loaded.value().error;
  }
  ASSERT_TRUE(WaitUntil([this] { return Converged(0); }));
  EXPECT_GE(nodes_[0].node->hub().stats().snapshots_sent, snapshots + 2);
  const std::pair<std::string, std::string> reads[] = {
      {"SHOW VIEWS", "[active] Big299\n"},
      {"SHOW VERSIONS", "register 300 views (bulk)"}};
  for (const auto& [statement, loaded_line] : reads) {
    std::string outputs[3];
    for (size_t i = 0; i < 3; ++i) {
      NetClient reader = ClientFor(i);
      Result<Response> response = reader.Run(statement);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      ASSERT_EQ(response.value().code, 0) << response.value().error;
      outputs[i] = response.value().output;
    }
    EXPECT_NE(outputs[0].find(loaded_line), std::string::npos)
        << statement << ": " << outputs[0];
    EXPECT_EQ(outputs[1], outputs[0]) << statement;
    EXPECT_EQ(outputs[2], outputs[0]) << statement;
  }
}

TEST_F(ClusterTest, ReplFailpointsInErrorModeSelfHeal) {
  Plan(3);
  StartNode(0, "");
  StartNode(1, "n1");
  StartNode(2, "n1");
  ASSERT_TRUE(WaitForPeers(0, 2));
  NetClient client = ClientFor(0);

  // ship.record: one peer's stream breaks with a goodbye; it re-syncs.
  Failpoints::Instance().Arm(fp::kReplShipRecord, FailpointAction::kError);
  ASSERT_EQ(client.Run(Define(1)).value().code, 0);
  ASSERT_TRUE(WaitUntil([this] { return Converged(0); }));

  // apply.record: a replica abandons the stream and re-syncs from a fresh
  // hello.
  Failpoints::Instance().Arm(fp::kReplApplyRecord, FailpointAction::kError);
  ASSERT_EQ(client.Run(Define(2)).value().code, 0);
  ASSERT_TRUE(WaitUntil([this] { return Converged(0); }));

  // ack.send: one dropped ack; the other replica's ack keeps semi-sync
  // moving and the next ack carries the position forward.
  Failpoints::Instance().Arm(fp::kReplAckSend, FailpointAction::kError);
  ASSERT_EQ(client.Run(Define(3)).value().code, 0);
  ASSERT_TRUE(WaitUntil([this] { return Converged(0); }));

  const std::string primary_mkb = ShowMkb(0);
  EXPECT_EQ(primary_mkb, ShowMkb(1));
  EXPECT_EQ(primary_mkb, ShowMkb(2));
  const ReplicationStats n2 = nodes_[1].node->hub().stats();
  const ReplicationStats n3 = nodes_[2].node->hub().stats();
  EXPECT_GT(n2.stream_breaks + n3.stream_breaks, 0u);
}

TEST_F(ClusterTest, ReplicaRestartResumesFromLocalWal) {
  Plan(3);
  StartNode(0, "");
  StartNode(1, "n1");
  StartNode(2, "n1");
  ASSERT_TRUE(WaitForPeers(0, 2));
  NetClient client = ClientFor(0);
  for (int i = 1; i <= 4; ++i) {
    ASSERT_EQ(client.Run(Define(i)).value().code, 0);
  }
  ASSERT_TRUE(WaitUntil([this] { return Converged(0); }));

  // Restart replica n3: it recovers from its own checkpoint+wal and
  // re-subscribes (snapshot or resume — either way it converges).
  nodes_[2].node->Stop();
  nodes_[2].node.reset();
  ASSERT_EQ(client.Run(Define(5)).value().code, 0);
  StartNode(2, "n1");
  ASSERT_TRUE(WaitUntil([this] { return Converged(0); }));
  EXPECT_EQ(ShowMkb(0), ShowMkb(2));
}

// --- Client transport retries (standalone servers) --------------------------

TEST(ClientFailoverTest, RetriesAcrossNodeListOnTransportError) {
  Console console_a;
  Console console_b;
  ServerOptions server_options;
  Server server_a(&console_a, server_options);
  Server server_b(&console_b, server_options);
  ASSERT_TRUE(server_a.Start().ok());
  ASSERT_TRUE(server_b.Start().ok());

  ClientOptions options;
  options.host = "127.0.0.1";
  options.port = server_a.port();
  options.nodes = {"127.0.0.1:" + std::to_string(server_b.port())};
  options.max_transport_retries = 5;
  options.initial_backoff_micros = 1'000;
  options.max_backoff_micros = 20'000;
  Result<NetClient> client = NetClient::Connect(options);
  ASSERT_TRUE(client.ok());
  ASSERT_EQ(client.value().Run("SHOW MKB").value().code, 0);

  // Kill A: the next statement reconnects to B through the node list.
  server_a.Stop();
  server_a.WaitUntilStopped();
  Result<Response> response = client.value().Run("SHOW MKB");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().code, 0);
  EXPECT_GE(client.value().transport_retries(), 1u);

  server_b.Stop();
  server_b.WaitUntilStopped();
}

TEST(ClientFailoverTest, DefaultClientStillFailsFast) {
  Console console;
  Server server(&console, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  ClientOptions options;
  options.host = "127.0.0.1";
  options.port = server.port();
  Result<NetClient> client = NetClient::Connect(options);
  ASSERT_TRUE(client.ok());
  server.Stop();
  server.WaitUntilStopped();
  // max_transport_retries = 0: the lost connection surfaces immediately.
  EXPECT_FALSE(client.value().Run("SHOW MKB").ok());
  EXPECT_EQ(client.value().transport_retries(), 0u);
}

// --- Session controls without a cluster -------------------------------------

TEST(PlainServerTest, ReplicationStatementsDegradeGracefully) {
  Console console;
  Server server(&console, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  ClientOptions options;
  options.host = "127.0.0.1";
  options.port = server.port();
  Result<NetClient> client = NetClient::Connect(options);
  ASSERT_TRUE(client.ok());

  Result<Response> show = client.value().Run("SHOW REPLICATION");
  ASSERT_TRUE(show.ok());
  EXPECT_EQ(show.value().output, "replication: disabled\n");

  Result<Response> bound = client.value().Run("READ STALENESS 42");
  ASSERT_TRUE(bound.ok());
  EXPECT_EQ(bound.value().output, "read staleness bound = 42\n");

  // Without a hub the bound never gates anything.
  EXPECT_EQ(client.value().Run("SHOW MKB").value().code, 0);
  server.Stop();
  server.WaitUntilStopped();
}

// --- Metrics endpoint --------------------------------------------------------

TEST_F(ClusterTest, MetricsEndpointServesAdmissionAndReplicationGauges) {
  Plan(3);
  // Start the primary with a metrics listener.
  {
    ClusterNode& member = nodes_[0];
    ReplicatedNodeOptions options;
    options.server.host = "127.0.0.1";
    options.server.port = member.port;
    options.repl.node_id = member.id;
    options.repl.cluster = ClusterMap();
    options.repl.data_dir = member.data_dir;
    options.repl.lease_micros = lease_micros_;
    options.repl.heartbeat_micros = 30'000;
    options.repl.ack_replicas = 0;
    options.metrics_port = ReservePort();
    member.node = std::make_unique<ReplicatedNode>();
    ASSERT_TRUE(member.node->Start(options).ok());
  }
  StartNode(1, "n1", /*ack_replicas=*/0);
  StartNode(2, "n1", /*ack_replicas=*/0);
  ASSERT_TRUE(WaitForPeers(0, 2));
  NetClient client = ClientFor(0);
  ASSERT_EQ(client.Run(Define(1)).value().code, 0);
  // Admission through the server's one queue: with room for one change,
  // the second ENQUEUE is shed and DRAIN completes the first.
  for (const char* statement :
       {"SET SYNC QUEUE 1", "ENQUEUE RENAME RELATION Rel1 TO Rel1x",
        "ENQUEUE RENAME RELATION Rel1 TO Rel1y", "DRAIN"}) {
    ASSERT_EQ(client.Run(statement).value().code, 0) << statement;
  }

  // Scrape over plain HTTP.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(nodes_[0].node->metrics_port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string body;
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    body.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);

  EXPECT_NE(body.find("200 OK"), std::string::npos);
  EXPECT_NE(body.find("eve_server_accepted_total"), std::string::npos);
  EXPECT_NE(body.find("eve_admission_submitted_total 2\n"), std::string::npos)
      << body;
  EXPECT_NE(body.find("eve_admission_shed_total 1\n"), std::string::npos)
      << body;
  EXPECT_NE(body.find("eve_admission_completed_total 1\n"), std::string::npos)
      << body;
  EXPECT_NE(body.find("eve_repl_role 1"), std::string::npos) << body;
  // Journal position: DEFINE's record, then DRAIN's change and its
  // version-commit marker.
  EXPECT_NE(body.find("eve_repl_position 3"), std::string::npos) << body;
  EXPECT_NE(body.find("eve_repl_peer_lag{node=\"n2\"}"), std::string::npos)
      << body;
}

}  // namespace
}  // namespace net
}  // namespace eve
