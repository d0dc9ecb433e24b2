#include "net/replication.h"

#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>

#include "common/cancellation.h"
#include "common/failpoint.h"
#include "common/file_io.h"
#include "common/str_util.h"
#include "net/metrics.h"

namespace eve {
namespace net {

namespace {

uint64_t NowMillis() { return SteadyClock()->NowMicros() / 1000; }

// Blocking connect to host:port; -1 on failure.
int DialBlocking(const std::string& host, uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
          0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

void SetSocketTimeouts(int fd, uint64_t micros) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(micros / 1'000'000);
  tv.tv_usec = static_cast<suseconds_t>(micros % 1'000'000);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

// Sends a complete frame on a blocking socket. False on any socket error.
bool SendAll(int fd, std::string_view bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

// What one blocking read attempt produced.
enum class ReadOutcome { kFrame, kTimeout, kClosed };

// Reads until the decoder yields a frame, the receive timeout fires, or
// the peer closes.
ReadOutcome ReadFrame(int fd, FrameDecoder* decoder, Frame* out) {
  char buf[65536];
  while (true) {
    if (std::optional<Frame> frame = decoder->Next()) {
      *out = std::move(*frame);
      return ReadOutcome::kFrame;
    }
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n == 0) return ReadOutcome::kClosed;
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return ReadOutcome::kTimeout;
      return ReadOutcome::kClosed;
    }
    decoder->Feed(std::string_view(buf, static_cast<size_t>(n)));
  }
}

// EVE_REPL_TRACE=1 in the environment turns on stderr tracing of role
// transitions and stream breaks — the chaos harness reads these lines to
// reconstruct failover timelines across its child processes.
bool TraceEnabled() {
  static const bool enabled = std::getenv("EVE_REPL_TRACE") != nullptr;
  return enabled;
}

void Trace(const std::string& node, const std::string& message) {
  if (!TraceEnabled()) return;
  std::ostringstream os;
  os << "[repl " << node << " t=" << NowMillis() << "ms] " << message << "\n";
  std::cerr << os.str();
}

}  // namespace

std::string_view ReplRoleToString(ReplRole role) {
  switch (role) {
    case ReplRole::kSingle:
      return "single";
    case ReplRole::kPrimary:
      return "primary";
    case ReplRole::kReplica:
      return "replica";
    case ReplRole::kCandidate:
      return "candidate";
  }
  return "unknown";
}

Result<std::map<std::string, NodeAddress>> ParseCluster(
    const std::string& spec) {
  std::map<std::string, NodeAddress> cluster;
  for (const std::string& entry : Split(spec, ',')) {
    const std::string_view trimmed = Trim(entry);
    if (trimmed.empty()) continue;
    const size_t eq = trimmed.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      return Status::InvalidArgument(
          "cluster entry expects <node>=<host>:<port>, got: " +
          std::string(trimmed));
    }
    const std::string node(Trim(trimmed.substr(0, eq)));
    Result<NodeAddress> address =
        ParseNodeAddress(std::string(Trim(trimmed.substr(eq + 1))));
    if (!address.ok()) return address.status();
    if (!cluster.emplace(node, address.value()).second) {
      return Status::InvalidArgument("duplicate cluster node: " + node);
    }
  }
  if (cluster.empty()) {
    return Status::InvalidArgument("empty cluster spec");
  }
  return cluster;
}

std::string ChooseLeader(const std::vector<ReplStatus>& candidates) {
  const ReplStatus* best = nullptr;
  for (const ReplStatus& candidate : candidates) {
    if (candidate.node_id.empty()) continue;
    if (best == nullptr || candidate.epoch > best->epoch ||
        (candidate.epoch == best->epoch &&
         (candidate.applied_version > best->applied_version ||
          (candidate.applied_version == best->applied_version &&
           candidate.node_id < best->node_id)))) {
      best = &candidate;
    }
  }
  return best == nullptr ? "" : best->node_id;
}

// --- ReplicationHub ---------------------------------------------------------

ReplicationHub::ReplicationHub(ReplicationOptions options, Console* console)
    : options_(std::move(options)), console_(console) {}

Status ReplicationHub::Initialize() {
  if (options_.node_id.empty()) {
    return Status::InvalidArgument("replication requires a node id");
  }
  if (options_.cluster.count(options_.node_id) == 0) {
    return Status::InvalidArgument("node " + options_.node_id +
                                   " is not in the cluster spec");
  }
  uint64_t persisted = 0;
  const Result<std::string> state =
      ReadFileToString(options_.data_dir + "/node_state");
  if (state.ok()) {
    std::istringstream is(state.value());
    std::string word;
    is >> word >> persisted;
    if (word != "epoch") {
      return Status::ParseError("bad node_state file: " + state.value());
    }
    uint64_t observed = 0;
    if (is >> word >> observed && word == "observed") {
      observed_epoch_.store(std::max(observed, persisted));
    } else {
      observed_epoch_.store(persisted);
    }
    // The vote ledger survives restarts: a node that voted, crashed and
    // came back must not vote again in the same epoch.
    uint64_t voted_epoch = 0;
    std::string voted_for;
    if (is >> word >> voted_epoch >> voted_for && word == "voted") {
      std::lock_guard<std::mutex> lock(state_mu_);
      voted_epoch_ = voted_epoch;
      voted_for_ = voted_for;
    }
  }
  if (options_.primary_of.empty()) {
    // Fresh primary: a new epoch fences out anything the previous
    // incarnation shipped but did not replicate.
    EVE_RETURN_IF_ERROR(PersistEpoch(persisted + 1));
    epoch_.store(persisted + 1);
    role_.store(ReplRole::kPrimary);
    last_peer_contact_micros_.store(SteadyClock()->NowMicros());
  } else {
    const auto it = options_.cluster.find(options_.primary_of);
    if (it == options_.cluster.end()) {
      return Status::InvalidArgument("unknown primary node: " +
                                     options_.primary_of);
    }
    epoch_.store(persisted);
    role_.store(ReplRole::kReplica);
    std::lock_guard<std::mutex> lock(mu_);
    primary_address_ = it->second.ToString();
  }
  return Status::OK();
}

Status ReplicationHub::WriteNodeStateLocked(uint64_t epoch) {
  std::error_code ec;
  std::filesystem::create_directories(options_.data_dir, ec);
  std::string text = "epoch " + std::to_string(epoch) + "\nobserved " +
                     std::to_string(observed_epoch_.load()) + "\n";
  if (voted_epoch_ != 0 && !voted_for_.empty()) {
    text += "voted " + std::to_string(voted_epoch_) + " " + voted_for_ + "\n";
  }
  return AtomicWriteFile(options_.data_dir + "/node_state", text);
}

Status ReplicationHub::PersistEpoch(uint64_t epoch) {
  uint64_t observed = observed_epoch_.load();
  while (observed < epoch &&
         !observed_epoch_.compare_exchange_weak(observed, epoch)) {
  }
  std::lock_guard<std::mutex> lock(state_mu_);
  return WriteNodeStateLocked(epoch);
}

void ReplicationHub::NoteObservedEpoch(uint64_t epoch) {
  uint64_t observed = observed_epoch_.load();
  if (epoch <= observed) return;
  while (observed < epoch &&
         !observed_epoch_.compare_exchange_weak(observed, epoch)) {
  }
  // Best-effort persistence: losing this write only weakens the fence back
  // to the last persisted epoch — the election max over live statuses
  // still prevents collisions in every partition the node can see.
  std::lock_guard<std::mutex> lock(state_mu_);
  (void)WriteNodeStateLocked(epoch_.load());
}

ReplVote ReplicationHub::HandleVoteRequest(const ReplVoteReq& request) {
  ReplVote vote;
  vote.voter = options_.node_id;
  vote.epoch = request.epoch;
  vote.granted = false;
  // The requested epoch feeds the promotion fence whether or not the vote
  // is granted: this node must never later mint an epoch the candidate
  // may already be using.
  NoteObservedEpoch(request.epoch);
  if (request.candidate.empty() ||
      options_.cluster.count(request.candidate) == 0) {
    return vote;
  }
  const uint64_t own_epoch = epoch_.load();
  if (request.epoch <= own_epoch) return vote;
  // Up-to-date rule: never elect a leader whose log is behind this
  // node's — the acked-commit quorum intersects every vote majority, so
  // this check is what makes acknowledged commits survive elections.
  if (request.last_epoch < own_epoch ||
      (request.last_epoch == own_epoch &&
       request.last_position < position_.load())) {
    return vote;
  }
  // Leader stickiness: a replica still inside its primary's lease refuses
  // to depose it, so a candidate partitioned from a healthy primary (but
  // not from its replicas) cannot assemble a majority against it.
  const ReplRole role = role_.load();
  if (role == ReplRole::kPrimary || role == ReplRole::kSingle) return vote;
  if (role == ReplRole::kReplica && request.candidate != options_.node_id) {
    const uint64_t heard = last_heartbeat_micros_.load();
    if (heard != 0 &&
        SteadyClock()->NowMicros() - heard <= options_.lease_micros) {
      return vote;
    }
  }
  std::lock_guard<std::mutex> lock(state_mu_);
  if (request.epoch < voted_epoch_ ||
      (request.epoch == voted_epoch_ && voted_for_ != request.candidate)) {
    return vote;  // already spent this epoch's vote on someone else
  }
  const uint64_t prev_epoch = voted_epoch_;
  const std::string prev_for = voted_for_;
  voted_epoch_ = request.epoch;
  voted_for_ = request.candidate;
  // The grant is only valid once durable: an unpersisted vote could be
  // re-cast for a different candidate after a restart.
  if (!WriteNodeStateLocked(epoch_.load()).ok()) {
    voted_epoch_ = prev_epoch;
    voted_for_ = prev_for;
    return vote;
  }
  vote.granted = true;
  Trace(options_.node_id, "voted for " + request.candidate + " in epoch " +
                              std::to_string(request.epoch));
  return vote;
}

void ReplicationHub::OnJournalRecord(JournalRecordKind kind,
                                     std::string_view body) {
  if (role_.load() != ReplRole::kPrimary) return;
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t seq = position_.fetch_add(1) + 1;
  ShippedRecord shipped;
  shipped.seq = seq;
  shipped.kind = static_cast<uint8_t>(kind);
  shipped.body = std::string(body);
  ReplRecord wire;
  wire.epoch = epoch_.load();
  wire.seq = seq;
  wire.kind = shipped.kind;
  wire.body = shipped.body;
  const std::string payload = EncodeReplRecord(wire);
  if (payload.size() > kMaxPayload) {
    // No frame carries this record: a replica's decoder would skip it and
    // break its stream on the gap, and a resume would re-ship it. Every
    // peer is sent back to a fresh hello instead, and with the ring
    // cleared each one bootstraps from the chunked snapshot, which holds
    // the record's effect.
    ring_.clear();
    for (auto& [id, peer] : peers_) {
      peer.sender(EncodeFrame(FrameType::kGoodbye,
                              "record of " + std::to_string(payload.size()) +
                                  " bytes exceeds the frame limit"));
    }
    peers_.clear();
    return;
  }
  const std::string frame = EncodeFrame(FrameType::kReplRecord, payload);
  ring_.push_back(std::move(shipped));
  while (ring_.size() > options_.ring_capacity) ring_.pop_front();
  for (auto it = peers_.begin(); it != peers_.end();) {
    // An armed ship.record fault breaks exactly ONE peer's stream: that
    // peer gets a goodbye and re-syncs from a fresh hello; the record was
    // never delivered out of order because the peer is dropped before any
    // later record could reach it.
    const Status injected = Failpoints::Instance().Hit(fp::kReplShipRecord);
    if (!injected.ok()) {
      it->second.sender(
          EncodeFrame(FrameType::kGoodbye, "replication stream fault"));
      it = peers_.erase(it);
      continue;
    }
    it->second.sender(frame);
    records_shipped_.fetch_add(1);
    ++it;
  }
}

Status ReplicationHub::Subscribe(const ReplHello& hello, uint64_t session_id,
                                 PeerSender sender) {
  EVE_RETURN_IF_ERROR(Failpoints::Instance().Hit(fp::kReplHello));
  if (role_.load() != ReplRole::kPrimary) {
    Trace(options_.node_id, "refused hello from " + hello.node_id +
                                ": not primary");
    return Status::FailedPrecondition(
        "not primary (role=" + std::string(ReplRoleToString(role_.load())) +
        ")");
  }
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t pos = position_.load();
  const bool caught_up = hello.applied_version == pos;
  const bool in_ring = !ring_.empty() && hello.applied_version + 1 >=
                                             ring_.front().seq &&
                       hello.applied_version <= pos;
  // Resume is offered to any CLEAN replica position the ring still covers.
  // A non-zero hello epoch asserts "my durable state is exactly the acked
  // lineage through applied_version" — an older epoch is fine (the peer
  // slept through a failover) but ONLY up to the position this node held
  // when it was promoted: the election's up-to-date vote rule certifies
  // this primary carried every acked commit at that moment, so an
  // old-epoch position beyond the promotion base can only be a divergent
  // suffix (same seq range, different records) this primary never saw —
  // resuming it would silently merge lineages. Nodes that cannot claim a
  // clean prefix (restarts, failed installs, former primaries with an
  // unreplicated suffix) hello with epoch 0 and bootstrap. A FUTURE epoch
  // is nonsense: bootstrap it too.
  const uint64_t epoch = epoch_.load();
  const bool prefix_certain =
      hello.epoch == epoch ||
      hello.applied_version <= promotion_base_position_.load();
  const bool resumed = hello.epoch != 0 && hello.epoch <= epoch &&
                       prefix_certain && (caught_up || in_ring);
  if (resumed) {
    // Resume: replay the retained tail, then the live stream continues.
    for (const ShippedRecord& record : ring_) {
      if (record.seq <= hello.applied_version) continue;
      ReplRecord wire;
      wire.epoch = epoch_.load();
      wire.seq = record.seq;
      wire.kind = record.kind;
      wire.body = record.body;
      sender(EncodeFrame(FrameType::kReplRecord, EncodeReplRecord(wire)));
      records_shipped_.fetch_add(1);
    }
    resumes_.fetch_add(1);
    Trace(options_.node_id,
          "resumed " + hello.node_id + " from seq " +
              std::to_string(hello.applied_version) + " (tip " +
              std::to_string(pos) + ")");
  } else {
    // Bootstrap: a full checkpoint at the current position. The caller
    // holds the exclusive console lock, so the rendered state corresponds
    // exactly to `pos` — nothing can append between render and register.
    // The checkpoint ships in chunks: it routinely outgrows kMaxPayload,
    // and a frame that cannot be decoded (or queued) would strand the
    // replica in a bootstrap loop forever.
    EVE_RETURN_IF_ERROR(Failpoints::Instance().Hit(fp::kReplSnapshotRender));
    const std::string checkpoint = console_->RenderSnapshotText();
    const size_t chunk_bytes = std::max<size_t>(1, options_.snapshot_chunk_bytes);
    size_t offset = 0;
    do {
      ReplSnapshot chunk;
      chunk.epoch = epoch_.load();
      chunk.version = pos;  // the replication position of this state
      chunk.primary_node = options_.node_id;
      chunk.offset = offset;
      chunk.total = checkpoint.size();
      chunk.checkpoint =
          checkpoint.substr(offset, std::min(chunk_bytes,
                                             checkpoint.size() - offset));
      offset += chunk.checkpoint.size();
      sender(EncodeFrame(FrameType::kReplSnapshot, EncodeReplSnapshot(chunk)));
    } while (offset < checkpoint.size());
    snapshots_sent_.fetch_add(1);
    Trace(options_.node_id,
          "snapshot to " + hello.node_id + " at seq " + std::to_string(pos) +
              " (" + std::to_string(checkpoint.size()) + " bytes, " +
              std::to_string((checkpoint.size() + chunk_bytes - 1) /
                                 chunk_bytes +
                             (checkpoint.empty() ? 1 : 0)) +
              " chunks)");
  }
  Peer peer;
  peer.node_id = hello.node_id;
  peer.session_id = session_id;
  peer.sender = std::move(sender);
  // Only a RESUMED peer's claimed position counts as acked: its prefix
  // was just verified against this lineage. A bootstrapping peer starts
  // at 0 — its snapshot install is still in flight, and counting the
  // hello's unverified claim would let a semi-sync commit be acknowledged
  // against state the replica never durably held.
  peer.acked_seq = resumed ? std::min(hello.applied_version, pos) : 0;
  peer.acked_version = 0;
  peer.last_contact_micros = SteadyClock()->NowMicros();
  peers_[session_id] = std::move(peer);
  last_peer_contact_micros_.store(SteadyClock()->NowMicros());
  return Status::OK();
}

void ReplicationHub::OnAck(const ReplAck& ack) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, peer] : peers_) {
      if (peer.node_id != ack.node_id) continue;
      peer.acked_seq = std::max(peer.acked_seq, ack.applied_seq);
      peer.acked_version = std::max(peer.acked_version, ack.applied_version);
      peer.last_contact_micros = SteadyClock()->NowMicros();
    }
  }
  acks_received_.fetch_add(1);
  last_peer_contact_micros_.store(SteadyClock()->NowMicros());
  ack_cv_.notify_all();
}

void ReplicationHub::OnPeerGone(uint64_t session_id) {
  std::lock_guard<std::mutex> lock(mu_);
  peers_.erase(session_id);
}

void ReplicationHub::BroadcastHeartbeat() {
  if (role_.load() != ReplRole::kPrimary) return;
  ReplHeartbeat heartbeat;
  heartbeat.epoch = epoch_.load();
  heartbeat.tip_version = position_.load();
  heartbeat.primary_node = options_.node_id;
  const std::string frame =
      EncodeFrame(FrameType::kReplHeartbeat, EncodeReplHeartbeat(heartbeat));
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [id, peer] : peers_) peer.sender(frame);
}

uint64_t ReplicationHub::effective_ack_replicas() const {
  const size_t cluster = options_.cluster.size();
  if (cluster <= 1 || options_.ack_replicas == 0) return 0;
  // Clamp UP to floor(cluster/2): primary + acked replicas then form a
  // majority, which intersects every election vote majority — the
  // intersection node's up-to-date vote check blocks any candidate whose
  // log is missing an acked commit. Clamp DOWN to the peer count so a
  // misconfigured count cannot make every commit unackable.
  return std::min<uint64_t>(
      cluster - 1,
      std::max<uint64_t>(options_.ack_replicas, cluster / 2));
}

bool ReplicationHub::RequiresAck() const {
  if (role_.load() != ReplRole::kPrimary) return false;
  return effective_ack_replicas() > 0;
}

bool ReplicationHub::WaitForReplication(uint64_t position) {
  const uint64_t need = effective_ack_replicas();
  if (need == 0) return true;
  std::unique_lock<std::mutex> lock(mu_);
  const bool acked = ack_cv_.wait_for(
      lock, std::chrono::microseconds(options_.ack_timeout_micros),
      [this, position, need] {
        uint64_t count = 0;
        for (const auto& [id, peer] : peers_) {
          if (peer.acked_seq >= position) ++count;
        }
        return count >= need || role_.load() != ReplRole::kPrimary;
      });
  if (!acked || role_.load() != ReplRole::kPrimary) {
    ack_timeouts_.fetch_add(1);
    return false;
  }
  return true;
}

uint64_t ReplicationHub::MicrosSinceReplicaContact() const {
  const uint64_t last = last_peer_contact_micros_.load();
  if (last == 0) return 0;
  const uint64_t now = SteadyClock()->NowMicros();
  return now > last ? now - last : 0;
}

void ReplicationHub::SetAppliedPosition(uint64_t seq, uint64_t version) {
  position_.store(seq);
  applied_version_.store(version);
}

void ReplicationHub::OnPrimaryHeartbeat(const ReplHeartbeat& heartbeat) {
  if (heartbeat.epoch < epoch_.load()) return;  // stale primary
  primary_tip_position_.store(
      std::max(primary_tip_position_.load(), heartbeat.tip_version));
  last_heartbeat_micros_.store(SteadyClock()->NowMicros());
}

std::string ReplicationHub::primary_address() const {
  std::lock_guard<std::mutex> lock(mu_);
  return primary_address_;
}

void ReplicationHub::SetPrimaryAddress(const std::string& address) {
  std::lock_guard<std::mutex> lock(mu_);
  primary_address_ = address;
}

bool ReplicationHub::WithinStalenessBound(uint64_t bound, uint64_t* lag_out,
                                          bool* lag_known_out) const {
  if (role_.load() != ReplRole::kReplica) {
    if (lag_out != nullptr) *lag_out = 0;
    if (lag_known_out != nullptr) *lag_known_out = true;
    return true;
  }
  const uint64_t heard = last_heartbeat_micros_.load();
  const bool known =
      heard != 0 && SteadyClock()->NowMicros() - heard <= options_.lease_micros;
  const uint64_t tip = primary_tip_position_.load();
  const uint64_t applied = position_.load();
  const uint64_t lag = tip > applied ? tip - applied : 0;
  if (lag_out != nullptr) *lag_out = lag;
  if (lag_known_out != nullptr) *lag_known_out = known;
  // An unknown lag (no live heartbeat) violates EVERY bound: the replica
  // cannot prove it is fresh enough.
  return known && lag <= bound;
}

Status ReplicationHub::Promote(uint64_t new_epoch) {
  EVE_RETURN_IF_ERROR(PersistEpoch(new_epoch));
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Keep the ring: it holds the tail this node applied (or shipped) under
    // the old lineage, which the election just certified as canonical. A
    // surviving replica one failover behind resumes from it instead of
    // paying a full snapshot bootstrap.
    peers_.clear();
    primary_address_.clear();
  }
  epoch_.store(new_epoch);
  // Everything at or below this position was certified by the election
  // (the up-to-date vote rule); anything past it under an OLDER epoch is
  // someone else's divergent suffix and must bootstrap, never resume.
  promotion_base_position_.store(position_.load());
  role_.store(ReplRole::kPrimary);
  last_peer_contact_micros_.store(SteadyClock()->NowMicros());
  promotions_.fetch_add(1);
  ack_cv_.notify_all();
  return Status::OK();
}

Status ReplicationHub::Demote(ReplRole to) {
  if (role_.load() == ReplRole::kPrimary) demotions_.fetch_add(1);
  {
    std::lock_guard<std::mutex> lock(mu_);
    // The ring survives demotion too: if this node later WINS an election,
    // its tail is by definition the canonical lineage (ChooseLeader picked
    // the longest log), so serving resumes from it is correct. If it instead
    // rejoins as a replica, InstallSnapshot/AdoptEpoch clears it.
    peers_.clear();
  }
  role_.store(to);
  // Wake semi-sync waiters: their commit can no longer be acked under this
  // node's authority, and the predicate re-check fails on the role.
  ack_cv_.notify_all();
  return Status::OK();
}

Status ReplicationHub::AdoptEpoch(uint64_t epoch) {
  EVE_RETURN_IF_ERROR(PersistEpoch(epoch));
  epoch_.store(epoch);
  // Only snapshot installs adopt epochs, and an install jumps the position
  // to the snapshot's version — possibly BELOW this node's old position.
  // Any retained tail is from the abandoned lineage; mixing it with records
  // applied after the jump would corrupt a later resume. Drop it.
  {
    std::lock_guard<std::mutex> lock(mu_);
    ring_.clear();
  }
  return Status::OK();
}

Status ReplicationHub::RaiseEpoch(uint64_t epoch) {
  if (epoch <= epoch_.load()) return Status::OK();
  EVE_RETURN_IF_ERROR(PersistEpoch(epoch));
  epoch_.store(epoch);
  return Status::OK();
}

void ReplicationHub::RetainApplied(uint64_t seq, uint8_t kind,
                                   std::string_view body) {
  std::lock_guard<std::mutex> lock(mu_);
  ShippedRecord applied;
  applied.seq = seq;
  applied.kind = kind;
  applied.body = std::string(body);
  ring_.push_back(std::move(applied));
  while (ring_.size() > options_.ring_capacity) ring_.pop_front();
}

ReplStatus ReplicationHub::SelfStatus() const {
  ReplStatus status;
  status.node_id = options_.node_id;
  status.role = role_.load();
  status.epoch = epoch_.load();
  status.applied_version = position_.load();
  status.tip_version = status.role == ReplRole::kPrimary
                           ? position_.load()
                           : primary_tip_position_.load();
  if (status.role == ReplRole::kPrimary) {
    const auto it = options_.cluster.find(options_.node_id);
    if (it != options_.cluster.end()) status.primary_hint = it->second.ToString();
  } else {
    std::lock_guard<std::mutex> lock(mu_);
    status.primary_hint = primary_address_;
  }
  return status;
}

std::string ReplicationHub::RenderStatus() const {
  const ReplStatus self = SelfStatus();
  std::ostringstream os;
  os << "replication: node=" << self.node_id << " role="
     << ReplRoleToString(self.role) << " epoch=" << self.epoch
     << " position=" << self.applied_version
     << " version=" << applied_version_.load() << "\n";
  os << "  cluster:";
  for (const auto& [node, address] : options_.cluster) {
    os << " " << node << "=" << address.ToString();
  }
  os << "\n";
  if (self.role == ReplRole::kPrimary) {
    const uint64_t now = SteadyClock()->NowMicros();
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [id, peer] : peers_) {
      const uint64_t pos = position_.load();
      os << "  replica " << peer.node_id << " acked_position="
         << peer.acked_seq << " acked_version=" << peer.acked_version
         << " lag=" << (pos > peer.acked_seq ? pos - peer.acked_seq : 0)
         << " last_contact_ms="
         << (now > peer.last_contact_micros
                 ? (now - peer.last_contact_micros) / 1000
                 : 0)
         << "\n";
    }
  } else {
    uint64_t lag = 0;
    bool known = false;
    WithinStalenessBound(UINT64_MAX, &lag, &known);
    os << "  primary: "
       << (self.primary_hint.empty() ? "(unknown)" : self.primary_hint)
       << "\n";
    os << "  lag: ";
    if (known) {
      os << lag;
    } else {
      os << "unknown (no live heartbeat)";
    }
    os << "\n";
  }
  return os.str();
}

std::string ReplicationHub::MetricsText() const {
  std::ostringstream os;
  os << "eve_repl_role " << static_cast<int>(role_.load()) << "\n";
  os << "eve_repl_epoch " << epoch_.load() << "\n";
  os << "eve_repl_position " << position_.load() << "\n";
  os << "eve_repl_applied_version " << applied_version_.load() << "\n";
  uint64_t lag = 0;
  bool known = false;
  WithinStalenessBound(UINT64_MAX, &lag, &known);
  os << "eve_repl_lag " << lag << "\n";
  os << "eve_repl_lag_known " << (known ? 1 : 0) << "\n";
  os << "eve_repl_records_shipped_total " << records_shipped_.load() << "\n";
  os << "eve_repl_snapshots_sent_total " << snapshots_sent_.load() << "\n";
  os << "eve_repl_resumes_total " << resumes_.load() << "\n";
  os << "eve_repl_acks_received_total " << acks_received_.load() << "\n";
  os << "eve_repl_records_applied_total " << records_applied_.load() << "\n";
  os << "eve_repl_snapshots_installed_total " << snapshots_installed_.load()
     << "\n";
  os << "eve_repl_stream_breaks_total " << stream_breaks_.load() << "\n";
  os << "eve_repl_promotions_total " << promotions_.load() << "\n";
  os << "eve_repl_demotions_total " << demotions_.load() << "\n";
  os << "eve_repl_ack_timeouts_total " << ack_timeouts_.load() << "\n";
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [id, peer] : peers_) {
    const uint64_t pos = position_.load();
    os << "eve_repl_peer_lag{node=\"" << peer.node_id << "\"} "
       << (pos > peer.acked_seq ? pos - peer.acked_seq : 0) << "\n";
  }
  return os.str();
}

ReplicationStats ReplicationHub::stats() const {
  ReplicationStats s;
  s.records_shipped = records_shipped_.load();
  s.snapshots_sent = snapshots_sent_.load();
  s.resumes = resumes_.load();
  s.acks_received = acks_received_.load();
  s.records_applied = records_applied_.load();
  s.snapshots_installed = snapshots_installed_.load();
  s.stream_breaks = stream_breaks_.load();
  s.promotions = promotions_.load();
  s.demotions = demotions_.load();
  s.ack_timeouts = ack_timeouts_.load();
  return s;
}

void ReplicationHub::RecordCrash(const std::string& site) {
  std::lock_guard<std::mutex> lock(crash_mu_);
  if (crashed_site_.empty()) crashed_site_ = site;
}

std::string ReplicationHub::crashed_site() const {
  std::lock_guard<std::mutex> lock(crash_mu_);
  return crashed_site_;
}

// --- ReplicaAgent -----------------------------------------------------------

ReplicaAgent::ReplicaAgent(ReplicationHub* hub, Console* console,
                           Server* server)
    : hub_(hub), console_(console), server_(server) {
  const ReplicationOptions& options = hub_->options();
  lease_config_.lease_ticks = std::max<uint64_t>(1, options.lease_micros / 1000);
  lease_config_.probe_interval_ticks =
      std::max<uint64_t>(1, options.heartbeat_micros / 1000);
  lease_config_.backoff_base_ticks = 5;
  lease_config_.backoff_cap_ticks =
      std::max<uint64_t>(10, lease_config_.lease_ticks / 8);
  lease_config_.jitter_ticks = 3;
}

ReplicaAgent::~ReplicaAgent() { Stop(); }

void ReplicaAgent::Start() {
  primary_lease_ = federation::MakeHealthy(lease_config_, NowMillis());
  thread_ = std::thread([this] { ThreadMain(); });
}

void ReplicaAgent::Stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

bool ReplicaAgent::Stopping() const { return stop_.load(); }

void ReplicaAgent::SleepMicros(uint64_t micros) {
  const uint64_t deadline = SteadyClock()->NowMicros() + micros;
  while (!Stopping() && SteadyClock()->NowMicros() < deadline) {
    const uint64_t left = deadline - SteadyClock()->NowMicros();
    std::this_thread::sleep_for(
        std::chrono::microseconds(std::min<uint64_t>(left, 10'000)));
  }
}

void ReplicaAgent::ThreadMain() {
  try {
    while (!Stopping()) {
      switch (hub_->role()) {
        case ReplRole::kSingle:
        case ReplRole::kPrimary:
          PrimaryTick();
          break;
        case ReplRole::kReplica:
          if (!RunReplicaSession() && !Stopping()) {
            hub_->Demote(ReplRole::kCandidate);
          }
          break;
        case ReplRole::kCandidate:
          RunElection();
          break;
      }
    }
  } catch (const SimulatedCrash& crash) {
    // A crash-armed repl.* site on the agent thread models this whole
    // node's process dying there: record the site and tear the node down
    // abruptly so eved exits 3 and recovery runs from local files.
    hub_->RecordCrash(crash.site());
    server_->Stop();
  }
}

void ReplicaAgent::PrimaryTick() {
  SleepMicros(hub_->options().heartbeat_micros);
  if (Stopping() || hub_->role() != ReplRole::kPrimary) return;
  hub_->BroadcastHeartbeat();
  // Isolation self-demotion: a primary that cannot reach ANY replica for a
  // full lease cannot get commits acked; it steps down so a healed
  // partition cannot produce two nodes accepting writes under live leases.
  if (hub_->cluster_size() > 1 &&
      hub_->MicrosSinceReplicaContact() > hub_->options().lease_micros) {
    Trace(hub_->options().node_id,
          "isolation self-demotion: no replica contact for " +
              std::to_string(hub_->MicrosSinceReplicaContact() / 1000) + "ms");
    std::unique_lock<std::shared_mutex> lock(server_->console_mutex());
    console_->SetSystemJournalAttached(false);
    hub_->Demote(ReplRole::kCandidate);
    // The primary stint may have journaled an unreplicated suffix: the
    // local position is no longer a resumable point on anyone's stream.
    stream_intact_ = false;
  }
}

Status ReplicaAgent::AcceptSnapshotChunk(const ReplSnapshot& chunk) {
  if (chunk.offset == 0) {
    pending_snapshot_ = chunk;
  } else {
    if (!pending_snapshot_.has_value() ||
        pending_snapshot_->epoch != chunk.epoch ||
        pending_snapshot_->version != chunk.version ||
        pending_snapshot_->total != chunk.total ||
        pending_snapshot_->checkpoint.size() != chunk.offset) {
      pending_snapshot_.reset();
      return Status::ParseError("snapshot chunk out of sequence");
    }
    pending_snapshot_->checkpoint.append(chunk.checkpoint);
  }
  if (pending_snapshot_->checkpoint.size() < pending_snapshot_->total) {
    return Status::OK();  // more chunks coming
  }
  const ReplSnapshot assembled = std::move(*pending_snapshot_);
  pending_snapshot_.reset();
  return InstallSnapshot(assembled);
}

Status ReplicaAgent::InstallSnapshot(const ReplSnapshot& snapshot) {
  std::unique_lock<std::shared_mutex> lock(server_->console_mutex());
  // Durable install order matters: reset the journal FIRST, then write the
  // checkpoint. A crash between the two leaves old-checkpoint + empty
  // journal — stale but consistent, and the next hello re-syncs. The
  // reverse order could recover new-checkpoint + old-journal: wrong state.
  // This is also the moment a rejoining old primary's unreplicated journal
  // suffix is discarded.
  Journal* journal = console_->attached_journal();
  if (journal != nullptr) {
    EVE_RETURN_IF_ERROR(journal->Reset());
  }
  EVE_RETURN_IF_ERROR(AtomicWriteFile(
      hub_->options().data_dir + "/checkpoint", snapshot.checkpoint));
  EVE_RETURN_IF_ERROR(console_->InstallSnapshotText(snapshot.checkpoint));
  EVE_RETURN_IF_ERROR(hub_->AdoptEpoch(snapshot.epoch));
  hub_->SetAppliedPosition(snapshot.version, console_->CurrentVersion());
  replayer_ = JournalReplayer();
  stream_intact_ = true;
  hub_->CountSnapshotInstalled();
  Trace(hub_->options().node_id,
        "installed snapshot epoch=" + std::to_string(snapshot.epoch) +
            " seq=" + std::to_string(snapshot.version));
  return Status::OK();
}

Status ReplicaAgent::ApplyRecord(const ReplRecord& record) {
  // error = this record could not be applied; the stream is abandoned and
  // re-synced from a fresh hello. crash = the replica process dies here
  // (thrown, caught in ThreadMain).
  EVE_RETURN_IF_ERROR(Failpoints::Instance().Hit(fp::kReplApplyRecord));
  std::unique_lock<std::shared_mutex> lock(server_->console_mutex());
  JournalRecord local;
  local.kind = static_cast<JournalRecordKind>(record.kind);
  local.body = record.body;
  // WAL first, with the primary's exact bytes: after a restart this
  // replica recovers from checkpoint + wal to exactly the state it acked.
  Journal* journal = console_->attached_journal();
  if (journal != nullptr) {
    EVE_RETURN_IF_ERROR(journal->Append(local.kind, local.body));
  }
  EVE_RETURN_IF_ERROR(console_->ApplyReplicatedRecord(local, &replayer_));
  hub_->SetAppliedPosition(record.seq, console_->CurrentVersion());
  hub_->RetainApplied(record.seq, record.kind, record.body);
  hub_->CountRecordApplied();
  return Status::OK();
}

bool ReplicaAgent::RunReplicaSession() {
  const std::string primary = hub_->primary_address();
  if (primary.empty()) return false;
  const Result<NodeAddress> address = ParseNodeAddress(primary);
  if (!address.ok()) return false;

  const int fd = DialBlocking(address.value().host, address.value().port);
  if (fd < 0) {
    const uint64_t now_ms = NowMillis();
    primary_lease_ =
        federation::OnProbeFailure(primary_lease_, "primary", now_ms);
    if (federation::LeaseExpired(primary_lease_, now_ms)) return false;
    SleepMicros(federation::BackoffDelay(lease_config_, hub_->options().node_id,
                                         ++reconnect_attempt_) *
                1000);
    return true;
  }
  reconnect_attempt_ = 0;
  SetSocketTimeouts(fd, std::max<uint64_t>(hub_->options().heartbeat_micros,
                                           10'000));

  pending_snapshot_.reset();  // a torn transfer never spans sessions
  ReplHello hello;
  hello.node_id = hub_->options().node_id;
  hello.epoch = stream_intact_ ? hub_->epoch() : 0;
  hello.applied_version = stream_intact_ ? hub_->position() : 0;
  if (!SendAll(fd, EncodeFrame(FrameType::kReplHello, EncodeReplHello(hello)))) {
    ::close(fd);
    return true;
  }

  FrameDecoder decoder;
  bool lease_expired = false;
  while (!Stopping() && hub_->role() == ReplRole::kReplica) {
    Frame frame;
    const ReadOutcome outcome = ReadFrame(fd, &decoder, &frame);
    const uint64_t now_ms = NowMillis();
    if (outcome == ReadOutcome::kClosed) {
      // Socket loss alone does not invalidate local state: the next hello
      // announces (epoch, position) and the primary re-ships the gap.
      Trace(hub_->options().node_id, "stream closed by primary");
      primary_lease_ =
          federation::OnProbeFailure(primary_lease_, "primary", now_ms);
      hub_->CountStreamBreak();
      break;
    }
    if (outcome == ReadOutcome::kTimeout) {
      // Silence for a receive-timeout window: one probe failure. The lease
      // decides when silence becomes a failover.
      primary_lease_ =
          federation::OnProbeFailure(primary_lease_, "primary", now_ms);
      if (federation::LeaseExpired(primary_lease_, now_ms)) {
        Trace(hub_->options().node_id, "primary lease expired (silence)");
        lease_expired = true;
        break;
      }
      continue;
    }
    if (frame.type == FrameType::kGoodbye) {
      // The primary dropped us (fault injection, demotion, shutdown). The
      // break itself does not invalidate local state; if records were lost
      // in between, the next resume's seq check catches it and the primary
      // re-ships from our position.
      Trace(hub_->options().node_id, "goodbye from primary: " + frame.payload);
      hub_->CountStreamBreak();
      break;
    }
    if (frame.type == FrameType::kReplSnapshot) {
      Result<ReplSnapshot> chunk = DecodeReplSnapshot(frame.payload);
      if (!chunk.ok() || !AcceptSnapshotChunk(chunk.value()).ok()) {
        // A failed install leaves durable state indeterminate (the journal
        // may already be reset): only a fresh full bootstrap recovers.
        Trace(hub_->options().node_id, "snapshot install failed");
        stream_intact_ = false;
        hub_->CountStreamBreak();
        break;
      }
      primary_lease_ =
          federation::OnProbeSuccess(primary_lease_, "primary", now_ms);
      if (pending_snapshot_.has_value()) continue;  // mid-transfer: no ack yet
    } else if (frame.type == FrameType::kReplRecord) {
      Result<ReplRecord> record = DecodeReplRecord(frame.payload);
      if (record.ok()) hub_->NoteObservedEpoch(record.value().epoch);
      // A primary that accepted our resume streams under its (possibly
      // newer) epoch. The seq check proves our tail is a prefix of its
      // lineage, so adopting the epoch here is what makes cross-failover
      // resume work: acks start carrying the new epoch and the stream
      // continues without a bootstrap.
      if (record.ok() && stream_intact_ && !pending_snapshot_.has_value() &&
          record.value().epoch > hub_->epoch() &&
          record.value().seq == hub_->position() + 1) {
        if (hub_->RaiseEpoch(record.value().epoch).ok()) {
          Trace(hub_->options().node_id,
                "adopted epoch " + std::to_string(record.value().epoch) +
                    " from resumed stream");
        }
      }
      if (!record.ok() || pending_snapshot_.has_value() ||
          record.value().epoch != hub_->epoch() ||
          record.value().seq != hub_->position() + 1) {
        // The stream skipped (or interleaved into a snapshot transfer):
        // local state is still exactly (epoch, position) — resume re-ships
        // the gap, or bootstraps if the primary's epoch moved on.
        Trace(hub_->options().node_id,
              "record break: got " +
                  (record.ok() ? "epoch " + std::to_string(record.value().epoch) +
                                     " seq " + std::to_string(record.value().seq)
                               : std::string("undecodable")) +
                  " at epoch " + std::to_string(hub_->epoch()) + " position " +
                  std::to_string(hub_->position()));
        pending_snapshot_.reset();
        hub_->CountStreamBreak();
        break;
      }
      if (!ApplyRecord(record.value()).ok()) {
        // The WAL may hold the record without it being applied: durable
        // state no longer matches the position, so force a bootstrap.
        Trace(hub_->options().node_id, "record apply failed");
        stream_intact_ = false;
        hub_->CountStreamBreak();
        break;
      }
      primary_lease_ =
          federation::OnProbeSuccess(primary_lease_, "primary", now_ms);
    } else if (frame.type == FrameType::kReplHeartbeat) {
      Result<ReplHeartbeat> heartbeat = DecodeReplHeartbeat(frame.payload);
      if (!heartbeat.ok()) continue;
      hub_->NoteObservedEpoch(heartbeat.value().epoch);
      // Heartbeats only reach subscribed peers, so a newer epoch here means
      // the primary accepted this node's hello under the new lineage —
      // adopt it (unless a bootstrap is mid-flight; the install will).
      if (stream_intact_ && !pending_snapshot_.has_value() &&
          heartbeat.value().epoch > hub_->epoch()) {
        (void)hub_->RaiseEpoch(heartbeat.value().epoch);
      }
      if (heartbeat.value().epoch >= hub_->epoch()) {
        hub_->OnPrimaryHeartbeat(heartbeat.value());
        primary_lease_ =
            federation::OnProbeSuccess(primary_lease_, "primary", now_ms);
      }
    } else {
      continue;  // not a replication frame: ignore
    }
    // Acknowledge applied-through state. A dropped ack (armed fault) stalls
    // semi-sync commits until the next ack carries the position forward.
    const Status ack_fault = Failpoints::Instance().Hit(fp::kReplAckSend);
    if (!ack_fault.ok()) continue;
    ReplAck ack;
    ack.node_id = hub_->options().node_id;
    ack.epoch = hub_->epoch();
    ack.applied_seq = hub_->position();
    ack.applied_version = hub_->applied_version();
    if (!SendAll(fd, EncodeFrame(FrameType::kReplAck, EncodeReplAck(ack)))) {
      hub_->CountStreamBreak();
      break;
    }
  }
  ::close(fd);
  if (lease_expired) return false;
  if (!Stopping() && hub_->role() == ReplRole::kReplica) {
    const uint64_t now_ms = NowMillis();
    if (federation::LeaseExpired(primary_lease_, now_ms)) return false;
    SleepMicros(federation::BackoffDelay(lease_config_, hub_->options().node_id,
                                         ++reconnect_attempt_) *
                1000);
  }
  return true;
}

void ReplicaAgent::BecomeReplicaOf(const std::string& address) {
  Trace(hub_->options().node_id, "becoming replica of " + address);
  std::unique_lock<std::shared_mutex> lock(server_->console_mutex());
  console_->SetSystemJournalAttached(false);
  hub_->SetPrimaryAddress(address);
  hub_->Demote(ReplRole::kReplica);
  // Fresh lease: the (new or recovering) primary gets one full window to
  // start serving before this node considers another election.
  primary_lease_ = federation::MakeHealthy(lease_config_, NowMillis());
  reconnect_attempt_ = 0;
  // stream_intact_ is deliberately KEPT: a clean replica switching (or
  // re-electing) primaries resumes from its position when the epochs still
  // match; the hello's epoch check forces a bootstrap whenever they don't.
}

std::optional<ReplVote> ReplicaAgent::RequestVote(const NodeAddress& address,
                                                  const ReplVoteReq& request) {
  const int fd = DialBlocking(address.host, address.port);
  if (fd < 0) return std::nullopt;
  SetSocketTimeouts(
      fd, std::max<uint64_t>(hub_->options().heartbeat_micros * 2, 100'000));
  if (!SendAll(fd, EncodeFrame(FrameType::kReplVoteReq,
                               EncodeReplVoteReq(request)))) {
    ::close(fd);
    return std::nullopt;
  }
  FrameDecoder decoder;
  while (true) {
    Frame frame;
    if (ReadFrame(fd, &decoder, &frame) != ReadOutcome::kFrame) {
      ::close(fd);
      return std::nullopt;
    }
    if (frame.type != FrameType::kReplVote) continue;
    ::close(fd);
    Result<ReplVote> vote = DecodeReplVote(frame.payload);
    if (!vote.ok()) return std::nullopt;
    return vote.value();
  }
}

std::optional<ReplStatus> ReplicaAgent::ProbeNode(const NodeAddress& address) {
  const int fd = DialBlocking(address.host, address.port);
  if (fd < 0) return std::nullopt;
  SetSocketTimeouts(
      fd, std::max<uint64_t>(hub_->options().heartbeat_micros * 2, 100'000));
  if (!SendAll(fd, EncodeFrame(FrameType::kReplStatusReq, ""))) {
    ::close(fd);
    return std::nullopt;
  }
  FrameDecoder decoder;
  while (true) {
    Frame frame;
    if (ReadFrame(fd, &decoder, &frame) != ReadOutcome::kFrame) {
      ::close(fd);
      return std::nullopt;
    }
    if (frame.type != FrameType::kReplStatus) continue;
    ::close(fd);
    Result<ReplStatus> status = DecodeReplStatus(frame.payload);
    if (!status.ok()) return std::nullopt;
    return status.value();
  }
}

void ReplicaAgent::RunElection() {
  const ReplicationOptions& options = hub_->options();
  std::vector<ReplStatus> statuses;
  statuses.push_back(hub_->SelfStatus());
  size_t reachable = 1;
  for (const auto& [node, address] : options.cluster) {
    if (node == options.node_id || Stopping()) continue;
    std::optional<ReplStatus> status = ProbeNode(address);
    if (!status.has_value()) continue;
    hub_->NoteObservedEpoch(status->epoch);
    ++reachable;
    statuses.push_back(*status);
  }
  if (Stopping()) return;
  if (TraceEnabled()) {
    std::ostringstream view;
    view << "election view:";
    for (const ReplStatus& status : statuses) {
      view << " " << status.node_id << "=" << ReplRoleToString(status.role)
           << "/e" << status.epoch << "/p" << status.applied_version;
    }
    Trace(options.node_id, view.str());
  }
  // The promotion fence: above every epoch in the live view AND every
  // epoch this node has ever heard of. A candidate that could never adopt
  // the current epoch (say, its bootstrap kept failing while the primary
  // is now unreachable) must still not mint a colliding one.
  uint64_t max_epoch = hub_->observed_epoch();
  for (const ReplStatus& status : statuses) {
    max_epoch = std::max(max_epoch, status.epoch);
  }
  // A live primary with a current-or-newer epoch wins outright: rejoin it.
  for (const ReplStatus& status : statuses) {
    if (status.role != ReplRole::kPrimary ||
        status.node_id == options.node_id || status.epoch < hub_->epoch()) {
      continue;
    }
    const auto it = options.cluster.find(status.node_id);
    if (it == options.cluster.end()) continue;
    BecomeReplicaOf(it->second.ToString());
    return;
  }
  // No live primary: with a strict majority reachable, the deterministic
  // rule NOMINATES (everyone who sees the same quorum nominates the same
  // node), but nomination alone is not authority — under asymmetric
  // reachability two candidates can each see a different "majority" and
  // nominate themselves. Promotion additionally requires an explicit vote
  // majority: every node persists at most one vote per epoch, and any two
  // majorities share a voter, so two candidates can never both win the
  // same epoch.
  if (reachable * 2 > options.cluster.size()) {
    const std::string winner = ChooseLeader(statuses);
    if (winner == options.node_id) {
      const uint64_t target_epoch = max_epoch + 1;
      ReplVoteReq ballot;
      ballot.candidate = options.node_id;
      ballot.epoch = target_epoch;
      ballot.last_epoch = hub_->epoch();
      ballot.last_position = hub_->position();
      // Vote for self first (persisted — this epoch's vote is now spent,
      // even across a crash) …
      size_t votes = hub_->HandleVoteRequest(ballot).granted ? 1 : 0;
      // … then canvass the cluster. Unreachable nodes are NOT votes.
      for (const auto& [node, address] : options.cluster) {
        if (node == options.node_id || Stopping()) continue;
        const std::optional<ReplVote> vote = RequestVote(address, ballot);
        if (vote.has_value() && vote->granted &&
            vote->epoch == target_epoch) {
          ++votes;
        }
      }
      if (Stopping()) return;
      if (TraceEnabled()) {
        Trace(options.node_id,
              "vote round for epoch " + std::to_string(target_epoch) + ": " +
                  std::to_string(votes) + "/" +
                  std::to_string(options.cluster.size()));
      }
      // promote fires after the votes are counted, before writes are
      // accepted. error = this round is abandoned (the cluster re-elects);
      // crash = death mid-failover, thrown to ThreadMain.
      if (votes * 2 > options.cluster.size()) {
        const Status injected = Failpoints::Instance().Hit(fp::kReplPromote);
        if (injected.ok()) {
          std::unique_lock<std::shared_mutex> lock(server_->console_mutex());
          console_->SetSystemJournalAttached(true);
          const Status promoted = hub_->Promote(target_epoch);
          Trace(hub_->options().node_id,
                "promoting to epoch " + std::to_string(target_epoch) + ": " +
                    (promoted.ok() ? "ok" : promoted.message()));
          if (promoted.ok()) {
            // Any later replica stint starts from a bootstrap: this node's
            // journal may grow a suffix nobody replicated.
            stream_intact_ = false;
            return;
          }
        }
      }
    } else if (!winner.empty()) {
      // The winner promotes shortly; follow it with a fresh lease. If it
      // dies mid-promotion the lease expires and the survivors re-elect
      // without it.
      const auto it = options.cluster.find(winner);
      if (it != options.cluster.end()) {
        BecomeReplicaOf(it->second.ToString());
        return;
      }
    }
  }
  SleepMicros(federation::BackoffDelay(lease_config_, options.node_id,
                                       ++election_attempt_) *
              1000);
}

// --- ReplicatedNode ---------------------------------------------------------

ReplicatedNode::ReplicatedNode() = default;

ReplicatedNode::~ReplicatedNode() {
  if (agent_ != nullptr) agent_->Stop();
  if (metrics_ != nullptr) metrics_->Stop();
  if (server_ != nullptr) {
    server_->Stop();
    server_->WaitUntilStopped();
  }
}

Status ReplicatedNode::Start(const ReplicatedNodeOptions& options) {
  std::error_code ec;
  std::filesystem::create_directories(options.repl.data_dir, ec);
  if (ec) {
    return Status::Internal("cannot create data dir " +
                            options.repl.data_dir + ": " + ec.message());
  }
  const std::string checkpoint = options.repl.data_dir + "/checkpoint";
  const std::string wal = options.repl.data_dir + "/wal";
  std::ostringstream out;
  std::ostringstream err;
  if (!console_.Run("RECOVER " + QuoteArgument(checkpoint) + " " +
                        QuoteArgument(wal),
                    out, err)) {
    return Status::Internal("recover failed: " + err.str());
  }
  if (!console_.Run("JOURNAL " + QuoteArgument(wal), out, err)) {
    return Status::Internal("journal failed: " + err.str());
  }
  hub_ = std::make_unique<ReplicationHub>(options.repl, &console_);
  EVE_RETURN_IF_ERROR(hub_->Initialize());
  if (hub_->role() == ReplRole::kReplica) {
    console_.SetSystemJournalAttached(false);
  }
  // Tail the WAL into the hub: every durable local append ships (primary)
  // or no-ops (replica — the agent wrote it, the observer sees role).
  console_.attached_journal()->SetObserver(
      [hub = hub_.get()](JournalRecordKind kind, std::string_view body) {
        hub->OnJournalRecord(kind, body);
      });
  server_ = std::make_unique<Server>(&console_, options.server);
  server_->SetReplicationHub(hub_.get());
  EVE_RETURN_IF_ERROR(server_->Start());
  if (options.metrics_port != 0) {
    metrics_ = std::make_unique<MetricsServer>(
        options.metrics_host, options.metrics_port,
        [this] { return RenderMetricsText(*server_, console_, hub_.get()); });
    EVE_RETURN_IF_ERROR(metrics_->Start());
  }
  agent_ = std::make_unique<ReplicaAgent>(hub_.get(), &console_, server_.get());
  agent_->Start();
  return Status::OK();
}

uint16_t ReplicatedNode::port() const {
  return server_ != nullptr ? server_->port() : 0;
}

uint16_t ReplicatedNode::metrics_port() const {
  return metrics_ != nullptr ? metrics_->port() : 0;
}

void ReplicatedNode::BeginDrain() {
  if (agent_ != nullptr) agent_->Stop();
  if (server_ != nullptr) server_->BeginDrain();
}

void ReplicatedNode::Stop() {
  if (agent_ != nullptr) agent_->Stop();
  if (metrics_ != nullptr) metrics_->Stop();
  if (server_ != nullptr) server_->Stop();
}

void ReplicatedNode::WaitUntilStopped() {
  if (server_ != nullptr) server_->WaitUntilStopped();
}

bool ReplicatedNode::stopped() const {
  return server_ == nullptr || server_->stopped();
}

std::string ReplicatedNode::crashed_site() const {
  if (server_ != nullptr && !server_->crashed_site().empty()) {
    return server_->crashed_site();
  }
  return hub_ != nullptr ? hub_->crashed_site() : "";
}

}  // namespace net
}  // namespace eve
