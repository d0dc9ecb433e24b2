// The eved wire protocol: length-prefixed, CRC-guarded frames.
//
// Every frame is
//
//   magic(4, "EVE1") | type(1) | payload_len(4, LE) | crc32(4, LE) | payload
//
// where the CRC covers the payload bytes only (the header fields are
// validated structurally: known magic, known type, bounded length). The
// frame layer is deliberately dumb — it moves opaque payload bytes — and
// the request/response structs below are encoded INTO payloads, so framing
// robustness (torn frames, corruption, resync) is testable without any
// statement semantics.
//
// Robustness contract (FrameDecoder):
//  * A partial frame is not an error: Next() returns nullopt until the
//    remaining bytes arrive (the server's slow-loris sweep, not the
//    decoder, decides when a stalled partial frame becomes an eviction).
//  * A corrupt frame (bad magic, unknown type, oversized length, CRC
//    mismatch) never kills the stream: the decoder drops one byte, scans
//    forward to the next plausible magic, and counts a resync. A client
//    that writes garbage loses frames, not the connection.
//  * Payload length is capped (kMaxPayload) so a hostile length field
//    cannot make the decoder buffer unbounded memory.
//
// Integers are little-endian on the wire, encoded byte-by-byte (the
// decoder never type-puns the input buffer).

#ifndef EVE_NET_PROTOCOL_H_
#define EVE_NET_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/result.h"

namespace eve {
namespace net {

inline constexpr char kMagic[4] = {'E', 'V', 'E', '1'};
inline constexpr size_t kHeaderSize = 13;  // magic 4 + type 1 + len 4 + crc 4
inline constexpr size_t kMaxPayload = 4u << 20;

enum class FrameType : uint8_t {
  kRequest = 1,   // client -> server: one statement to execute
  kResponse = 2,  // server -> client: the statement's outcome
  kGoodbye = 3,   // server -> client: connection is closing (reason text)
  // Replication stream (net/replication.h). A replica subscribes with
  // kReplHello; the primary answers with either a kReplSnapshot (full
  // bootstrap) or nothing (resume), then streams kReplRecord frames —
  // one committed journal record each — plus periodic kReplHeartbeat.
  // The replica acknowledges applied state with kReplAck. kReplStatusReq/
  // kReplStatus is the connectionless health probe used for failover
  // elections and SHOW REPLICATION.
  kReplHello = 4,      // replica -> primary: subscribe (node, epoch, version)
  kReplSnapshot = 5,   // primary -> replica: full checkpoint bootstrap
  kReplRecord = 6,     // primary -> replica: one committed journal record
  kReplAck = 7,        // replica -> primary: applied-through acknowledgment
  kReplHeartbeat = 8,  // primary -> replica: lease renewal + tip version
  kReplStatusReq = 9,  // anyone -> node: report your replication status
  kReplStatus = 10,    // node -> asker: role, epoch, versions, leader hint
  kReplVoteReq = 11,   // candidate -> node: request a vote for an epoch
  kReplVote = 12,      // node -> candidate: the (persisted) vote decision
};

struct Frame {
  FrameType type = FrameType::kRequest;
  std::string payload;
};

// Renders a complete frame (header + payload) ready to write to a socket.
std::string EncodeFrame(FrameType type, std::string_view payload);

// Incremental frame extractor over a byte stream.
class FrameDecoder {
 public:
  // Appends raw socket bytes to the internal buffer.
  void Feed(std::string_view bytes);

  // Extracts the next complete, CRC-clean frame, or nullopt when the
  // buffer holds no complete frame (call again after more Feed()s).
  // Corrupt prefixes are skipped internally (counted in resyncs()).
  std::optional<Frame> Next();

  // True when the buffer starts with an incomplete frame (header or
  // payload still short) — the slow-loris signal when it persists.
  bool has_partial() const;

  size_t buffered_bytes() const { return buffer_.size(); }
  // Times the decoder discarded bytes to find the next frame boundary.
  uint64_t resyncs() const { return resyncs_; }
  // Structurally complete frames rejected for a CRC mismatch.
  uint64_t crc_failures() const { return crc_failures_; }

 private:
  // Drops `n` bytes, then discards everything up to the next magic.
  void Resync(size_t n);

  std::string buffer_;
  uint64_t resyncs_ = 0;
  uint64_t crc_failures_ = 0;
};

// --- Request / response payloads -------------------------------------------

// One statement, plus the client's per-request limits. A zero deadline or
// budget means "use the server's configured default" (the limits can only
// tighten a request, they never loosen server policy).
struct Request {
  uint64_t id = 0;              // echoed back verbatim in the response
  uint64_t deadline_micros = 0; // wall-clock budget for this statement
  uint64_t work_budget = 0;     // logical work units for this statement
  std::string statement;
};

// The statement's outcome. `code` is the eve::StatusCode as an integer:
// 0 = the statement succeeded (output holds what evectl would print),
// kResourceExhausted = shed by admission/overload (retry_after_micros is
// the server's backoff hint), anything else = the statement failed and
// `error` holds the diagnostic.
struct Response {
  uint64_t id = 0;
  int32_t code = 0;
  uint64_t retry_after_micros = 0;
  std::string output;  // the statement's stdout text
  std::string error;   // the statement's stderr text
};

std::string EncodeRequest(const Request& request);
Result<Request> DecodeRequest(std::string_view payload);

std::string EncodeResponse(const Response& response);
Result<Response> DecodeResponse(std::string_view payload);

// --- Replication payloads ---------------------------------------------------
//
// The same codec discipline as requests/responses: little-endian integers,
// length-prefixed byte strings, decoders that reject truncation and
// trailing garbage so a torn or corrupted replication stream can never
// yield a half-parsed record (the frame CRC already rejects byte flips;
// these decoders reject structurally-short payloads).

// Replica -> primary subscription. `epoch` and `applied_version` describe
// the replica's recovered state; the primary resumes the record stream
// when they match its own epoch and its retained ring, and falls back to
// a full snapshot otherwise (which is also how a rejoining old primary
// discards any unreplicated suffix).
struct ReplHello {
  std::string node_id;
  uint64_t epoch = 0;
  uint64_t applied_version = 0;
};

// Primary -> replica full-state bootstrap: the rendered checkpoint text at
// `version`, under `epoch`. The replica atomically replaces its durable
// state (checkpoint + truncated journal) before applying it.
// Checkpoints can exceed the frame payload cap, so a snapshot travels as a
// sequence of chunk frames: `checkpoint` holds the bytes at [offset,
// offset + checkpoint.size()) of a `total`-byte checkpoint. Chunks arrive
// in offset order on the session; the replica installs once it holds all
// `total` bytes. A single-frame snapshot is offset 0 with total ==
// checkpoint.size().
struct ReplSnapshot {
  uint64_t epoch = 0;
  uint64_t version = 0;
  std::string primary_node;
  uint64_t offset = 0;
  uint64_t total = 0;
  std::string checkpoint;
};

// Primary -> replica: one committed journal record, sequence-numbered in
// ship order within the primary's epoch.
struct ReplRecord {
  uint64_t epoch = 0;
  uint64_t seq = 0;
  uint8_t kind = 0;  // JournalRecordKind
  std::string body;
};

// Replica -> primary: everything through `applied_version` is applied and
// locally durable (semi-sync commits wait for these).
struct ReplAck {
  std::string node_id;
  uint64_t epoch = 0;
  uint64_t applied_seq = 0;
  uint64_t applied_version = 0;
};

// Primary -> replica lease renewal; `tip_version` lets the replica compute
// its staleness lag without a round trip.
struct ReplHeartbeat {
  uint64_t epoch = 0;
  uint64_t tip_version = 0;
  std::string primary_node;
};

// Replication role, as carried in kReplStatus frames.
enum class ReplRole : uint8_t {
  kSingle = 0,     // no cluster configured
  kPrimary = 1,
  kReplica = 2,
  kCandidate = 3,  // lost its primary; probing / electing
};

// Node -> asker: the election + discovery probe answer. `primary_hint` is
// "host:port" of the primary this node currently follows (empty when
// unknown), so a rejoining node can chase the hint to the leader.
struct ReplStatus {
  std::string node_id;
  ReplRole role = ReplRole::kSingle;
  uint64_t epoch = 0;
  uint64_t applied_version = 0;
  uint64_t tip_version = 0;
  std::string primary_hint;
};

std::string EncodeReplHello(const ReplHello& hello);
Result<ReplHello> DecodeReplHello(std::string_view payload);

std::string EncodeReplSnapshot(const ReplSnapshot& snapshot);
Result<ReplSnapshot> DecodeReplSnapshot(std::string_view payload);

std::string EncodeReplRecord(const ReplRecord& record);
Result<ReplRecord> DecodeReplRecord(std::string_view payload);

std::string EncodeReplAck(const ReplAck& ack);
Result<ReplAck> DecodeReplAck(std::string_view payload);

std::string EncodeReplHeartbeat(const ReplHeartbeat& heartbeat);
Result<ReplHeartbeat> DecodeReplHeartbeat(std::string_view payload);

// Candidate -> node: "vote for me to become primary under `epoch`".
// (last_epoch, last_position) describe the candidate's log so the voter
// can apply the up-to-date rule: a vote is granted only to candidates
// whose log is at least as advanced as the voter's own, which is what
// keeps acknowledged commits on every electable leader.
struct ReplVoteReq {
  std::string candidate;       // node id requesting the vote
  uint64_t epoch = 0;          // the epoch the candidate wants to mint
  uint64_t last_epoch = 0;     // candidate's current lineage epoch
  uint64_t last_position = 0;  // candidate's applied position
};

// Node -> candidate: the vote decision. A granted vote was persisted
// before this frame was sent — a node grants at most one vote per epoch,
// across restarts.
struct ReplVote {
  std::string voter;
  uint64_t epoch = 0;  // echo of the requested epoch
  bool granted = false;
};

std::string EncodeReplStatus(const ReplStatus& status);
Result<ReplStatus> DecodeReplStatus(std::string_view payload);

std::string EncodeReplVoteReq(const ReplVoteReq& request);
Result<ReplVoteReq> DecodeReplVoteReq(std::string_view payload);

std::string EncodeReplVote(const ReplVote& vote);
Result<ReplVote> DecodeReplVote(std::string_view payload);

}  // namespace net
}  // namespace eve

#endif  // EVE_NET_PROTOCOL_H_
