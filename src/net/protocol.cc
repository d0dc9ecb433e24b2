#include "net/protocol.h"

#include <cstring>

#include "common/crc32.h"
#include "common/status.h"

namespace eve {
namespace net {

namespace {

void PutU32(std::string* out, uint32_t value) {
  out->push_back(static_cast<char>(value & 0xFF));
  out->push_back(static_cast<char>((value >> 8) & 0xFF));
  out->push_back(static_cast<char>((value >> 16) & 0xFF));
  out->push_back(static_cast<char>((value >> 24) & 0xFF));
}

void PutU64(std::string* out, uint64_t value) {
  PutU32(out, static_cast<uint32_t>(value & 0xFFFFFFFFu));
  PutU32(out, static_cast<uint32_t>(value >> 32));
}

void PutBytes(std::string* out, std::string_view bytes) {
  PutU32(out, static_cast<uint32_t>(bytes.size()));
  out->append(bytes);
}

// Cursor over a payload; every Get checks remaining length.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool GetU32(uint32_t* out) {
    if (data_.size() - pos_ < 4) return false;
    *out = 0;
    for (int i = 3; i >= 0; --i) {
      *out = (*out << 8) | static_cast<uint8_t>(data_[pos_ + i]);
    }
    pos_ += 4;
    return true;
  }

  bool GetU64(uint64_t* out) {
    uint32_t lo = 0;
    uint32_t hi = 0;
    if (!GetU32(&lo) || !GetU32(&hi)) return false;
    *out = (static_cast<uint64_t>(hi) << 32) | lo;
    return true;
  }

  bool GetBytes(std::string* out) {
    uint32_t len = 0;
    if (!GetU32(&len)) return false;
    if (data_.size() - pos_ < len) return false;
    out->assign(data_.substr(pos_, len));
    pos_ += len;
    return true;
  }

  bool exhausted() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

bool KnownType(uint8_t type) {
  return type >= static_cast<uint8_t>(FrameType::kRequest) &&
         type <= static_cast<uint8_t>(FrameType::kReplVote);
}

}  // namespace

std::string EncodeFrame(FrameType type, std::string_view payload) {
  std::string frame;
  frame.reserve(kHeaderSize + payload.size());
  frame.append(kMagic, sizeof(kMagic));
  frame.push_back(static_cast<char>(type));
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  PutU32(&frame, Crc32(payload));
  frame.append(payload);
  return frame;
}

void FrameDecoder::Feed(std::string_view bytes) { buffer_.append(bytes); }

void FrameDecoder::Resync(size_t n) {
  // Skip the poisoned prefix, then scan for the next plausible frame
  // start. Counted once per discard run, however many bytes it spans.
  size_t pos = n;
  while (pos + sizeof(kMagic) <= buffer_.size() &&
         std::memcmp(buffer_.data() + pos, kMagic, sizeof(kMagic)) != 0) {
    ++pos;
  }
  if (pos + sizeof(kMagic) > buffer_.size()) {
    // No full magic ahead: keep only a tail that is still a prefix of the
    // magic (it may complete on the next Feed), discard the rest.
    while (pos < buffer_.size() &&
           std::memcmp(buffer_.data() + pos, kMagic,
                       buffer_.size() - pos) != 0) {
      ++pos;
    }
  }
  buffer_.erase(0, pos);
  ++resyncs_;
}

bool FrameDecoder::has_partial() const {
  if (buffer_.empty()) return false;
  if (buffer_.size() < kHeaderSize) return true;
  uint32_t len = 0;
  for (int i = 3; i >= 0; --i) {
    len = (len << 8) | static_cast<uint8_t>(buffer_[5 + i]);
  }
  return buffer_.size() < kHeaderSize + len;
}

std::optional<Frame> FrameDecoder::Next() {
  while (true) {
    if (buffer_.size() < kHeaderSize) {
      // Could still be mid-header; but if what we have already cannot be
      // a magic prefix, discard it now so has_partial() means "plausible
      // frame underway", not "buffered garbage".
      if (!buffer_.empty() &&
          std::memcmp(buffer_.data(), kMagic,
                      std::min(buffer_.size(), sizeof(kMagic))) != 0) {
        Resync(1);
        continue;
      }
      return std::nullopt;
    }
    if (std::memcmp(buffer_.data(), kMagic, sizeof(kMagic)) != 0) {
      Resync(1);
      continue;
    }
    const uint8_t type = static_cast<uint8_t>(buffer_[4]);
    uint32_t len = 0;
    uint32_t crc = 0;
    for (int i = 3; i >= 0; --i) {
      len = (len << 8) | static_cast<uint8_t>(buffer_[5 + i]);
      crc = (crc << 8) | static_cast<uint8_t>(buffer_[9 + i]);
    }
    if (!KnownType(type) || len > kMaxPayload) {
      Resync(1);
      continue;
    }
    if (buffer_.size() < kHeaderSize + len) return std::nullopt;
    const std::string_view payload(buffer_.data() + kHeaderSize, len);
    if (Crc32(payload) != crc) {
      ++crc_failures_;
      Resync(1);
      continue;
    }
    Frame frame;
    frame.type = static_cast<FrameType>(type);
    frame.payload.assign(payload);
    buffer_.erase(0, kHeaderSize + len);
    return frame;
  }
}

std::string EncodeRequest(const Request& request) {
  std::string payload;
  payload.reserve(28 + request.statement.size());
  PutU64(&payload, request.id);
  PutU64(&payload, request.deadline_micros);
  PutU64(&payload, request.work_budget);
  PutBytes(&payload, request.statement);
  return payload;
}

Result<Request> DecodeRequest(std::string_view payload) {
  Request request;
  Reader reader(payload);
  if (!reader.GetU64(&request.id) ||
      !reader.GetU64(&request.deadline_micros) ||
      !reader.GetU64(&request.work_budget) ||
      !reader.GetBytes(&request.statement) || !reader.exhausted()) {
    return Status::ParseError("malformed request payload");
  }
  return request;
}

std::string EncodeResponse(const Response& response) {
  std::string payload;
  payload.reserve(28 + response.output.size() + response.error.size());
  PutU64(&payload, response.id);
  PutU32(&payload, static_cast<uint32_t>(response.code));
  PutU64(&payload, response.retry_after_micros);
  PutBytes(&payload, response.output);
  PutBytes(&payload, response.error);
  return payload;
}

Result<Response> DecodeResponse(std::string_view payload) {
  Response response;
  Reader reader(payload);
  uint32_t code = 0;
  if (!reader.GetU64(&response.id) || !reader.GetU32(&code) ||
      !reader.GetU64(&response.retry_after_micros) ||
      !reader.GetBytes(&response.output) ||
      !reader.GetBytes(&response.error) || !reader.exhausted()) {
    return Status::ParseError("malformed response payload");
  }
  response.code = static_cast<int32_t>(code);
  return response;
}

std::string EncodeReplHello(const ReplHello& hello) {
  std::string payload;
  payload.reserve(24 + hello.node_id.size());
  PutBytes(&payload, hello.node_id);
  PutU64(&payload, hello.epoch);
  PutU64(&payload, hello.applied_version);
  return payload;
}

Result<ReplHello> DecodeReplHello(std::string_view payload) {
  ReplHello hello;
  Reader reader(payload);
  if (!reader.GetBytes(&hello.node_id) || !reader.GetU64(&hello.epoch) ||
      !reader.GetU64(&hello.applied_version) || !reader.exhausted()) {
    return Status::ParseError("malformed repl-hello payload");
  }
  return hello;
}

std::string EncodeReplSnapshot(const ReplSnapshot& snapshot) {
  std::string payload;
  payload.reserve(44 + snapshot.primary_node.size() +
                  snapshot.checkpoint.size());
  PutU64(&payload, snapshot.epoch);
  PutU64(&payload, snapshot.version);
  PutBytes(&payload, snapshot.primary_node);
  PutU64(&payload, snapshot.offset);
  PutU64(&payload, snapshot.total);
  PutBytes(&payload, snapshot.checkpoint);
  return payload;
}

Result<ReplSnapshot> DecodeReplSnapshot(std::string_view payload) {
  ReplSnapshot snapshot;
  Reader reader(payload);
  if (!reader.GetU64(&snapshot.epoch) || !reader.GetU64(&snapshot.version) ||
      !reader.GetBytes(&snapshot.primary_node) ||
      !reader.GetU64(&snapshot.offset) || !reader.GetU64(&snapshot.total) ||
      !reader.GetBytes(&snapshot.checkpoint) || !reader.exhausted()) {
    return Status::ParseError("malformed repl-snapshot payload");
  }
  if (snapshot.offset > snapshot.total ||
      snapshot.checkpoint.size() > snapshot.total - snapshot.offset) {
    return Status::ParseError("repl-snapshot chunk outside its total");
  }
  return snapshot;
}

std::string EncodeReplRecord(const ReplRecord& record) {
  std::string payload;
  payload.reserve(24 + record.body.size());
  PutU64(&payload, record.epoch);
  PutU64(&payload, record.seq);
  PutU32(&payload, record.kind);
  PutBytes(&payload, record.body);
  return payload;
}

Result<ReplRecord> DecodeReplRecord(std::string_view payload) {
  ReplRecord record;
  Reader reader(payload);
  uint32_t kind = 0;
  if (!reader.GetU64(&record.epoch) || !reader.GetU64(&record.seq) ||
      !reader.GetU32(&kind) || !reader.GetBytes(&record.body) ||
      !reader.exhausted()) {
    return Status::ParseError("malformed repl-record payload");
  }
  if (kind == 0 || kind > 0xFF) {
    return Status::ParseError("repl-record kind out of range");
  }
  record.kind = static_cast<uint8_t>(kind);
  return record;
}

std::string EncodeReplAck(const ReplAck& ack) {
  std::string payload;
  payload.reserve(32 + ack.node_id.size());
  PutBytes(&payload, ack.node_id);
  PutU64(&payload, ack.epoch);
  PutU64(&payload, ack.applied_seq);
  PutU64(&payload, ack.applied_version);
  return payload;
}

Result<ReplAck> DecodeReplAck(std::string_view payload) {
  ReplAck ack;
  Reader reader(payload);
  if (!reader.GetBytes(&ack.node_id) || !reader.GetU64(&ack.epoch) ||
      !reader.GetU64(&ack.applied_seq) ||
      !reader.GetU64(&ack.applied_version) || !reader.exhausted()) {
    return Status::ParseError("malformed repl-ack payload");
  }
  return ack;
}

std::string EncodeReplHeartbeat(const ReplHeartbeat& heartbeat) {
  std::string payload;
  payload.reserve(24 + heartbeat.primary_node.size());
  PutU64(&payload, heartbeat.epoch);
  PutU64(&payload, heartbeat.tip_version);
  PutBytes(&payload, heartbeat.primary_node);
  return payload;
}

Result<ReplHeartbeat> DecodeReplHeartbeat(std::string_view payload) {
  ReplHeartbeat heartbeat;
  Reader reader(payload);
  if (!reader.GetU64(&heartbeat.epoch) ||
      !reader.GetU64(&heartbeat.tip_version) ||
      !reader.GetBytes(&heartbeat.primary_node) || !reader.exhausted()) {
    return Status::ParseError("malformed repl-heartbeat payload");
  }
  return heartbeat;
}

std::string EncodeReplStatus(const ReplStatus& status) {
  std::string payload;
  payload.reserve(36 + status.node_id.size() + status.primary_hint.size());
  PutBytes(&payload, status.node_id);
  PutU32(&payload, static_cast<uint32_t>(status.role));
  PutU64(&payload, status.epoch);
  PutU64(&payload, status.applied_version);
  PutU64(&payload, status.tip_version);
  PutBytes(&payload, status.primary_hint);
  return payload;
}

Result<ReplStatus> DecodeReplStatus(std::string_view payload) {
  ReplStatus status;
  Reader reader(payload);
  uint32_t role = 0;
  if (!reader.GetBytes(&status.node_id) || !reader.GetU32(&role) ||
      !reader.GetU64(&status.epoch) ||
      !reader.GetU64(&status.applied_version) ||
      !reader.GetU64(&status.tip_version) ||
      !reader.GetBytes(&status.primary_hint) || !reader.exhausted()) {
    return Status::ParseError("malformed repl-status payload");
  }
  if (role > static_cast<uint32_t>(ReplRole::kCandidate)) {
    return Status::ParseError("repl-status role out of range");
  }
  status.role = static_cast<ReplRole>(role);
  return status;
}

std::string EncodeReplVoteReq(const ReplVoteReq& request) {
  std::string payload;
  payload.reserve(28 + request.candidate.size());
  PutBytes(&payload, request.candidate);
  PutU64(&payload, request.epoch);
  PutU64(&payload, request.last_epoch);
  PutU64(&payload, request.last_position);
  return payload;
}

Result<ReplVoteReq> DecodeReplVoteReq(std::string_view payload) {
  ReplVoteReq request;
  Reader reader(payload);
  if (!reader.GetBytes(&request.candidate) || !reader.GetU64(&request.epoch) ||
      !reader.GetU64(&request.last_epoch) ||
      !reader.GetU64(&request.last_position) || !reader.exhausted()) {
    return Status::ParseError("malformed repl-vote-req payload");
  }
  return request;
}

std::string EncodeReplVote(const ReplVote& vote) {
  std::string payload;
  payload.reserve(16 + vote.voter.size());
  PutBytes(&payload, vote.voter);
  PutU64(&payload, vote.epoch);
  PutU32(&payload, vote.granted ? 1 : 0);
  return payload;
}

Result<ReplVote> DecodeReplVote(std::string_view payload) {
  ReplVote vote;
  Reader reader(payload);
  uint32_t granted = 0;
  if (!reader.GetBytes(&vote.voter) || !reader.GetU64(&vote.epoch) ||
      !reader.GetU32(&granted) || !reader.exhausted()) {
    return Status::ParseError("malformed repl-vote payload");
  }
  if (granted > 1) {
    return Status::ParseError("repl-vote granted flag out of range");
  }
  vote.granted = granted == 1;
  return vote;
}

}  // namespace net
}  // namespace eve
