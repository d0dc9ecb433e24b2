// The eved wire protocol: frame encode/decode roundtrips, the
// FrameDecoder's robustness contract (partial frames, torn frames, CRC
// corruption, garbage resync, hostile length fields), and the
// request/response payload codecs.

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "net/protocol.h"

namespace eve {
namespace net {
namespace {

std::string Corrupt(std::string frame, size_t at) {
  frame[at] = static_cast<char>(frame[at] ^ 0x5a);
  return frame;
}

// --- CRC --------------------------------------------------------------------

TEST(Crc32Test, MatchesKnownVectors) {
  // Frames checksum with eve::Crc32 (common/crc32.h). The IEEE CRC-32
  // check value for "123456789".
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  // Sensitivity: one flipped bit changes the CRC.
  EXPECT_NE(Crc32("abc"), Crc32("abd"));
}

// --- Frame roundtrip --------------------------------------------------------

TEST(FrameTest, EncodeDecodeRoundtrip) {
  const std::string wire = EncodeFrame(FrameType::kRequest, "hello");
  EXPECT_EQ(wire.size(), kHeaderSize + 5);
  EXPECT_EQ(wire.substr(0, 4), "EVE1");

  FrameDecoder decoder;
  decoder.Feed(wire);
  std::optional<Frame> frame = decoder.Next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, FrameType::kRequest);
  EXPECT_EQ(frame->payload, "hello");
  EXPECT_FALSE(decoder.Next().has_value());
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
  EXPECT_EQ(decoder.resyncs(), 0u);
}

TEST(FrameTest, EmptyPayloadIsLegal) {
  FrameDecoder decoder;
  decoder.Feed(EncodeFrame(FrameType::kGoodbye, ""));
  std::optional<Frame> frame = decoder.Next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, FrameType::kGoodbye);
  EXPECT_EQ(frame->payload, "");
}

TEST(FrameTest, BackToBackFramesDecodeInOrder) {
  FrameDecoder decoder;
  decoder.Feed(EncodeFrame(FrameType::kRequest, "one") +
               EncodeFrame(FrameType::kResponse, "two") +
               EncodeFrame(FrameType::kGoodbye, "three"));
  ASSERT_TRUE(decoder.Next().has_value());
  std::optional<Frame> second = decoder.Next();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->payload, "two");
  std::optional<Frame> third = decoder.Next();
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->type, FrameType::kGoodbye);
  EXPECT_FALSE(decoder.Next().has_value());
}

// --- Partial / torn frames --------------------------------------------------

TEST(FrameDecoderTest, ByteAtATimeDelivery) {
  const std::string wire = EncodeFrame(FrameType::kRequest, "slow bytes");
  FrameDecoder decoder;
  for (size_t i = 0; i + 1 < wire.size(); ++i) {
    decoder.Feed(std::string_view(&wire[i], 1));
    EXPECT_FALSE(decoder.Next().has_value());
    EXPECT_TRUE(decoder.has_partial());
  }
  decoder.Feed(std::string_view(&wire[wire.size() - 1], 1));
  std::optional<Frame> frame = decoder.Next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload, "slow bytes");
  EXPECT_FALSE(decoder.has_partial());
  EXPECT_EQ(decoder.resyncs(), 0u);
}

TEST(FrameDecoderTest, TornFrameThenRestResumesCleanly) {
  const std::string wire = EncodeFrame(FrameType::kResponse, "torn in half");
  FrameDecoder decoder;
  decoder.Feed(wire.substr(0, kHeaderSize + 4));
  EXPECT_FALSE(decoder.Next().has_value());
  EXPECT_TRUE(decoder.has_partial());
  decoder.Feed(wire.substr(kHeaderSize + 4));
  std::optional<Frame> frame = decoder.Next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload, "torn in half");
}

// --- Corruption and resync --------------------------------------------------

TEST(FrameDecoderTest, CrcCorruptionDropsOnlyTheBadFrame) {
  FrameDecoder decoder;
  decoder.Feed(Corrupt(EncodeFrame(FrameType::kRequest, "doomed"),
                       kHeaderSize + 2) +
               EncodeFrame(FrameType::kRequest, "survivor"));
  std::optional<Frame> frame = decoder.Next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload, "survivor");
  EXPECT_GE(decoder.crc_failures(), 1u);
  EXPECT_GE(decoder.resyncs(), 1u);
}

TEST(FrameDecoderTest, GarbagePrefixIsSkipped) {
  FrameDecoder decoder;
  decoder.Feed("!@#$ random junk before the stream ");
  decoder.Feed(EncodeFrame(FrameType::kRequest, "after junk"));
  std::optional<Frame> frame = decoder.Next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload, "after junk");
  EXPECT_GE(decoder.resyncs(), 1u);
}

TEST(FrameDecoderTest, UnknownFrameTypeTriggersResync) {
  std::string wire = EncodeFrame(FrameType::kRequest, "typed");
  wire[4] = 42;  // not a known FrameType
  FrameDecoder decoder;
  decoder.Feed(wire + EncodeFrame(FrameType::kRequest, "good"));
  std::optional<Frame> frame = decoder.Next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload, "good");
  EXPECT_GE(decoder.resyncs(), 1u);
}

TEST(FrameDecoderTest, HostileLengthFieldCannotReserveUnboundedMemory) {
  // A header claiming a payload far beyond kMaxPayload must be rejected
  // structurally — the decoder resyncs instead of waiting for 4 GiB.
  std::string header(kHeaderSize, '\0');
  std::memcpy(header.data(), kMagic, 4);
  header[4] = 1;  // kRequest
  header[5] = static_cast<char>(0xff);
  header[6] = static_cast<char>(0xff);
  header[7] = static_cast<char>(0xff);
  header[8] = static_cast<char>(0xff);
  FrameDecoder decoder;
  decoder.Feed(header + EncodeFrame(FrameType::kResponse, "sane"));
  std::optional<Frame> frame = decoder.Next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload, "sane");
  EXPECT_GE(decoder.resyncs(), 1u);
}

TEST(FrameDecoderTest, MagicBytesInsidePayloadDoNotConfuseTheDecoder) {
  // A payload that CONTAINS the magic marker still decodes as one frame.
  const std::string tricky = "xxEVE1yyEVE1zz";
  FrameDecoder decoder;
  decoder.Feed(EncodeFrame(FrameType::kRequest, tricky));
  std::optional<Frame> frame = decoder.Next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload, tricky);
  EXPECT_EQ(decoder.resyncs(), 0u);
}

TEST(FrameDecoderTest, CorruptMagicResyncsToEmbeddedNextFrame) {
  // Corrupting the first frame's magic makes the decoder scan forward;
  // it must land exactly on the second frame's boundary.
  FrameDecoder decoder;
  decoder.Feed(Corrupt(EncodeFrame(FrameType::kRequest, "bad magic"), 1) +
               EncodeFrame(FrameType::kResponse, "found me"));
  std::optional<Frame> frame = decoder.Next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload, "found me");
  EXPECT_GE(decoder.resyncs(), 1u);
}

// --- Request / response codecs ----------------------------------------------

TEST(RequestCodecTest, Roundtrip) {
  Request request;
  request.id = 0x1122334455667788ull;
  request.deadline_micros = 250'000;
  request.work_budget = 42;
  request.statement = "SHOW SYNC STATS;";
  Result<Request> decoded = DecodeRequest(EncodeRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->id, request.id);
  EXPECT_EQ(decoded->deadline_micros, request.deadline_micros);
  EXPECT_EQ(decoded->work_budget, request.work_budget);
  EXPECT_EQ(decoded->statement, request.statement);
}

TEST(ResponseCodecTest, Roundtrip) {
  Response response;
  response.id = 7;
  response.code = static_cast<int32_t>(StatusCode::kResourceExhausted);
  response.retry_after_micros = 50'000;
  response.output = "line one\nline two\n";
  response.error = "error: resource_exhausted: queue full\n";
  Result<Response> decoded = DecodeResponse(EncodeResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->id, response.id);
  EXPECT_EQ(decoded->code, response.code);
  EXPECT_EQ(decoded->retry_after_micros, response.retry_after_micros);
  EXPECT_EQ(decoded->output, response.output);
  EXPECT_EQ(decoded->error, response.error);
}

TEST(RequestCodecTest, TruncatedPayloadIsAParseError) {
  const std::string payload = EncodeRequest(Request{1, 0, 0, "DRAIN SYNC;"});
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    Result<Request> decoded = DecodeRequest(payload.substr(0, cut));
    EXPECT_FALSE(decoded.ok()) << "cut at " << cut;
  }
}

TEST(ResponseCodecTest, TrailingGarbageIsAParseError) {
  const std::string payload = EncodeResponse(Response{});
  Result<Response> decoded = DecodeResponse(payload + "x");
  EXPECT_FALSE(decoded.ok());
}

// --- Replication payload codecs ---------------------------------------------

ReplHello SampleHello() {
  ReplHello hello;
  hello.node_id = "n2";
  hello.epoch = 0xDEADBEEFull;
  hello.applied_version = 0xFFFFFFFFFFFFFFFFull;
  return hello;
}

ReplRecord SampleRecord() {
  ReplRecord record;
  record.epoch = 3;
  record.seq = 0x0102030405060708ull;
  record.kind = 7;
  record.body = std::string("journal body with \0 embedded", 28);
  return record;
}

TEST(ReplCodecTest, HelloRoundtrip) {
  const ReplHello hello = SampleHello();
  Result<ReplHello> decoded = DecodeReplHello(EncodeReplHello(hello));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->node_id, hello.node_id);
  EXPECT_EQ(decoded->epoch, hello.epoch);
  EXPECT_EQ(decoded->applied_version, hello.applied_version);
}

TEST(ReplCodecTest, SnapshotRoundtrip) {
  ReplSnapshot snapshot;
  snapshot.epoch = 9;
  snapshot.version = 41;
  snapshot.primary_node = "n1";
  snapshot.checkpoint = std::string("EVECKPT1\n\0binary\xff", 18);
  // A mid-transfer chunk: 18 bytes starting at offset 100 of a 300-byte
  // checkpoint.
  snapshot.offset = 100;
  snapshot.total = 300;
  Result<ReplSnapshot> decoded =
      DecodeReplSnapshot(EncodeReplSnapshot(snapshot));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->epoch, snapshot.epoch);
  EXPECT_EQ(decoded->version, snapshot.version);
  EXPECT_EQ(decoded->primary_node, snapshot.primary_node);
  EXPECT_EQ(decoded->checkpoint, snapshot.checkpoint);
  EXPECT_EQ(decoded->offset, snapshot.offset);
  EXPECT_EQ(decoded->total, snapshot.total);

  // A chunk that lies about its place in the transfer is rejected.
  snapshot.offset = 290;  // 18 bytes at 290 would overrun total=300
  EXPECT_FALSE(DecodeReplSnapshot(EncodeReplSnapshot(snapshot)).ok());
}

TEST(ReplCodecTest, RecordRoundtrip) {
  const ReplRecord record = SampleRecord();
  Result<ReplRecord> decoded = DecodeReplRecord(EncodeReplRecord(record));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->epoch, record.epoch);
  EXPECT_EQ(decoded->seq, record.seq);
  EXPECT_EQ(decoded->kind, record.kind);
  EXPECT_EQ(decoded->body, record.body);
}

TEST(ReplCodecTest, AckHeartbeatStatusRoundtrip) {
  ReplAck ack;
  ack.node_id = "n3";
  ack.epoch = 2;
  ack.applied_seq = 17;
  ack.applied_version = 4;
  Result<ReplAck> decoded_ack = DecodeReplAck(EncodeReplAck(ack));
  ASSERT_TRUE(decoded_ack.ok());
  EXPECT_EQ(decoded_ack->node_id, ack.node_id);
  EXPECT_EQ(decoded_ack->applied_seq, ack.applied_seq);

  ReplHeartbeat heartbeat;
  heartbeat.epoch = 5;
  heartbeat.tip_version = 99;
  heartbeat.primary_node = "n1";
  Result<ReplHeartbeat> decoded_hb =
      DecodeReplHeartbeat(EncodeReplHeartbeat(heartbeat));
  ASSERT_TRUE(decoded_hb.ok());
  EXPECT_EQ(decoded_hb->tip_version, heartbeat.tip_version);
  EXPECT_EQ(decoded_hb->primary_node, heartbeat.primary_node);

  ReplStatus status;
  status.node_id = "n2";
  status.role = ReplRole::kCandidate;
  status.epoch = 8;
  status.applied_version = 12;
  status.tip_version = 15;
  status.primary_hint = "127.0.0.1:4100";
  Result<ReplStatus> decoded_status =
      DecodeReplStatus(EncodeReplStatus(status));
  ASSERT_TRUE(decoded_status.ok());
  EXPECT_EQ(decoded_status->role, status.role);
  EXPECT_EQ(decoded_status->epoch, status.epoch);
  EXPECT_EQ(decoded_status->applied_version, status.applied_version);
  EXPECT_EQ(decoded_status->tip_version, status.tip_version);
  EXPECT_EQ(decoded_status->primary_hint, status.primary_hint);
}

TEST(ReplCodecTest, VoteRoundtrip) {
  ReplVoteReq request;
  request.candidate = "n2";
  request.epoch = 11;
  request.last_epoch = 10;
  request.last_position = 0x0102030405060708ull;
  Result<ReplVoteReq> decoded_req =
      DecodeReplVoteReq(EncodeReplVoteReq(request));
  ASSERT_TRUE(decoded_req.ok());
  EXPECT_EQ(decoded_req->candidate, request.candidate);
  EXPECT_EQ(decoded_req->epoch, request.epoch);
  EXPECT_EQ(decoded_req->last_epoch, request.last_epoch);
  EXPECT_EQ(decoded_req->last_position, request.last_position);

  for (const bool granted : {true, false}) {
    ReplVote vote;
    vote.voter = "n3";
    vote.epoch = 11;
    vote.granted = granted;
    Result<ReplVote> decoded = DecodeReplVote(EncodeReplVote(vote));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->voter, vote.voter);
    EXPECT_EQ(decoded->epoch, vote.epoch);
    EXPECT_EQ(decoded->granted, granted);
  }
}

TEST(ReplCodecTest, TruncatedReplPayloadsAreParseErrors) {
  // A torn stream must never yield a partially-decoded replication
  // payload: every strict prefix of every repl codec is an explicit error.
  const std::string hello = EncodeReplHello(SampleHello());
  for (size_t cut = 0; cut < hello.size(); ++cut) {
    EXPECT_FALSE(DecodeReplHello(hello.substr(0, cut)).ok())
        << "hello cut at " << cut;
  }
  const std::string record = EncodeReplRecord(SampleRecord());
  for (size_t cut = 0; cut < record.size(); ++cut) {
    EXPECT_FALSE(DecodeReplRecord(record.substr(0, cut)).ok())
        << "record cut at " << cut;
  }
  EXPECT_FALSE(DecodeReplAck(record).ok());       // cross-type decode fails
  EXPECT_FALSE(DecodeReplRecord(record + "x").ok());  // trailing garbage

  ReplVoteReq vote_req;
  vote_req.candidate = "n2";
  vote_req.epoch = 11;
  vote_req.last_epoch = 10;
  vote_req.last_position = 42;
  const std::string vote_req_bytes = EncodeReplVoteReq(vote_req);
  for (size_t cut = 0; cut < vote_req_bytes.size(); ++cut) {
    EXPECT_FALSE(DecodeReplVoteReq(vote_req_bytes.substr(0, cut)).ok())
        << "vote-req cut at " << cut;
  }
  ReplVote vote;
  vote.voter = "n3";
  vote.epoch = 11;
  vote.granted = true;
  const std::string vote_bytes = EncodeReplVote(vote);
  for (size_t cut = 0; cut < vote_bytes.size(); ++cut) {
    EXPECT_FALSE(DecodeReplVote(vote_bytes.substr(0, cut)).ok())
        << "vote cut at " << cut;
  }
  EXPECT_FALSE(DecodeReplVote(vote_bytes + "x").ok());  // trailing garbage
  // A granted flag outside {0, 1} is rejected, not coerced.
  std::string bad_flag = vote_bytes;
  bad_flag[bad_flag.size() - 4] = 2;
  EXPECT_FALSE(DecodeReplVote(bad_flag).ok());
}

// The wire bytes of one frame of each replication type, used by the
// decoder fuzz tests below.
std::vector<std::pair<FrameType, std::string>> ReplFrames() {
  ReplSnapshot snapshot;
  snapshot.epoch = 2;
  snapshot.version = 7;
  snapshot.primary_node = "n1";
  snapshot.checkpoint = "checkpoint bytes";
  ReplAck ack;
  ack.node_id = "n2";
  ack.epoch = 2;
  ack.applied_seq = 7;
  ReplHeartbeat heartbeat;
  heartbeat.epoch = 2;
  heartbeat.tip_version = 7;
  heartbeat.primary_node = "n1";
  ReplStatus status;
  status.node_id = "n1";
  status.role = ReplRole::kPrimary;
  status.epoch = 2;
  ReplVoteReq vote_req;
  vote_req.candidate = "n3";
  vote_req.epoch = 3;
  vote_req.last_epoch = 2;
  vote_req.last_position = 7;
  ReplVote vote;
  vote.voter = "n1";
  vote.epoch = 3;
  vote.granted = true;
  return {
      {FrameType::kReplHello, EncodeReplHello(SampleHello())},
      {FrameType::kReplSnapshot, EncodeReplSnapshot(snapshot)},
      {FrameType::kReplRecord, EncodeReplRecord(SampleRecord())},
      {FrameType::kReplAck, EncodeReplAck(ack)},
      {FrameType::kReplHeartbeat, EncodeReplHeartbeat(heartbeat)},
      {FrameType::kReplStatusReq, ""},
      {FrameType::kReplStatus, EncodeReplStatus(status)},
      {FrameType::kReplVoteReq, EncodeReplVoteReq(vote_req)},
      {FrameType::kReplVote, EncodeReplVote(vote)},
  };
}

TEST(ReplFrameFuzzTest, EveryCutPointDeliversExactlyOneIntactFrame) {
  for (const auto& [type, payload] : ReplFrames()) {
    const std::string wire = EncodeFrame(type, payload);
    for (size_t cut = 0; cut <= wire.size(); ++cut) {
      FrameDecoder decoder;
      decoder.Feed(wire.substr(0, cut));
      // The torn prefix alone never surfaces a frame.
      if (cut < wire.size()) {
        EXPECT_FALSE(decoder.Next().has_value())
            << "type " << static_cast<int>(type) << " cut " << cut;
      }
      decoder.Feed(wire.substr(cut));
      std::optional<Frame> frame = decoder.Next();
      ASSERT_TRUE(frame.has_value())
          << "type " << static_cast<int>(type) << " cut " << cut;
      EXPECT_EQ(frame->type, type);
      EXPECT_EQ(frame->payload, payload);
      EXPECT_FALSE(decoder.Next().has_value());
      EXPECT_EQ(decoder.resyncs(), 0u);
    }
  }
}

TEST(ReplFrameFuzzTest, EveryCorruptByteResyncsToTheNextFrame) {
  // Flip each byte of each repl frame in turn, follow it with a good
  // kReplHeartbeat, and require: the good frame is always delivered, and
  // any frame delivered before it carries the ORIGINAL intact payload
  // (the CRC rejects every corrupted payload — a torn or bit-flipped
  // record can never reach the apply path).
  ReplHeartbeat sentinel_heartbeat;
  sentinel_heartbeat.epoch = 42;
  sentinel_heartbeat.tip_version = 4242;
  sentinel_heartbeat.primary_node = "sentinel";
  const std::string sentinel_payload =
      EncodeReplHeartbeat(sentinel_heartbeat);
  const std::string sentinel =
      EncodeFrame(FrameType::kReplHeartbeat, sentinel_payload);
  for (const auto& [type, payload] : ReplFrames()) {
    const std::string wire = EncodeFrame(type, payload);
    for (size_t at = 0; at < wire.size(); ++at) {
      FrameDecoder decoder;
      decoder.Feed(Corrupt(wire, at) + sentinel);
      bool saw_sentinel = false;
      int delivered = 0;
      const auto drain = [&] {
        while (std::optional<Frame> frame = decoder.Next()) {
          ++delivered;
          ASSERT_LE(delivered, 4) << "type " << static_cast<int>(type)
                                  << " corrupt at " << at;
          if (frame->type == FrameType::kReplHeartbeat &&
              frame->payload == sentinel_payload) {
            saw_sentinel = true;
            continue;
          }
          // Anything else delivered must be the original frame, intact:
          // the CRC rejects every corrupted payload, so only type-byte or
          // resync-discarded corruptions can change WHAT is delivered,
          // never its contents.
          EXPECT_EQ(frame->payload, payload)
              << "type " << static_cast<int>(type) << " corrupt at " << at;
        }
      };
      drain();
      if (!saw_sentinel) {
        // A corrupted length field can inflate the frame by up to ~23KB
        // while staying under kMaxPayload; the decoder rightly waits for
        // the rest. Keep the stream flowing (as a live primary would) —
        // once the monster frame fills up, its CRC fails, the decoder
        // resyncs, and the sentinel embedded in the buffer surfaces.
        decoder.Feed(std::string(1u << 16, '\0') + sentinel);
        drain();
      }
      EXPECT_TRUE(saw_sentinel)
          << "type " << static_cast<int>(type) << " corrupt at " << at;
    }
  }
}

TEST(ReplFrameFuzzTest, InterleavedTornRecordNeverAppliesPartially) {
  // A record stream torn mid-record and then resumed by a NEW frame (the
  // primary never retransmits the torn tail) must drop the torn record
  // entirely: the decoder resyncs to the next frame boundary.
  const ReplRecord record = SampleRecord();
  const std::string torn =
      EncodeFrame(FrameType::kReplRecord, EncodeReplRecord(record));
  ReplRecord next = record;
  next.seq = record.seq + 1;
  const std::string following =
      EncodeFrame(FrameType::kReplRecord, EncodeReplRecord(next));
  for (size_t keep = 1; keep < torn.size(); ++keep) {
    FrameDecoder decoder;
    decoder.Feed(torn.substr(0, keep));
    EXPECT_FALSE(decoder.Next().has_value());
    decoder.Feed(following);
    // Depending on where the tear fell the decoder may need more input to
    // conclude the old frame is dead; feeding a second clean frame always
    // flushes it out.
    decoder.Feed(following);
    std::optional<Frame> frame = decoder.Next();
    ASSERT_TRUE(frame.has_value()) << "keep " << keep;
    EXPECT_EQ(frame->type, FrameType::kReplRecord);
    Result<ReplRecord> decoded = DecodeReplRecord(frame->payload);
    ASSERT_TRUE(decoded.ok()) << "keep " << keep;
    // Never the torn record: always the complete following one.
    EXPECT_EQ(decoded->seq, next.seq) << "keep " << keep;
  }
}

}  // namespace
}  // namespace net
}  // namespace eve
