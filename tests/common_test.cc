#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/result.h"
#include "common/status.h"
#include "common/str_util.h"

namespace eve {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "ok");
}

TEST(StatusTest, FactoryMethodsSetCodeAndMessage) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::ParseError("x").code(), StatusCode::kParseError);
  EXPECT_EQ(Status::TypeError("x").code(), StatusCode::kTypeError);
  EXPECT_EQ(Status::Unsupported("x").code(), StatusCode::kUnsupported);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::ViewDisabled("x").code(), StatusCode::kViewDisabled);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::NotFound("missing thing").message(), "missing thing");
}

TEST(StatusTest, ToStringIncludesCodeNameAndMessage) {
  EXPECT_EQ(Status::NotFound("the view").ToString(), "not_found: the view");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto fails = []() -> Status { return Status::NotFound("inner"); };
  auto outer = [&]() -> Status {
    EVE_RETURN_IF_ERROR(fails());
    return Status::OK();
  };
  EXPECT_EQ(outer().code(), StatusCode::kNotFound);
}

TEST(StatusTest, ReturnIfErrorPassesThroughOnOk) {
  auto succeeds = []() -> Status { return Status::OK(); };
  auto outer = [&]() -> Status {
    EVE_RETURN_IF_ERROR(succeeds());
    return Status::AlreadyExists("reached end");
  };
  EXPECT_EQ(outer().code(), StatusCode::kAlreadyExists);
}

TEST(ResultTest, HoldsValue) {
  Result<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_TRUE(result.status().ok());
}

TEST(ResultTest, HoldsStatus) {
  Result<int> result(Status::NotFound("gone"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveValueTransfersOwnership) {
  Result<std::string> result(std::string("payload"));
  const std::string moved = result.MoveValue();
  EXPECT_EQ(moved, "payload");
}

TEST(ResultTest, AssignOrReturnUnwraps) {
  auto inner = []() -> Result<int> { return 7; };
  auto outer = [&]() -> Result<int> {
    EVE_ASSIGN_OR_RETURN(const int v, inner());
    return v + 1;
  };
  EXPECT_EQ(outer().value(), 8);
}

TEST(ResultTest, AssignOrReturnPropagatesError) {
  auto inner = []() -> Result<int> { return Status::TypeError("bad"); };
  auto outer = [&]() -> Result<int> {
    EVE_ASSIGN_OR_RETURN(const int v, inner());
    return v + 1;
  };
  EXPECT_EQ(outer().status().code(), StatusCode::kTypeError);
}

TEST(StrUtilTest, JoinBasic) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ", "), "");
  EXPECT_EQ(Join({"solo"}, ", "), "solo");
}

TEST(StrUtilTest, SplitPreservesEmptyFields) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("x,", ','), (std::vector<std::string>{"x", ""}));
}

TEST(StrUtilTest, ToLower) {
  EXPECT_EQ(ToLower("SeLeCt"), "select");
  EXPECT_EQ(ToLower(""), "");
  EXPECT_EQ(ToLower("abc123_X"), "abc123_x");
}

TEST(StrUtilTest, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("WHERE", "where"));
  EXPECT_TRUE(EqualsIgnoreCase("", ""));
  EXPECT_FALSE(EqualsIgnoreCase("where", "wher"));
  EXPECT_FALSE(EqualsIgnoreCase("abc", "abd"));
}

TEST(StrUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("prefix_rest", "prefix"));
  EXPECT_TRUE(StartsWith("abc", ""));
  EXPECT_FALSE(StartsWith("ab", "abc"));
}

TEST(StrUtilTest, Trim) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim("hi"), "hi");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("\t\n x \r"), "x");
}

// The bytewise reflected CRC-32 (polynomial 0xEDB88320): the oracle the
// slicing-by-8 Crc32 must match on every input.
uint32_t BytewiseCrc32(const unsigned char* data, size_t size, uint32_t seed) {
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (0xEDB88320u ^ (crc >> 1)) : (crc >> 1);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, KnownVectors) {
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(Crc32("a"), 0xE8B7BE43u);
  EXPECT_EQ(Crc32("The quick brown fox jumps over the lazy dog"), 0x414FA339u);
}

TEST(Crc32Test, SeedChainsAcrossSplits) {
  const std::string text = "slicing-by-8 must chain like the bytewise loop";
  const uint32_t whole = Crc32(text);
  for (size_t split = 0; split <= text.size(); ++split) {
    const std::string_view view(text);
    EXPECT_EQ(Crc32(view.substr(split), Crc32(view.substr(0, split))), whole)
        << "split at " << split;
  }
  // A seed is the CRC of everything before: empty input returns it.
  EXPECT_EQ(Crc32(std::string_view(), whole), whole);
}

TEST(Crc32Test, EveryLengthAndAlignmentMatchesBytewise) {
  std::vector<unsigned char> buffer(64 + 8);
  for (size_t i = 0; i < buffer.size(); ++i) {
    buffer[i] = static_cast<unsigned char>(i * 37 + 11);
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 64; ++length) {
      const unsigned char* data = buffer.data() + offset;
      for (const uint32_t seed : {0u, 0xDEADBEEFu}) {
        EXPECT_EQ(Crc32(data, length, seed), BytewiseCrc32(data, length, seed))
            << "offset " << offset << " length " << length << " seed "
            << seed;
      }
    }
  }
}

TEST(Crc32Test, RandomBuffersMatchBytewise) {
  std::mt19937_64 rng(20261018);
  std::uniform_int_distribution<size_t> length(0, 30000);
  std::uniform_int_distribution<int> byte(0, 255);
  for (int round = 0; round < 200; ++round) {
    std::vector<unsigned char> buffer(length(rng) + 8);
    for (unsigned char& b : buffer) b = static_cast<unsigned char>(byte(rng));
    const size_t offset = static_cast<size_t>(round) % 8;
    const size_t size = buffer.size() - 8;
    const uint32_t seed = static_cast<uint32_t>(rng());
    ASSERT_EQ(Crc32(buffer.data() + offset, size, seed),
              BytewiseCrc32(buffer.data() + offset, size, seed))
        << "round " << round << " size " << size;
  }
}

// Crc32Combine(Crc32(a), Crc32(b), |b|) == Crc32(a concat b) at every
// split of random buffers, including empty halves.
TEST(Crc32Test, CombineMatchesSequentialAtEverySplit) {
  std::mt19937_64 rng(20261019);
  std::uniform_int_distribution<size_t> length(0, 300);
  std::uniform_int_distribution<int> byte(0, 255);
  for (int round = 0; round < 40; ++round) {
    std::string buffer(round == 0 ? 0 : length(rng), '\0');
    for (char& c : buffer) c = static_cast<char>(byte(rng));
    const std::string_view view(buffer);
    const uint32_t whole = Crc32(view);
    for (size_t split = 0; split <= view.size(); ++split) {
      const std::string_view a = view.substr(0, split);
      const std::string_view b = view.substr(split);
      ASSERT_EQ(Crc32Combine(Crc32(a), Crc32(b), b.size()), whole)
          << "round " << round << " size " << view.size() << " split "
          << split;
    }
  }
  // Length 0: appending nothing keeps the CRC.
  EXPECT_EQ(Crc32Combine(0xCBF43926u, Crc32(""), 0), 0xCBF43926u);
  EXPECT_EQ(Crc32Combine(0, 0, 0), 0u);
}

// The fixed run the version checksum folds a bucket chunk in with: 32
// (name, crc) pairs of 9 bytes. One precomputed combiner serves every run.
TEST(Crc32Test, CombinerFoldsFixedRuns) {
  std::mt19937_64 rng(20261020);
  std::uniform_int_distribution<int> byte(0, 255);
  constexpr size_t kRun = 288;
  const Crc32Combiner combiner(kRun);
  std::string sequence = "head";
  uint32_t combined = Crc32(sequence);
  for (int run = 0; run < 32; ++run) {
    std::string bytes(kRun, '\0');
    for (char& c : bytes) c = static_cast<char>(byte(rng));
    sequence += bytes;
    combined = combiner.Combine(combined, Crc32(bytes));
    ASSERT_EQ(combined, Crc32(sequence)) << "run " << run;
  }
}

}  // namespace
}  // namespace eve
