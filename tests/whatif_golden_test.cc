// Golden what-if transcript: replays tests/golden/whatif.evectl through
// net::Console, as evectl does, and diffs the output with
// tests/golden/whatif.expected byte for byte.
//
// The inputs are a 12-relation chain MKB with covers four joins away and
// PC constraints (chain12.misd, SaveMkb of MakeChainMkb with length 12,
// cover_distance 4) and 60 seeded chain views of one to three relations
// with mixed extents and evolution parameters (pool.views). The script
// runs SYNC DRYRUN and SHOW SYNC STATS for DELETE RELATION R1..R5 and for
// DELETE ATTRIBUTE of each one's payload and link attribute, plain and
// under SET SYNC WORKBUDGET 5, 12 and 40. It sets no wall-clock deadline,
// so the transcript is deterministic; the console runs at the default
// sync parallelism, so multi-view deletes fan out over the host's CPUs.
//
// To regenerate the expected bytes after an intended output change, run
// from tests/golden:  ../../build/tools/evectl whatif.evectl > whatif.expected

#include <gtest/gtest.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <string>

#include "net/console.h"

#ifndef EVE_GOLDEN_DIR
#error "EVE_GOLDEN_DIR must name tests/golden"
#endif

namespace eve {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// First line where `got` and `want` differ, with both versions, for a
// readable failure message.
std::string FirstDifference(const std::string& got, const std::string& want) {
  std::istringstream got_lines(got);
  std::istringstream want_lines(want);
  std::string g;
  std::string w;
  for (size_t line = 1;; ++line) {
    const bool more_got = static_cast<bool>(std::getline(got_lines, g));
    const bool more_want = static_cast<bool>(std::getline(want_lines, w));
    if (!more_got && !more_want) return "no line differs";
    if (!more_got || !more_want || g != w) {
      return "line " + std::to_string(line) + "\n  got:  " +
             (more_got ? g : "<end>") + "\n  want: " +
             (more_want ? w : "<end>");
    }
  }
}

TEST(WhatifGolden, TranscriptMatches) {
  // The script loads its MISD and view pool by relative path.
  ASSERT_EQ(chdir(EVE_GOLDEN_DIR), 0) << EVE_GOLDEN_DIR;
  const std::string script = ReadFile("whatif.evectl");
  const std::string expected = ReadFile("whatif.expected");
  ASSERT_FALSE(expected.empty());

  net::Console console;
  std::ostringstream out;
  for (const net::Statement& statement : net::SplitStatements(script)) {
    out << "evectl> " << statement.text << "\n";
    std::ostringstream err;
    EXPECT_TRUE(console.Run(statement.text, out, err))
        << "whatif.evectl:" << statement.line << ": " << err.str();
  }
  const std::string transcript = out.str();
  EXPECT_TRUE(transcript == expected)
      << "transcript differs from whatif.expected at "
      << FirstDifference(transcript, expected);
}

}  // namespace
}  // namespace eve
