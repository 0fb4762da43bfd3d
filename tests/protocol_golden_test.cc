// The wire protocol against a golden transcript: every line of
// testdata/protocol/session.in goes through one ServerSession, and the
// replies must equal testdata/protocol/session.out byte for byte once
// latencies (` <digits>us`, span durations included) are masked. The
// session covers CONTAINED? misses, hits and alpha-renamed hits, PLAN? on a
// UCQ and a binding-pattern catalog, REWRITE? yes/no, EXPLAIN, a
// re-registration, budget=1 bounds, and the error shapes.
//
// Regenerate after an intended reply change with
//   RELCONT_GOLDEN_REGENERATE=1 ./build/tests/protocol_golden_test

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "service/protocol.h"
#include "service/service.h"
#include "trace/trace.h"

namespace relcont {
namespace {

const std::string kDir = std::string(RELCONT_TESTDATA_DIR) + "/protocol/";

/// Replaces every ` <digits>[.<digits>]us` with ` <N>us`.
std::string MaskLatencies(const std::string& text) {
  std::string out;
  size_t i = 0;
  while (i < text.size()) {
    if (text[i] == ' ' && i + 1 < text.size() &&
        std::isdigit(static_cast<unsigned char>(text[i + 1]))) {
      size_t j = i + 1;
      while (j < text.size() &&
             (std::isdigit(static_cast<unsigned char>(text[j])) ||
              text[j] == '.')) {
        ++j;
      }
      if (text.compare(j, 2, "us") == 0) {
        out += " <N>us";
        i = j + 2;
        continue;
      }
    }
    out += text[i++];
  }
  return out;
}

TEST(ProtocolGoldenTest, MaskLatenciesMasksOnlyMicroseconds) {
  EXPECT_EQ(MaskLatencies("YES section3 MISS 312us id=1\n  decide 4.120us"),
            "YES section3 MISS <N>us id=1\n  decide <N>us");
  EXPECT_EQ(MaskLatencies("rules=12 v3 id=7"), "rules=12 v3 id=7");
}

TEST(ProtocolGoldenTest, SessionRepliesMatchTranscript) {
  if (!trace::kCompiledIn) {
    GTEST_SKIP() << "EXPLAIN replies need the trace hooks compiled in";
  }
  std::ifstream in(kDir + "session.in");
  ASSERT_TRUE(in) << "cannot read " << kDir << "session.in";
  ContainmentService service;
  ServerSession session(&service);
  std::string replies;
  for (std::string line; std::getline(in, line);) {
    replies += MaskLatencies(session.HandleLine(line));
  }
  if (std::getenv("RELCONT_GOLDEN_REGENERATE") != nullptr) {
    std::ofstream(kDir + "session.out") << replies;
    GTEST_SKIP() << "regenerated " << kDir << "session.out";
  }
  std::ifstream golden_file(kDir + "session.out");
  ASSERT_TRUE(golden_file) << "cannot read " << kDir << "session.out";
  std::stringstream golden;
  golden << golden_file.rdbuf();
  // Line by line first, so a failure names the first differing reply.
  std::istringstream got_lines(replies);
  std::istringstream want_lines(golden.str());
  std::string got;
  std::string want;
  for (int n = 1; std::getline(want_lines, want); ++n) {
    ASSERT_TRUE(std::getline(got_lines, got)) << "reply line " << n
                                              << " missing: " << want;
    ASSERT_EQ(got, want) << "reply line " << n;
  }
  EXPECT_FALSE(std::getline(got_lines, got)) << "extra reply line: " << got;
  EXPECT_EQ(replies, golden.str());
}

}  // namespace
}  // namespace relcont
