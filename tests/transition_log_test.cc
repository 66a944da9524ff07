// sim::TransitionLog: the exact bytes its Digest() hashes, and chaining.
//
// Every golden digest in the repository (golden_trace_test, the fleet
// digest, perfbench's fleet references) was captured over the text below,
// so the format is pinned byte for byte here: a header line, then one
// "<at> <tid> 0 <kind>" line per record.
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "common/ids.h"
#include "sim/machine.h"
#include "sim/transition_log.h"

namespace lachesis {
namespace {

using sim::SchedTransition;
using sim::TransitionLog;

// Reference FNV-1a 64, written out independently of the log's so the test
// checks the bytes hashed rather than the hash code against itself.
std::uint64_t ReferenceFnv(std::string_view bytes,
                           std::uint64_t hash = 0xcbf29ce484222325ULL) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

constexpr std::string_view kHeader = "# offset_ns key value kind\n";

// Three records, including the widest possible line (largest time and tid).
void FillA(TransitionLog& log) {
  log.OnSchedTransition(0, ThreadId(0), SchedTransition::kWake);
  log.OnSchedTransition(1500, ThreadId(3), SchedTransition::kDispatch);
  log.OnSchedTransition(std::numeric_limits<SimTime>::max(),
                        ThreadId(std::numeric_limits<std::uint32_t>::max()),
                        SchedTransition::kPreempt);
}
constexpr std::string_view kLinesA =
    "0 0 0 0\n"
    "1500 3 0 1\n"
    "9223372036854775807 4294967295 0 2\n";

// The remaining transition kinds.
void FillB(TransitionLog& log) {
  log.OnSchedTransition(42, ThreadId(7), SchedTransition::kBlock);
  log.OnSchedTransition(43, ThreadId(7), SchedTransition::kSleep);
  log.OnSchedTransition(1'000'000'000'000, ThreadId(12),
                        SchedTransition::kExit);
}
constexpr std::string_view kLinesB =
    "42 7 0 3\n"
    "43 7 0 4\n"
    "1000000000000 12 0 5\n";

std::string Text(std::string_view lines) {
  return std::string(kHeader) + std::string(lines);
}

TEST(TransitionLogTest, ReferenceFnvMatchesPublishedVectors) {
  EXPECT_EQ(ReferenceFnv(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(ReferenceFnv("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(TransitionLog::kFnvBasis, ReferenceFnv(""));
}

TEST(TransitionLogTest, EmptyLogHashesTheHeaderOnly) {
  const TransitionLog log;
  EXPECT_EQ(log.Digest(), ReferenceFnv(kHeader));
}

TEST(TransitionLogTest, DigestHashesExactlyTheTraceText) {
  TransitionLog a;
  FillA(a);
  EXPECT_EQ(a.Digest(), ReferenceFnv(Text(kLinesA)));
  EXPECT_EQ(a.Digest(), 0x316e66270a3a944aULL);

  TransitionLog b;
  FillB(b);
  EXPECT_EQ(b.Digest(), ReferenceFnv(Text(kLinesB)));
}

// The fleet digest passes machine m-1's result into machine m's Digest:
// that must hash the concatenated texts, header included for each.
TEST(TransitionLogTest, ChainedDigestHashesTheConcatenatedTexts) {
  TransitionLog a;
  TransitionLog b;
  FillA(a);
  FillB(b);
  EXPECT_EQ(b.Digest(a.Digest()),
            ReferenceFnv(Text(kLinesA) + Text(kLinesB)));
  EXPECT_EQ(b.Digest(a.Digest()), 0xb006dd87ee760c69ULL);
  EXPECT_NE(b.Digest(a.Digest()), a.Digest(b.Digest()));
}

}  // namespace
}  // namespace lachesis
