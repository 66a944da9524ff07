// The one record of a machine's scheduler transitions, and its digest.
//
// TransitionLog is the SchedTraceObserver every determinism gate uses: the
// golden-trace tests, the fleet digest and the conformance checkers. It
// only appends 16-byte records on the scheduler's hot path; Digest() folds
// them afterwards.
//
// The digest is FNV-1a 64 over the text
//
//   # offset_ns key value kind\n
//   <at> <tid> 0 <kind>\n        (one line per record)
//
// which is the trace format the golden digests were captured in. Digest()
// formats each line into a stack buffer and folds it; no text is kept.
// Passing one log's digest as the next log's starting hash hashes the
// concatenation of their texts, which is how the fleet digest chains its
// machines in index order.
#ifndef LACHESIS_SIM_TRANSITION_LOG_H_
#define LACHESIS_SIM_TRANSITION_LOG_H_

#include <cassert>
#include <charconv>
#include <cstdint>
#include <limits>
#include <string_view>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/sim_time.h"
#include "sim/machine.h"

namespace lachesis::sim {

struct TransitionRecord {
  SimTime at = 0;
  std::uint32_t tid = 0;
  SchedTransition kind = SchedTransition::kWake;
};
static_assert(sizeof(TransitionRecord) == 16);

class TransitionLog final : public SchedTraceObserver {
 public:
  static constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;

  void OnSchedTransition(SimTime time, ThreadId tid,
                         SchedTransition kind) override {
    assert(tid.value() <= std::numeric_limits<std::uint32_t>::max());
    records_.push_back({time, static_cast<std::uint32_t>(tid.value()), kind});
  }

  [[nodiscard]] std::size_t size() const { return records_.size(); }
  [[nodiscard]] const std::vector<TransitionRecord>& records() const& {
    return records_;
  }
  [[nodiscard]] std::vector<TransitionRecord> records() && {
    return std::move(records_);
  }

  [[nodiscard]] std::uint64_t Digest(std::uint64_t hash = kFnvBasis) const {
    hash = FoldFnv(hash, "# offset_ns key value kind\n");
    // Widest line: 20-char int64, 10-digit tid and kind, 3 separators and
    // the constant value field, newline.
    char line[48];
    char* const end = line + sizeof line;
    for (const TransitionRecord& r : records_) {
      char* p = std::to_chars(line, end, r.at).ptr;
      *p++ = ' ';
      p = std::to_chars(p, end, r.tid).ptr;
      *p++ = ' ';
      *p++ = '0';
      *p++ = ' ';
      p = std::to_chars(p, end, static_cast<std::uint32_t>(r.kind)).ptr;
      *p++ = '\n';
      hash = FoldFnv(hash, std::string_view(line, static_cast<std::size_t>(
                                                      p - line)));
    }
    return hash;
  }

 private:
  // FNV-1a 64 over `bytes`, continuing from `hash`.
  static std::uint64_t FoldFnv(std::uint64_t hash, std::string_view bytes) {
    for (const char c : bytes) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 1099511628211ULL;
    }
    return hash;
  }

  std::vector<TransitionRecord> records_;
};

}  // namespace lachesis::sim

#endif  // LACHESIS_SIM_TRANSITION_LOG_H_
