// In-memory span log for the traced runs.
//
// A span is one call into a layer, timed from outside: name, start, end and
// the span that was open when it began (its parent). Calls that happen
// hundreds of thousands of times per tick (SpeDriver::Fetch,
// OsAdapter::SetNice) are folded into one aggregate child per parent and
// name, carrying the summed duration and the call count; recording each of
// them would cost more than the call itself and would not fit a trace file.
//
// A layer's self time is its span's duration minus the spans of the layers
// it called (DescendantNs). Spans are only recorded from the thread that
// drives the control loop, so the log needs no locking.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  // static string
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t dur_ns = 0;  // end - start, or the summed duration of an
                            // aggregate
  int parent = -1;
  std::uint64_t calls = 1;  // > 1 only for aggregates
  bool aggregate = false;
};

class SpanLog {
 public:
  // Opens a span as a child of the innermost open span; returns its index.
  int Begin(const char* name);
  void End(int index);

  // Adds one call of `name` that ran from `start_ns` to `end_ns` to the
  // aggregate child of the innermost open span.
  void Accumulate(const char* name, std::int64_t start_ns, std::int64_t end_ns);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  // Summed duration and call count of the descendants of `index` whose
  // name starts with `prefix` (callers pick prefixes that never nest).
  [[nodiscard]] std::int64_t DescendantNs(int index, const char* prefix) const;
  [[nodiscard]] std::uint64_t DescendantCalls(int index,
                                              const char* prefix) const;
  // Indices of every span named `name`, in start order.
  [[nodiscard]] std::vector<int> Named(const char* name) const;

  // Chrome trace JSON ("X" complete events; aggregates carry their call
  // count and are drawn from their first start for their summed duration).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Frame {
    int span;
    std::vector<int> aggregates;
  };
  std::vector<Span> spans_;
  std::vector<Frame> open_;
  std::vector<int> root_aggregates_;
};

// RAII helper: a span over the enclosing scope, or nothing when `log` is
// null.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), index_(log != nullptr ? log->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
 private:
  SpanLog* log_;
  int index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
