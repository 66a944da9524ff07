#include "spans.h"

#include <cstdio>
#include <cstring>

namespace perfbench {

int SpanLog::Begin(const char* name) {
  Span span;
  span.name = name;
  span.start_ns = NowNs();
  span.parent = open_.empty() ? -1 : open_.back().span;
  spans_.push_back(span);
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back({index, {}});
  return index;
}

void SpanLog::End(int index) {
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = NowNs();
  span.dur_ns = span.end_ns - span.start_ns;
  // Spans nest strictly; anything still open above `index` ends with it.
  while (!open_.empty()) {
    const int top = open_.back().span;
    open_.pop_back();
    if (top == index) break;
  }
}

void SpanLog::Accumulate(const char* name, std::int64_t start_ns,
                         std::int64_t end_ns) {
  std::vector<int>& aggregates =
      open_.empty() ? root_aggregates_ : open_.back().aggregates;
  for (const int index : aggregates) {
    Span& span = spans_[static_cast<std::size_t>(index)];
    if (span.name == name) {
      span.end_ns = end_ns;
      span.dur_ns += end_ns - start_ns;
      ++span.calls;
      return;
    }
  }
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.dur_ns = end_ns - start_ns;
  span.parent = open_.empty() ? -1 : open_.back().span;
  span.aggregate = true;
  spans_.push_back(span);
  aggregates.push_back(static_cast<int>(spans_.size()) - 1);
}

namespace {

// Calls `fn(span)` for every descendant of `index`. Spans are appended in
// begin order from one thread, so the descendants of a span are exactly the
// later spans that start before it ends.
template <typename Fn>
void ForEachDescendant(const std::vector<Span>& spans, int index, Fn fn) {
  const Span& parent = spans[static_cast<std::size_t>(index)];
  for (std::size_t j = static_cast<std::size_t>(index) + 1; j < spans.size();
       ++j) {
    if (spans[j].start_ns > parent.end_ns) break;
    fn(spans[j]);
  }
}

bool StartsWith(const char* name, const char* prefix) {
  return std::strncmp(name, prefix, std::strlen(prefix)) == 0;
}

}  // namespace

std::int64_t SpanLog::DescendantNs(int index, const char* prefix) const {
  std::int64_t total = 0;
  ForEachDescendant(spans_, index, [&](const Span& span) {
    if (StartsWith(span.name, prefix)) total += span.dur_ns;
  });
  return total;
}

std::uint64_t SpanLog::DescendantCalls(int index, const char* prefix) const {
  std::uint64_t total = 0;
  ForEachDescendant(spans_, index, [&](const Span& span) {
    if (StartsWith(span.name, prefix)) total += span.calls;
  });
  return total;
}

std::vector<int> SpanLog::Named(const char* name) const {
  std::vector<int> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (std::strcmp(spans_[i].name, name) == 0) {
      out.push_back(static_cast<int>(i));
    }
  }
  return out;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(out, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %d, \"calls\": %llu, \"aggregate\": %s}}%s\n",
                 s.name, static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.dur_ns) / 1e3, i, s.parent,
                 static_cast<unsigned long long>(s.calls),
                 s.aggregate ? "true" : "false",
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "], \"displayTimeUnit\": \"ms\"}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
