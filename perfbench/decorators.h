// Benchmark-owned decorators around the paper's four plug-in interfaces.
//
// Each forwards every call to the wrapped object and records the call into
// a SpanLog: coarse calls (Poll, Entities, ComputeSchedule, Apply) as
// spans, per-entity calls (Fetch, SetNice and the other backend ops) as
// aggregates. They are the only tracing the benchmark does inside a tick;
// the program itself is unchanged.
#ifndef PERFBENCH_DECORATORS_H_
#define PERFBENCH_DECORATORS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/driver.h"
#include "core/os_adapter.h"
#include "core/policy.h"
#include "core/translators.h"
#include "spans.h"

namespace perfbench {

class TracingDriver final : public lachesis::core::SpeDriver {
 public:
  TracingDriver(lachesis::core::SpeDriver& inner, SpanLog& log)
      : inner_(&inner), log_(&log) {}

  // Runs before every Poll; the native workload opens its tick span here,
  // because Poll is the first call of a live tick it can observe.
  std::function<void()> before_poll;

  [[nodiscard]] const std::string& name() const override {
    return inner_->name();
  }
  void Poll(lachesis::SimTime now) override {
    if (before_poll) before_poll();
    ScopedSpan span(log_, "driver.Poll");
    inner_->Poll(now);
  }
  std::vector<lachesis::core::EntityInfo> Entities() override {
    ScopedSpan span(log_, "driver.Entities");
    return inner_->Entities();
  }
  const lachesis::core::LogicalTopology& Topology(
      lachesis::QueryId query) override {
    return inner_->Topology(query);
  }
  [[nodiscard]] bool Provides(lachesis::core::MetricId metric) const override {
    return inner_->Provides(metric);
  }
  double Fetch(lachesis::core::MetricId metric,
               const lachesis::core::EntityInfo& entity) override {
    const std::int64_t start = NowNs();
    const double value = inner_->Fetch(metric, entity);
    log_->Accumulate("driver.Fetch", start, NowNs());
    return value;
  }

 private:
  lachesis::core::SpeDriver* inner_;
  SpanLog* log_;
};

class TracingPolicy final : public lachesis::core::SchedulingPolicy {
 public:
  TracingPolicy(std::unique_ptr<lachesis::core::SchedulingPolicy> inner,
                SpanLog& log)
      : inner_(std::move(inner)), log_(&log) {}
  [[nodiscard]] const std::string& name() const override {
    return inner_->name();
  }
  [[nodiscard]] std::vector<lachesis::core::MetricId> RequiredMetrics()
      const override {
    return inner_->RequiredMetrics();
  }
  lachesis::core::Schedule ComputeSchedule(
      const lachesis::core::PolicyContext& ctx) override {
    ScopedSpan span(log_, "policy.ComputeSchedule");
    return inner_->ComputeSchedule(ctx);
  }

 private:
  std::unique_ptr<lachesis::core::SchedulingPolicy> inner_;
  SpanLog* log_;
};

class TracingTranslator final : public lachesis::core::Translator {
 public:
  TracingTranslator(std::unique_ptr<lachesis::core::Translator> inner,
                    SpanLog& log)
      : inner_(std::move(inner)), log_(&log) {}
  [[nodiscard]] const std::string& name() const override {
    return inner_->name();
  }
  void Apply(const lachesis::core::Schedule& schedule,
             lachesis::core::OsAdapter& os) override {
    ScopedSpan span(log_, "translator.Apply");
    inner_->Apply(schedule, os);
  }
  [[nodiscard]] std::uint32_t required_op_classes() const override {
    return inner_->required_op_classes();
  }

 private:
  std::unique_ptr<lachesis::core::Translator> inner_;
  SpanLog* log_;
};

// Wraps the backend the runner is given (below its schedule-delta layer),
// so it sees exactly the operations that reach the OS. Errors are counted
// and rethrown unchanged.
class TracingOsAdapter final : public lachesis::core::OsAdapter {
 public:
  TracingOsAdapter(lachesis::core::OsAdapter& inner, SpanLog& log)
      : inner_(&inner), log_(&log) {}

  void SetNice(const lachesis::core::ThreadHandle& thread, int nice) override {
    Timed("backend.SetNice", [&] { inner_->SetNice(thread, nice); });
  }
  void SetGroupShares(const std::string& group,
                      std::uint64_t shares) override {
    Timed("backend.other", [&] { inner_->SetGroupShares(group, shares); });
  }
  void MoveToGroup(const lachesis::core::ThreadHandle& thread,
                   const std::string& group) override {
    Timed("backend.other", [&] { inner_->MoveToGroup(thread, group); });
  }
  void SetRtPriority(const lachesis::core::ThreadHandle& thread,
                     int rt_priority) override {
    Timed("backend.other", [&] { inner_->SetRtPriority(thread, rt_priority); });
  }
  void SetGroupQuota(const std::string& group, lachesis::SimDuration quota,
                     lachesis::SimDuration period) override {
    Timed("backend.other",
          [&] { inner_->SetGroupQuota(group, quota, period); });
  }
  void SetDeadline(const lachesis::core::ThreadHandle& thread,
                   lachesis::SimDuration runtime,
                   lachesis::SimDuration deadline,
                   lachesis::SimDuration period) override {
    Timed("backend.other",
          [&] { inner_->SetDeadline(thread, runtime, deadline, period); });
  }
  void SetCpuAffinity(const lachesis::core::ThreadHandle& thread,
                      lachesis::core::CpuPreference pref) override {
    Timed("backend.other", [&] { inner_->SetCpuAffinity(thread, pref); });
  }
  bool SnapshotState(const std::vector<lachesis::core::ThreadHandle>& threads,
                     lachesis::core::OsStateSnapshot& out) override {
    return inner_->SnapshotState(threads, out);
  }

  [[nodiscard]] std::uint64_t errors() const { return errors_; }

 private:
  template <typename Fn>
  void Timed(const char* name, Fn fn) {
    const std::int64_t start = NowNs();
    try {
      fn();
    } catch (...) {
      log_->Accumulate(name, start, NowNs());
      ++errors_;
      throw;
    }
    log_->Accumulate(name, start, NowNs());
  }

  lachesis::core::OsAdapter* inner_;
  SpanLog* log_;
  std::uint64_t errors_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_DECORATORS_H_
