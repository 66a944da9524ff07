// The built-in scheduling policies evaluated in the paper (§5.1) plus two
// extension policies from the related-work catalogue (§7).
#ifndef LACHESIS_CORE_POLICIES_H_
#define LACHESIS_CORE_POLICIES_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/policy.h"

namespace lachesis::core {

// A policy whose priority for each entity is one metric's value, in the
// provider's entity order, spaced linearly or logarithmically.
class SingleMetricPolicy : public SchedulingPolicy {
 public:
  [[nodiscard]] const std::string& name() const final { return name_; }
  [[nodiscard]] std::vector<MetricId> RequiredMetrics() const final {
    return {metric_};
  }
  Schedule ComputeSchedule(const PolicyContext& ctx) final;

 protected:
  SingleMetricPolicy(std::string name, MetricId metric,
                     PrioritySpacing spacing)
      : name_(std::move(name)), metric_(metric), spacing_(spacing) {}

 private:
  std::string name_;
  MetricId metric_;
  PrioritySpacing spacing_;
};

// Queue Size (QS) [EdgeWise]: prioritizes operators with longer input
// queues, balancing queue sizes to raise throughput and lower latency.
class QueueSizePolicy final : public SingleMetricPolicy {
 public:
  QueueSizePolicy()
      : SingleMetricPolicy("queue-size", MetricId::kQueueSize,
                           PrioritySpacing::kLinear) {}
};

// Highest Rate (HR) [Sharaf et al.]: prioritizes operators on productive and
// inexpensive paths to sinks, minimizing average processing latency.
// Logarithmically spaced priorities.
class HighestRatePolicy final : public SingleMetricPolicy {
 public:
  HighestRatePolicy()
      : SingleMetricPolicy("highest-rate", MetricId::kHighestRate,
                           PrioritySpacing::kLogarithmic) {}
};

// First-Come-First-Serve (FCFS) [Bender et al.]: prioritizes operators whose
// head-of-line tuples have been in the system longest, minimizing maximum
// latency. The paper quotes it at ~15 lines of code; here it is one line.
class FcfsPolicy final : public SingleMetricPolicy {
 public:
  FcfsPolicy()
      : SingleMetricPolicy("fcfs", MetricId::kHeadTupleAge,
                           PrioritySpacing::kLinear) {}
};

// RANDOM: uniformly random priorities; the control showing improvements are
// not an artifact of merely perturbing OS priorities (§6.3).
class RandomPolicy final : public SchedulingPolicy {
 public:
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] std::vector<MetricId> RequiredMetrics() const override {
    return {};
  }
  Schedule ComputeSchedule(const PolicyContext& ctx) override;

 private:
  std::string name_ = "random";
};

// Chain-inspired memory-minimizing policy (§7, [6]): prioritizes operators
// that shed the most data per unit of CPU, i.e. (1 - selectivity) / cost,
// keeping total queued bytes low.
class MinMemoryPolicy final : public SchedulingPolicy {
 public:
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] std::vector<MetricId> RequiredMetrics() const override {
    return {MetricId::kCost, MetricId::kSelectivity};
  }
  Schedule ComputeSchedule(const PolicyContext& ctx) override;

 private:
  std::string name_ = "min-memory";
};

// Pressure-stall policy (paper §8 future work (4)): prioritizes the
// operators whose threads spent the most time runnable-but-not-running --
// i.e. the CPU-starved ones -- using fresh kernel-side PSI accounting
// instead of scraped engine metrics.
class PressureStallPolicy final : public SingleMetricPolicy {
 public:
  PressureStallPolicy()
      : SingleMetricPolicy("pressure-stall", MetricId::kCpuPressure,
                           PrioritySpacing::kLinear) {}
};

// Runtime policy switching (paper §4: "switch scheduling policies at
// runtime ... with the conditions of this switch programmed by the user"):
// wraps candidate policies and delegates each period to the one the
// user-provided selector picks.
class SwitchablePolicy final : public SchedulingPolicy {
 public:
  using Selector = std::function<std::size_t(const PolicyContext&)>;

  SwitchablePolicy(std::vector<std::unique_ptr<SchedulingPolicy>> candidates,
                   Selector selector);
  [[nodiscard]] const std::string& name() const override { return name_; }
  // Union over candidates, so the provider can serve whichever is active.
  [[nodiscard]] std::vector<MetricId> RequiredMetrics() const override;
  Schedule ComputeSchedule(const PolicyContext& ctx) override;
  [[nodiscard]] std::size_t active() const { return active_; }

 private:
  std::vector<std::unique_ptr<SchedulingPolicy>> candidates_;
  Selector selector_;
  std::size_t active_ = 0;
  std::string name_ = "switchable";
};

// Mixed-criticality decorator: delegates scheduling to the wrapped policy,
// then tags every entry of the named queries Criticality::kLatencyCritical.
// Deadline/RT-capable translators turn the tag into a hard guarantee; the
// inner policy's priorities still order everything else.
class CriticalChainPolicy final : public SchedulingPolicy {
 public:
  CriticalChainPolicy(std::unique_ptr<SchedulingPolicy> inner,
                      std::vector<std::string> critical_queries);
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] std::vector<MetricId> RequiredMetrics() const override;
  Schedule ComputeSchedule(const PolicyContext& ctx) override;

 private:
  std::unique_ptr<SchedulingPolicy> inner_;
  std::vector<std::string> critical_queries_;
  std::string name_;
};

// A user-defined high-level policy (paper §5.1 mode (2)): static priorities
// on LOGICAL operators (e.g. "branch 1 over branch 2", Fig 2), converted to
// a physical schedule with a transformation rule each period.
class LogicalPriorityPolicy final : public SchedulingPolicy {
 public:
  // priorities: query name -> (logical index -> priority).
  explicit LogicalPriorityPolicy(
      std::map<std::string, std::map<int, double>> priorities)
      : priorities_(std::move(priorities)) {}
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] std::vector<MetricId> RequiredMetrics() const override {
    return {};
  }
  Schedule ComputeSchedule(const PolicyContext& ctx) override;

 private:
  std::map<std::string, std::map<int, double>> priorities_;
  std::string name_ = "logical-priority";
};

}  // namespace lachesis::core

#endif  // LACHESIS_CORE_POLICIES_H_
