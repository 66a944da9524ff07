#include "core/policies.h"

#include <algorithm>
#include <cassert>
#include <span>

#include "core/transform.h"

namespace lachesis::core {

namespace {

// Reads one metric's column for the entities ForEachEntity visits, looking
// the column up once per driver.
class ColumnReader {
 public:
  ColumnReader(const MetricProvider& provider, MetricId metric)
      : provider_(&provider), metric_(metric) {}

  double operator()(const SpeDriver& driver, std::size_t slot) {
    if (&driver != driver_) {
      column_ = provider_->Column(driver, metric_);
      driver_ = &driver;
    }
    return column_[slot];
  }

 private:
  const MetricProvider* provider_;
  MetricId metric_;
  const SpeDriver* driver_ = nullptr;
  std::span<const double> column_;
};

}  // namespace

Schedule SingleMetricPolicy::ComputeSchedule(const PolicyContext& ctx) {
  Schedule schedule;
  schedule.spacing = spacing_;
  schedule.entries.reserve(ctx.EntityBound());
  ColumnReader value(*ctx.provider, metric_);
  ctx.ForEachEntity(
      [&](SpeDriver& driver, const EntityInfo& e, std::size_t slot) {
        schedule.entries.push_back({&e, value(driver, slot)});
      });
  return schedule;
}

Schedule RandomPolicy::ComputeSchedule(const PolicyContext& ctx) {
  Schedule schedule;
  schedule.spacing = PrioritySpacing::kLinear;
  schedule.entries.reserve(ctx.EntityBound());
  ctx.ForEachEntity([&](SpeDriver&, const EntityInfo& e, std::size_t) {
    schedule.entries.push_back({&e, ctx.rng->NextDouble()});
  });
  return schedule;
}

Schedule MinMemoryPolicy::ComputeSchedule(const PolicyContext& ctx) {
  Schedule schedule;
  schedule.spacing = PrioritySpacing::kLinear;
  schedule.entries.reserve(ctx.EntityBound());
  ColumnReader cost_of(*ctx.provider, MetricId::kCost);
  ColumnReader sel_of(*ctx.provider, MetricId::kSelectivity);
  ctx.ForEachEntity(
      [&](SpeDriver& driver, const EntityInfo& e, std::size_t slot) {
        const double cost = cost_of(driver, slot);
        const double sel = sel_of(driver, slot);
        // Data shed per CPU nanosecond; negative for expanding operators,
        // which correctly deprioritizes them when memory is the goal.
        const double priority = cost > 0 ? (1.0 - sel) / cost : 0.0;
        schedule.entries.push_back({&e, priority});
      });
  return schedule;
}

SwitchablePolicy::SwitchablePolicy(
    std::vector<std::unique_ptr<SchedulingPolicy>> candidates,
    Selector selector)
    : candidates_(std::move(candidates)), selector_(std::move(selector)) {
  assert(!candidates_.empty());
}

std::vector<MetricId> SwitchablePolicy::RequiredMetrics() const {
  std::vector<MetricId> all;
  for (const auto& candidate : candidates_) {
    for (const MetricId m : candidate->RequiredMetrics()) all.push_back(m);
  }
  return all;
}

Schedule SwitchablePolicy::ComputeSchedule(const PolicyContext& ctx) {
  active_ = std::min(selector_(ctx), candidates_.size() - 1);
  return candidates_[active_]->ComputeSchedule(ctx);
}

CriticalChainPolicy::CriticalChainPolicy(
    std::unique_ptr<SchedulingPolicy> inner,
    std::vector<std::string> critical_queries)
    : inner_(std::move(inner)),
      critical_queries_(std::move(critical_queries)),
      name_("critical+" + inner_->name()) {}

std::vector<MetricId> CriticalChainPolicy::RequiredMetrics() const {
  return inner_->RequiredMetrics();
}

Schedule CriticalChainPolicy::ComputeSchedule(const PolicyContext& ctx) {
  Schedule schedule = inner_->ComputeSchedule(ctx);
  for (ScheduleEntry& entry : schedule.entries) {
    for (const std::string& query : critical_queries_) {
      if (entry.entity->query_name == query) {
        entry.criticality = Criticality::kLatencyCritical;
        break;
      }
    }
  }
  return schedule;
}

Schedule LogicalPriorityPolicy::ComputeSchedule(const PolicyContext& ctx) {
  Schedule schedule;
  schedule.spacing = PrioritySpacing::kLinear;
  std::vector<const EntityInfo*> scheduled;
  for (SpeDriver* driver : ctx.drivers) {
    // Group this driver's scheduled entities by query (ascending id,
    // snapshot order within a query), then apply Algorithm 2 to each query
    // that has configured logical priorities.
    scheduled.clear();
    for (const EntityInfo& e : ctx.provider->EntitiesOf(*driver)) {
      if (!ctx.filter || ctx.filter(e)) scheduled.push_back(&e);
    }
    std::stable_sort(scheduled.begin(), scheduled.end(),
                     [](const EntityInfo* a, const EntityInfo* b) {
                       return a->query < b->query;
                     });
    for (auto run = scheduled.begin(); run != scheduled.end();) {
      const QueryId query = (*run)->query;
      const auto end = std::find_if(run, scheduled.end(),
                                    [query](const EntityInfo* e) {
                                      return e->query != query;
                                    });
      const auto it = priorities_.find((*run)->query_name);
      if (it != priorities_.end()) {
        LogicalSchedule logical;
        logical.query = query;
        logical.priorities = it->second;
        const auto physical = TransformLogicalSchedule(
            logical, std::span<const EntityInfo* const>(run, end));
        schedule.entries.insert(schedule.entries.end(), physical.begin(),
                                physical.end());
      }
      run = end;
    }
  }
  return schedule;
}

}  // namespace lachesis::core
