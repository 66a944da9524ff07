#include "core/translators.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "core/normalize.h"

namespace lachesis::core {

void NiceTranslator::Apply(const Schedule& schedule, OsAdapter& os) {
  if (schedule.entries.empty()) return;
  priorities_.clear();
  for (const ScheduleEntry& entry : schedule.entries) {
    priorities_.push_back(entry.priority);
  }
  nices_.resize(priorities_.size());
  if (schedule.spacing == PrioritySpacing::kLogarithmic) {
    PrioritiesToNiceInPlace(priorities_, nice_best_, nices_);
  } else {
    // Linear: min-max into the nice interval, best priority -> nice_best.
    MinMaxNormalizeInPlace(priorities_, 0.0, 1.0);
    for (std::size_t i = 0; i < priorities_.size(); ++i) {
      const double nice =
          nice_worst_ - priorities_[i] * (nice_worst_ - nice_best_);
      nices_[i] = std::clamp(static_cast<int>(std::lround(nice)), -20, 19);
    }
  }
  for (std::size_t i = 0; i < schedule.entries.size(); ++i) {
    os.SetNice(schedule.entries[i].entity->thread, nices_[i]);
  }
}

CpuSharesTranslator::CpuSharesTranslator(GroupKeyFn group_of)
    : group_of_(std::move(group_of)) {
  if (!group_of_) {
    group_of_ = [](const EntityInfo& e) { return "op-" + e.path; };
  }
}

GroupingSchedule CpuSharesTranslator::BuildGroups(const Schedule& schedule) const {
  std::map<std::string, ScheduleGroup> groups;
  for (const ScheduleEntry& entry : schedule.entries) {
    const std::string gid = group_of_(*entry.entity);
    auto [it, inserted] = groups.try_emplace(gid);
    if (inserted) {
      it->second.gid = gid;
      it->second.priority = entry.priority;
    } else {
      it->second.priority = std::max(it->second.priority, entry.priority);
    }
    it->second.members.push_back(entry.entity);
  }
  GroupingSchedule result;
  result.spacing = schedule.spacing;
  result.groups.reserve(groups.size());
  for (auto& [gid, group] : groups) result.groups.push_back(std::move(group));
  return result;
}

void CpuSharesTranslator::Apply(const Schedule& schedule, OsAdapter& os) {
  if (schedule.entries.empty()) return;
  const GroupingSchedule grouping = BuildGroups(schedule);

  std::vector<double> priorities;
  priorities.reserve(grouping.groups.size());
  for (const ScheduleGroup& g : grouping.groups) priorities.push_back(g.priority);

  const auto normalized = grouping.spacing == PrioritySpacing::kLogarithmic
                              ? LogMinMaxNormalize(priorities, 0.0, 1.0)
                              : MinMaxNormalize(priorities, 0.0, 1.0);
  const auto shares = PrioritiesToShares(normalized);

  for (std::size_t i = 0; i < grouping.groups.size(); ++i) {
    const ScheduleGroup& group = grouping.groups[i];
    os.SetGroupShares(group.gid, shares[i]);
    for (const EntityInfo* member : group.members) {
      os.MoveToGroup(member->thread, group.gid);
    }
  }
}

QuotaTranslator::QuotaTranslator(double min_cores, double max_cores,
                                 SimDuration period, GroupKeyFn group_of)
    : min_cores_(min_cores),
      max_cores_(max_cores),
      period_(period),
      grouping_helper_(std::move(group_of)) {}

void QuotaTranslator::Apply(const Schedule& schedule, OsAdapter& os) {
  if (schedule.entries.empty()) return;
  const GroupingSchedule grouping = grouping_helper_.BuildGroups(schedule);
  std::vector<double> priorities;
  priorities.reserve(grouping.groups.size());
  for (const ScheduleGroup& g : grouping.groups) priorities.push_back(g.priority);
  const auto normalized = grouping.spacing == PrioritySpacing::kLogarithmic
                              ? LogMinMaxNormalize(priorities, 0.0, 1.0)
                              : MinMaxNormalize(priorities, 0.0, 1.0);
  for (std::size_t i = 0; i < grouping.groups.size(); ++i) {
    const ScheduleGroup& group = grouping.groups[i];
    const double cores =
        min_cores_ + normalized[i] * (max_cores_ - min_cores_);
    os.SetGroupQuota(group.gid, static_cast<SimDuration>(
                                    cores * static_cast<double>(period_)),
                     period_);
    for (const EntityInfo* member : group.members) {
      os.MoveToGroup(member->thread, group.gid);
    }
  }
}

void RtBoostTranslator::Apply(const Schedule& schedule, OsAdapter& os) {
  if (schedule.entries.empty()) return;
  const ScheduleEntry* top = &schedule.entries.front();
  for (const ScheduleEntry& entry : schedule.entries) {
    if (entry.priority > top->priority) top = &entry;
  }
  // Reconcile: demote every previously boosted thread that is not the new
  // top -- using the stored handle, so an entity that was demoted AND
  // dropped from the schedule (operator terminated) cannot keep a stale RT
  // boost. The delta layer skips demotions already applied.
  for (const auto& [path, thread] : boosted_) {
    if (path != top->entity->path) os.SetRtPriority(thread, 0);
  }
  os.SetRtPriority(top->entity->thread, rt_priority_);
  boosted_.clear();
  boosted_.emplace(top->entity->path, top->entity->thread);
  nice_.Apply(schedule, os);
}

void DeadlineTranslator::Apply(const Schedule& schedule, OsAdapter& os) {
  if (schedule.entries.empty()) return;
  // The critical set: tagged entries, or the single top-priority entry.
  std::map<std::string, ThreadHandle> critical;
  for (const ScheduleEntry& entry : schedule.entries) {
    if (entry.criticality == Criticality::kLatencyCritical) {
      critical.emplace(entry.entity->path, entry.entity->thread);
    }
  }
  if (critical.empty()) {
    const ScheduleEntry* top = &schedule.entries.front();
    for (const ScheduleEntry& entry : schedule.entries) {
      if (entry.priority > top->priority) top = &entry;
    }
    critical.emplace(top->entity->path, top->entity->thread);
  }
  // Reconcile: clear every reservation whose holder left the critical set,
  // via the stored handle (the entity may be gone from the schedule). The
  // delta layer elides clears already applied.
  for (const auto& [path, thread] : reserved_) {
    if (critical.find(path) == critical.end()) {
      os.SetDeadline(thread, 0, 0, 0);
    }
  }
  for (const auto& [path, thread] : critical) {
    os.SetDeadline(thread, runtime_, period_, period_);
  }
  reserved_ = std::move(critical);
  nice_.Apply(schedule, os);
}

void CapacityHintTranslator::Apply(const Schedule& schedule, OsAdapter& os) {
  inner_->Apply(schedule, os);
  if (schedule.entries.empty()) return;
  // Big-core set: the top ceil(big_frac * n) entries by priority, plus
  // every latency-critical entry.
  std::vector<const ScheduleEntry*> by_priority;
  by_priority.reserve(schedule.entries.size());
  for (const ScheduleEntry& entry : schedule.entries) {
    by_priority.push_back(&entry);
  }
  std::stable_sort(by_priority.begin(), by_priority.end(),
                   [](const ScheduleEntry* a, const ScheduleEntry* b) {
                     return a->priority > b->priority;
                   });
  const auto big_count = static_cast<std::size_t>(std::min<double>(
      static_cast<double>(by_priority.size()),
      std::ceil(big_frac_ * static_cast<double>(by_priority.size()))));
  std::map<std::string, ThreadHandle> big;
  for (std::size_t i = 0; i < by_priority.size(); ++i) {
    const ScheduleEntry& entry = *by_priority[i];
    if (i < big_count ||
        entry.criticality == Criticality::kLatencyCritical) {
      big.emplace(entry.entity->path, entry.entity->thread);
    }
  }
  for (const auto& [path, thread] : hinted_) {
    if (big.find(path) == big.end()) {
      os.SetCpuAffinity(thread, CpuPreference::kNone);
    }
  }
  for (const auto& [path, thread] : big) {
    os.SetCpuAffinity(thread, CpuPreference::kPreferBig);
  }
  hinted_ = std::move(big);
}

void QuerySharesPlusNiceTranslator::Apply(const Schedule& schedule,
                                          OsAdapter& os) {
  for (const ScheduleEntry& entry : schedule.entries) {
    const std::string gid = "query-" + entry.entity->query_name;
    os.SetGroupShares(gid, query_shares_);
    os.MoveToGroup(entry.entity->thread, gid);
  }
  nice_.Apply(schedule, os);
}

}  // namespace lachesis::core
