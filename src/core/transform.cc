#include "core/transform.h"

#include <algorithm>

namespace lachesis::core {

std::vector<ScheduleEntry> TransformLogicalSchedule(
    const LogicalSchedule& logical, std::span<const EntityInfo* const> entities,
    FusionAggregate aggregate) {
  std::vector<ScheduleEntry> out;
  out.reserve(entities.size());
  for (const EntityInfo* entity : entities) {  // each physical op, replicas too
    const EntityInfo& e = *entity;
    if (e.query != logical.query) continue;
    double priority = 0.0;
    bool first = true;
    int contributors = 0;
    for (const int l : e.logical_indices) {  // fused logical operators
      const auto it = logical.priorities.find(l);
      if (it == logical.priorities.end()) continue;
      const double p = it->second;
      ++contributors;
      if (first) {
        priority = p;
        first = false;
        continue;
      }
      switch (aggregate) {
        case FusionAggregate::kMax:
          priority = std::max(priority, p);
          break;
        case FusionAggregate::kMin:
          priority = std::min(priority, p);
          break;
        case FusionAggregate::kSum:
        case FusionAggregate::kMean:
          priority += p;
          break;
      }
    }
    if (aggregate == FusionAggregate::kMean && contributors > 1) {
      priority /= contributors;
    }
    out.push_back({entity, priority});
  }
  return out;
}

}  // namespace lachesis::core
