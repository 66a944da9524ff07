// Transformation rules: logical schedule -> physical schedule (paper §5.1,
// Algorithm 2).
//
// Users may express scheduling goals on logical operators, independent of
// how the SPE fused/fissioned the DAG. A transformation rule maps those
// priorities onto the physical operators: under fission every replica
// inherits the logical priority; under fusion the physical operator gets an
// aggregate (the paper's example rule uses the maximum) of the fused logical
// operators' priorities.
#ifndef LACHESIS_CORE_TRANSFORM_H_
#define LACHESIS_CORE_TRANSFORM_H_

#include <span>
#include <vector>

#include "core/schedule.h"

namespace lachesis::core {

enum class FusionAggregate { kMax, kMin, kSum, kMean };

// Algorithm 2 with a configurable fusion aggregate (kMax reproduces the
// paper's example). `entities` are physical operators; those of other
// queries are skipped, and operators without a priority entry keep
// priority 0. Each output entry points at its input entity.
std::vector<ScheduleEntry> TransformLogicalSchedule(
    const LogicalSchedule& logical, std::span<const EntityInfo* const> entities,
    FusionAggregate aggregate = FusionAggregate::kMax);

}  // namespace lachesis::core

#endif  // LACHESIS_CORE_TRANSFORM_H_
