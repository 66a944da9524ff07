// The metric provider (paper §4, §5.2, Algorithm 3).
//
// Single component responsible for computing the metrics policies request.
// Per scheduling period it iterates the drivers and computes every
// registered metric for every entity, using a per-driver cache, fetching
// directly from the driver when the SPE exposes the metric and recursively
// resolving the dependency graph otherwise. A missing primitive dependency
// is a configuration error.
//
// The per-period state is dense. Each driver's entity snapshot assigns
// every entity a slot (its index in EntitiesOf); every metric registered
// or reached during resolution gets one value column indexed by slot, plus
// one resolution-state byte per cell (unresolved, in flight, done) that is
// both Algorithm 3's cache and its cycle guard. Columns, state bytes and
// the id -> slot index are refilled in place each period, so a steady
// period allocates nothing beyond the driver's own Entities() copy.
#ifndef LACHESIS_CORE_METRIC_PROVIDER_H_
#define LACHESIS_CORE_METRIC_PROVIDER_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/hash_index.h"
#include "core/driver.h"
#include "core/entities.h"
#include "core/metric.h"

namespace lachesis::core {

// Thrown when a registered metric can be neither fetched nor derived for a
// driver (Algorithm 3 L15).
class ConfigurationError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class MetricProvider {
 public:
  // Installs the built-in derived metrics (queue size, cost, selectivity,
  // input rate, highest rate).
  MetricProvider();

  // Registers a metric required by some policy (Algorithm 1 L1). Leaf
  // dependencies are registered implicitly during resolution.
  void Register(MetricId metric) { registered_.insert(metric); }

  // Drops a registration (a query detached and no remaining policy needs
  // the metric); it is no longer computed on Update.
  void Unregister(MetricId metric) { registered_.erase(metric); }
  [[nodiscard]] const std::set<MetricId>& registered() const {
    return registered_;
  }

  // Adds or replaces a derived metric (the set is user-extensible).
  void InstallDerived(std::unique_ptr<DerivedMetric> metric);

  // Computes all registered metrics for all entities of all drivers
  // (Algorithm 3, update()). `window` is the delta window used by
  // windowed metrics, normally the scheduling period.
  void Update(const std::vector<SpeDriver*>& drivers, SimDuration window);

  // Reads a computed value from the last Update by entity id (tests, the
  // verbose metric-sample path, examples). Precondition: the metric was
  // registered (or reached while resolving one) and Update ran.
  [[nodiscard]] double Value(const SpeDriver& driver, MetricId metric,
                             OperatorId entity) const;

  // The metric's values for every entity of the driver, indexed like
  // EntitiesOf: Column(d, m)[i] belongs to EntitiesOf(d)[i]. This is how
  // policies read metrics. Same precondition as Value; valid until the
  // next Update.
  [[nodiscard]] std::span<const double> Column(const SpeDriver& driver,
                                               MetricId metric) const;

  // Entities snapshot taken during the last Update. Schedules point into
  // it, so it stays put until the next Update replaces it.
  [[nodiscard]] const std::vector<EntityInfo>& EntitiesOf(
      const SpeDriver& driver) const;

 private:
  friend class DriverResolver;

  enum class Cell : std::uint8_t { kUnresolved, kInFlight, kDone };

  struct DriverState {
    std::vector<EntityInfo> entities;  // moved out of SpeDriver::Entities()
    FlatMap<OperatorId, std::uint32_t> slot_of;
    // Per metric: values and resolution state by slot. `live` marks the
    // columns sized and reset for the current period.
    std::array<std::vector<double>, kMetricCount> values;
    std::array<std::vector<Cell>, kMetricCount> cells;
    std::array<bool, kMetricCount> live{};
    // Per-query member lists for QueryEntities, built on first use in a
    // period: query_members[query_begin[g], query_begin[g+1]) is group g.
    bool queries_built = false;
    FlatMap<QueryId, std::uint32_t> query_group;
    std::vector<std::uint32_t> group_of_slot;
    std::vector<std::uint32_t> query_begin;
    std::vector<const EntityInfo*> query_members;
  };

  [[nodiscard]] const DriverState& StateOf(const SpeDriver& driver) const;

  std::set<MetricId> registered_;
  std::array<std::unique_ptr<DerivedMetric>, kMetricCount> derived_;
  std::map<const SpeDriver*, DriverState> states_;
};

}  // namespace lachesis::core

#endif  // LACHESIS_CORE_METRIC_PROVIDER_H_
