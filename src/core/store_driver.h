// The one store-backed metric path every SPE driver shares (paper §4, Fig 4).
// Drivers read only the engine's metric store. Each derives a fetch plan
// from the raw -> Lachesis table once, at construction, and
// StoreBackedDriver serves Provides()/Fetch() from it; concrete drivers
// keep only their entity source (Entities, Topology, Poll).
#ifndef LACHESIS_CORE_STORE_DRIVER_H_
#define LACHESIS_CORE_STORE_DRIVER_H_

#include <array>
#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <unordered_map>

#include "core/driver.h"
#include "spe/flavor.h"
#include "spe/logical.h"
#include "tsdb/tsdb.h"

namespace lachesis::core {

// kDelta: the newest sample minus the one a delta window older, >= 0.
enum class StoreRead : std::uint8_t { kLatest, kDelta };

struct RawMetricRow {
  spe::RawMetric raw;
  MetricId metric;
  StoreRead read;
  double scale;  // multiplies the stored value (unit conversion)
};

// The raw -> Lachesis table. When several exposed raw metrics serve one
// MetricId the first row wins (a measured cost beats an execute latency).
std::span<const RawMetricRow> RawMetricTable();

struct PlannedRead {
  std::string suffix;  // "<entity path>.<suffix>"; empty = not provided
  StoreRead read = StoreRead::kLatest;
  double scale = 1.0;
};
using FetchPlan = std::array<PlannedRead, kMetricCount>;

// Engines exposing `exposed` under spe::RawMetricName suffixes.
FetchPlan PlanForRawMetrics(const std::set<spe::RawMetric>& exposed);

// Exporters publishing Lachesis metrics under MetricName suffixes; windowed
// ones read the delta of a cumulative counter (tuples_in_total, ...).
FetchPlan PlanForPublished(const std::set<MetricId>& published);

class StoreBackedDriver : public SpeDriver {
 public:
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] bool Provides(MetricId metric) const override;
  // 0 for unplanned metrics and empty series. Series are resolved once per
  // (entity id, metric): an id must name one path for the driver's life.
  double Fetch(MetricId metric, const EntityInfo& entity) override;

 protected:
  // `store` may be a member of the derived driver: it is not touched here.
  StoreBackedDriver(std::string name, FetchPlan plan,
                    tsdb::TimeSeriesStore& store, SimDuration delta_window);

 private:
  std::string name_;
  FetchPlan plan_;
  tsdb::TimeSeriesStore* store_;
  SimDuration delta_window_;
  tsdb::SeriesCache series_;
};

// Lazily built topology exports for drivers that deploy spe::LogicalQuery.
class TopologyCache {
 public:
  const LogicalTopology& Get(QueryId query, const spe::LogicalQuery& logical);

 private:
  std::unordered_map<QueryId, LogicalTopology> topologies_;
};

}  // namespace lachesis::core

#endif  // LACHESIS_CORE_STORE_DRIVER_H_
