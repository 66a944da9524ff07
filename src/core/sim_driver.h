// Driver for the simulated SPE flavors (paper §4, "SPE Drivers").
//
// One driver class serves Storm-, Flink- and Liebre-flavored instances: the
// flavor's exposed raw metrics determine which Lachesis metrics the driver
// Provides(); everything else is derived by the metric provider (the paper's
// Fig 4 example: the same HR policy resolves differently per SPE). Metric
// values are read from the Graphite-like store the engine reports to -- not
// from live engine state -- so the driver sees data up to one scrape period
// old, exactly like the real middleware.
#ifndef LACHESIS_CORE_SIM_DRIVER_H_
#define LACHESIS_CORE_SIM_DRIVER_H_

#include <unordered_map>
#include <vector>

#include "core/store_driver.h"
#include "spe/runtime.h"
#include "tsdb/tsdb.h"

namespace lachesis::core {

class SimSpeDriver final : public StoreBackedDriver {
 public:
  SimSpeDriver(spe::SpeInstance& instance, tsdb::TimeSeriesStore& store,
               SimDuration delta_window = Seconds(1));

  std::vector<EntityInfo> Entities() override;
  const LogicalTopology& Topology(QueryId query) override;
  // The store-backed metrics, plus kCpuPressure from the OS.
  [[nodiscard]] bool Provides(MetricId metric) const override;
  double Fetch(MetricId metric, const EntityInfo& entity) override;

 private:
  spe::SpeInstance* instance_;
  TopologyCache topologies_;
  // Previous runnable-wait snapshot per entity, for the PSI delta. Pressure
  // is an OS facility (read fresh from the kernel, not scraped via the
  // metric store).
  std::unordered_map<OperatorId, double> last_wait_ns_;
};

}  // namespace lachesis::core

#endif  // LACHESIS_CORE_SIM_DRIVER_H_
