#include "osctl/native_runtime_driver.h"

#include <cstdint>

namespace lachesis::osctl {

namespace {
// "<query>.<op>": operator names are only unique per query.
std::string SeriesPrefix(const spe::NativeRuntime& runtime,
                         const spe::NativeOperator& op) {
  return runtime.query_name(static_cast<std::size_t>(op.query_index())) + "." +
         op.name();
}
}  // namespace

NativeRuntimeDriver::NativeRuntimeDriver(spe::NativeRuntime& runtime,
                                         SimDuration delta_window)
    : StoreBackedDriver(
          runtime.name(),
          core::PlanForRawMetrics(spe::NativeRuntime::ExposedMetrics()),
          store_, delta_window),
      runtime_(&runtime) {}

void NativeRuntimeDriver::Poll(SimTime now) {
  runtime_->ForEachRawMetric([this, now](const spe::NativeOperator& op,
                                         spe::RawMetric metric, double value) {
    const tsdb::SeriesId id = scraped_.Resolve(
        store_, reinterpret_cast<std::uintptr_t>(&op),
        static_cast<std::uint32_t>(metric), [&] {
          return SeriesPrefix(*runtime_, op) + "." + spe::RawMetricName(metric);
        });
    store_.Append(id, now, value);
  });
}

std::vector<core::EntityInfo> NativeRuntimeDriver::Entities() {
  std::vector<core::EntityInfo> result;
  std::uint64_t id = 0;
  for (const auto& op_ptr : runtime_->ops()) {
    const spe::NativeOperator& op = *op_ptr;
    core::EntityInfo e;
    e.id = OperatorId(id++);
    e.path = SeriesPrefix(*runtime_, op);
    e.query = QueryId(static_cast<std::uint64_t>(op.query_index()));
    e.query_name =
        runtime_->query_name(static_cast<std::size_t>(op.query_index()));
    e.logical_indices = {op.logical_index()};
    e.replica = 0;  // native surface: one replica per logical operator
    e.is_ingress = op.role() == spe::OperatorRole::kIngress;
    e.is_egress = op.role() == spe::OperatorRole::kEgress;
    e.thread.os_tid = op.tid();
    result.push_back(std::move(e));
  }
  return result;
}

const core::LogicalTopology& NativeRuntimeDriver::Topology(QueryId query) {
  return topologies_.Get(
      query, runtime_->query(static_cast<std::size_t>(query.value())));
}

}  // namespace lachesis::osctl
