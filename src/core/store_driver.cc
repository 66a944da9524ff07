#include "core/store_driver.h"

#include <algorithm>

namespace lachesis::core {

namespace {

using R = spe::RawMetric;
using M = MetricId;
constexpr StoreRead kLatest = StoreRead::kLatest;
constexpr StoreRead kDelta = StoreRead::kDelta;

constexpr RawMetricRow kTable[] = {
    {R::kTuplesIn, M::kTuplesInTotal, kLatest, 1},
    {R::kTuplesIn, M::kTuplesInDelta, kDelta, 1},
    {R::kTuplesOut, M::kTuplesOutTotal, kLatest, 1},
    {R::kTuplesOut, M::kTuplesOutDelta, kDelta, 1},
    {R::kBusyTimeNs, M::kBusyDeltaNs, kDelta, 1},
    {R::kBufferUsage, M::kBufferUsage, kLatest, 1},
    {R::kBufferCapacity, M::kBufferCapacity, kLatest, 1},
    {R::kQueueSize, M::kQueueSize, kLatest, 1},
    {R::kCost, M::kCost, kLatest, 1},
    {R::kAvgExecLatencyUs, M::kCost, kLatest, 1000},  // µs -> ns
    {R::kSelectivity, M::kSelectivity, kLatest, 1},
    {R::kHeadTupleAgeNs, M::kHeadTupleAge, kLatest, 1},
    {R::kQueueHighWater, M::kQueueHighWater, kLatest, 1},
};

const RawMetricRow* RowOf(MetricId metric) {
  for (const RawMetricRow& row : kTable) {
    if (row.metric == metric) return &row;
  }
  return nullptr;
}

std::size_t Index(MetricId metric) { return static_cast<std::size_t>(metric); }

}  // namespace

std::span<const RawMetricRow> RawMetricTable() { return kTable; }

FetchPlan PlanForRawMetrics(const std::set<spe::RawMetric>& exposed) {
  FetchPlan plan;
  for (const RawMetricRow& row : kTable) {
    PlannedRead& read = plan[Index(row.metric)];
    if (!read.suffix.empty() || exposed.count(row.raw) == 0) continue;
    read = {spe::RawMetricName(row.raw), row.read, row.scale};
  }
  return plan;
}

FetchPlan PlanForPublished(const std::set<MetricId>& published) {
  FetchPlan plan;
  for (const MetricId metric : published) {
    PlannedRead& read = plan[Index(metric)];
    read.suffix = MetricName(metric);
    const RawMetricRow* row = RowOf(metric);
    if (row == nullptr || row->read == kLatest) continue;
    // Windowed: the delta of the counter published for the same raw metric
    // (tuples_in_delta of tuples_in_total), else of its own series.
    read.read = kDelta;
    for (const RawMetricRow& counter : kTable) {
      if (counter.raw == row->raw && counter.read == kLatest) {
        read.suffix = MetricName(counter.metric);
        break;
      }
    }
  }
  return plan;
}

StoreBackedDriver::StoreBackedDriver(std::string name, FetchPlan plan,
                                     tsdb::TimeSeriesStore& store,
                                     SimDuration delta_window)
    : name_(std::move(name)),
      plan_(std::move(plan)),
      store_(&store),
      delta_window_(delta_window) {}

bool StoreBackedDriver::Provides(MetricId metric) const {
  return !plan_[Index(metric)].suffix.empty();
}

double StoreBackedDriver::Fetch(MetricId metric, const EntityInfo& entity) {
  const PlannedRead& read = plan_[Index(metric)];
  if (read.suffix.empty()) return 0.0;
  const tsdb::SeriesId id = series_.Resolve(
      *store_, entity.id.value(), static_cast<std::uint32_t>(metric),
      [&] { return entity.path + "." + read.suffix; });
  if (read.read == kDelta) {
    const auto delta = store_->Delta(id, delta_window_);
    return delta ? std::max(*delta, 0.0) * read.scale : 0.0;
  }
  const auto sample = store_->Latest(id);
  return sample ? sample->value * read.scale : 0.0;
}

const LogicalTopology& TopologyCache::Get(QueryId query,
                                          const spe::LogicalQuery& logical) {
  const auto [it, inserted] = topologies_.try_emplace(query);
  LogicalTopology& topo = it->second;
  if (!inserted) return topo;
  for (int i = 0; i < static_cast<int>(logical.operators.size()); ++i) {
    const auto& op = logical.operators[static_cast<std::size_t>(i)];
    topo.names.push_back(op.name);
    topo.base_costs.push_back(static_cast<double>(op.cost));
    if (op.role == spe::OperatorRole::kIngress) topo.ingress_indices.push_back(i);
    if (op.role == spe::OperatorRole::kEgress) topo.egress_indices.push_back(i);
  }
  for (const auto& edge : logical.edges) {
    topo.edges.emplace_back(edge.from, edge.to);
  }
  return topo;
}

}  // namespace lachesis::core
