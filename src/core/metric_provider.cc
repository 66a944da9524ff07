#include "core/metric_provider.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <utility>

namespace lachesis::core {

namespace {

// --- built-in derived metrics (the paper's Fig 4 style graph) ---------------

class QueueSizeMetric final : public DerivedMetric {
 public:
  [[nodiscard]] MetricId id() const override { return MetricId::kQueueSize; }
  [[nodiscard]] std::vector<MetricId> deps() const override {
    return {MetricId::kBufferUsage, MetricId::kBufferCapacity};
  }
  double Compute(MetricResolver& r, const EntityInfo& e) override {
    return r.Get(MetricId::kBufferUsage, e) * r.Get(MetricId::kBufferCapacity, e);
  }
};

class CostMetric final : public DerivedMetric {
 public:
  [[nodiscard]] MetricId id() const override { return MetricId::kCost; }
  [[nodiscard]] std::vector<MetricId> deps() const override {
    return {MetricId::kBusyDeltaNs, MetricId::kTuplesInDelta};
  }
  double Compute(MetricResolver& r, const EntityInfo& e) override {
    const double in = r.Get(MetricId::kTuplesInDelta, e);
    if (in <= 0) return 0.0;
    return r.Get(MetricId::kBusyDeltaNs, e) / in;
  }
};

class SelectivityMetric final : public DerivedMetric {
 public:
  [[nodiscard]] MetricId id() const override { return MetricId::kSelectivity; }
  [[nodiscard]] std::vector<MetricId> deps() const override {
    return {MetricId::kTuplesOutDelta, MetricId::kTuplesInDelta};
  }
  double Compute(MetricResolver& r, const EntityInfo& e) override {
    const double in = r.Get(MetricId::kTuplesInDelta, e);
    if (in <= 0) return 0.0;
    return r.Get(MetricId::kTuplesOutDelta, e) / in;
  }
};

class InputRateMetric final : public DerivedMetric {
 public:
  [[nodiscard]] MetricId id() const override { return MetricId::kInputRate; }
  [[nodiscard]] std::vector<MetricId> deps() const override {
    return {MetricId::kTuplesInDelta};
  }
  double Compute(MetricResolver& r, const EntityInfo& e) override {
    const double window_s = ToSeconds(r.window());
    if (window_s <= 0) return 0.0;
    return r.Get(MetricId::kTuplesInDelta, e) / window_s;
  }
};

// Highest Rate (Sharaf et al. [50]): for each operator, the best output rate
// of any path from it to a sink: max over paths of prod(selectivity) /
// sum(cost). Logical-level values are aggregated over the physical replicas
// implementing each logical operator, then the per-entity value is the best
// over the entity's (possibly fused) logical operators.
class HighestRateMetric final : public DerivedMetric {
 public:
  [[nodiscard]] MetricId id() const override { return MetricId::kHighestRate; }
  [[nodiscard]] std::vector<MetricId> deps() const override {
    return {MetricId::kCost, MetricId::kSelectivity};
  }
  double Compute(MetricResolver& r, const EntityInfo& e) override {
    const LogicalTopology& topo = r.Topology(e.query);
    const auto& entities = r.QueryEntities(e.query);
    const int n = topo.size();

    // Aggregate physical cost/selectivity onto logical operators.
    std::vector<double> cost(static_cast<std::size_t>(n), 0.0);
    std::vector<double> sel(static_cast<std::size_t>(n), 0.0);
    std::vector<int> replicas(static_cast<std::size_t>(n), 0);
    for (const EntityInfo* other : entities) {
      const double c = r.Get(MetricId::kCost, *other);
      const double s = r.Get(MetricId::kSelectivity, *other);
      for (const int l : other->logical_indices) {
        cost[static_cast<std::size_t>(l)] += c;
        sel[static_cast<std::size_t>(l)] += s;
        ++replicas[static_cast<std::size_t>(l)];
      }
    }
    for (int l = 0; l < n; ++l) {
      const auto idx = static_cast<std::size_t>(l);
      if (replicas[idx] > 0) {
        cost[idx] /= replicas[idx];
        sel[idx] /= replicas[idx];
      }
      // Unmeasured operators fall back to static hints / neutral values so
      // HR still produces a usable schedule during warm-up.
      if (cost[idx] <= 0) {
        cost[idx] = topo.base_costs.empty() || topo.base_costs[idx] <= 0
                        ? 1000.0
                        : topo.base_costs[idx];
      }
      if (sel[idx] <= 0) sel[idx] = 1.0;
    }

    double best = 0.0;
    for (const int l : e.logical_indices) {
      best = std::max(best, BestPathRate(topo, cost, sel, l));
    }
    return best;
  }

 private:
  // DFS over the DAG enumerating (selectivity product, cost sum) per path to
  // a sink; returns the best ratio. Query DAGs are small, so enumeration is
  // fine.
  static double BestPathRate(const LogicalTopology& topo,
                             const std::vector<double>& cost,
                             const std::vector<double>& sel, int from) {
    double best = 0.0;
    struct Frame {
      int op;
      double sel_product;
      double cost_sum;
    };
    std::vector<Frame> stack;
    stack.push_back({from, sel[static_cast<std::size_t>(from)],
                     cost[static_cast<std::size_t>(from)]});
    while (!stack.empty()) {
      const Frame f = stack.back();
      stack.pop_back();
      const auto down = topo.Downstream(f.op);
      if (down.empty()) {
        if (f.cost_sum > 0) best = std::max(best, f.sel_product / f.cost_sum);
        continue;
      }
      for (const int d : down) {
        stack.push_back({d, f.sel_product * sel[static_cast<std::size_t>(d)],
                         f.cost_sum + cost[static_cast<std::size_t>(d)]});
      }
    }
    return best;
  }
};

}  // namespace

// Per-driver resolver implementing Algorithm 3's compute() over the
// driver's dense state: a cell's state byte is the period cache (done) and
// the cycle guard (in flight).
class DriverResolver final : public MetricResolver {
 public:
  using Cell = MetricProvider::Cell;

  DriverResolver(MetricProvider& provider, SpeDriver& driver,
                 MetricProvider::DriverState& state, SimDuration window)
      : provider_(&provider), driver_(&driver), state_(&state), window_(window) {}

  double Get(MetricId metric, const EntityInfo& entity) override {
    return GetSlot(metric, SlotOf(entity));
  }

  double GetSlot(MetricId metric, std::size_t slot) {
    const auto m = static_cast<std::size_t>(metric);
    OpenColumn(m);
    // L10-11: already computed in this period.
    Cell& cell = state_->cells[m][slot];
    if (cell == Cell::kDone) return state_->values[m][slot];
    const EntityInfo& entity = state_->entities[slot];
    double value;
    if (driver_->Provides(metric)) {
      // L12-13: available directly from the driver.
      value = driver_->Fetch(metric, entity);
    } else {
      // L14-15: primitive metric missing -> configuration error.
      DerivedMetric* derived = provider_->derived_[m].get();
      if (derived == nullptr) {
        throw ConfigurationError(std::string("metric '") + MetricName(metric) +
                                 "' is neither provided by driver '" +
                                 driver_->name() + "' nor derivable");
      }
      // A user-installed derived metric may (transitively) depend on
      // itself; Algorithm 3's recursion must fail loudly instead of
      // overflowing.
      if (cell == Cell::kInFlight) {
        throw ConfigurationError(std::string("metric '") + MetricName(metric) +
                                 "' has a cyclic dependency");
      }
      // L16-18: compute recursively from dependencies. Recursion opens
      // other columns only, so `cell` stays valid.
      cell = Cell::kInFlight;
      value = derived->Compute(*this, entity);
    }
    state_->values[m][slot] = value;
    cell = Cell::kDone;
    return value;
  }

  std::span<const EntityInfo* const> QueryEntities(QueryId query) override {
    MetricProvider::DriverState& s = *state_;
    if (!s.queries_built) BuildQueryGroups();
    const std::uint32_t* group = s.query_group.Find(query);
    if (group == nullptr) return {};
    const std::uint32_t begin = s.query_begin[*group];
    return {s.query_members.data() + begin, s.query_begin[*group + 1] - begin};
  }

  const LogicalTopology& Topology(QueryId query) override {
    return driver_->Topology(query);
  }

  [[nodiscard]] SimDuration window() const override { return window_; }

  // Sizes and resets column `m` the first time this period reaches it.
  void OpenColumn(std::size_t m) {
    MetricProvider::DriverState& s = *state_;
    if (s.live[m]) return;
    s.values[m].assign(s.entities.size(), 0.0);
    s.cells[m].assign(s.entities.size(), Cell::kUnresolved);
    s.live[m] = true;
  }

 private:
  // Derived metrics hand back the entities they were given (or got from
  // QueryEntities), which live in the snapshot: their slot is their offset.
  // Anything else is looked up by id.
  std::size_t SlotOf(const EntityInfo& entity) const {
    const std::vector<EntityInfo>& entities = state_->entities;
    const EntityInfo* p = &entity;
    if (!entities.empty() && !std::less<>{}(p, entities.data()) &&
        std::less<>{}(p, entities.data() + entities.size())) {
      return static_cast<std::size_t>(p - entities.data());
    }
    const std::uint32_t* slot = state_->slot_of.Find(entity.id);
    if (slot == nullptr) {
      throw ConfigurationError("entity '" + entity.path +
                               "' is not in driver '" + driver_->name() +
                               "''s snapshot");
    }
    return *slot;
  }

  // Groups slots by query (counting sort, snapshot order within a query).
  void BuildQueryGroups() {
    MetricProvider::DriverState& s = *state_;
    const std::size_t n = s.entities.size();
    s.query_group.Clear();
    s.group_of_slot.resize(n);
    s.query_begin.clear();
    for (std::size_t slot = 0; slot < n; ++slot) {
      const std::size_t groups = s.query_group.size();
      std::uint32_t* group = s.query_group.FindOrInsert(s.entities[slot].query);
      if (s.query_group.size() != groups) {
        *group = static_cast<std::uint32_t>(groups);
        s.query_begin.push_back(0);
      }
      s.group_of_slot[slot] = *group;
      ++s.query_begin[*group];
    }
    // Counts -> end offsets. Filling from the back keeps snapshot order
    // within a query and walks each group's end down to its begin.
    std::uint32_t offset = 0;
    for (std::uint32_t& bound : s.query_begin) {
      offset += bound;
      bound = offset;
    }
    s.query_members.resize(n);
    for (std::size_t slot = n; slot-- > 0;) {
      s.query_members[--s.query_begin[s.group_of_slot[slot]]] =
          &s.entities[slot];
    }
    s.query_begin.push_back(offset);  // the last group's end
    s.queries_built = true;
  }

  MetricProvider* provider_;
  SpeDriver* driver_;
  MetricProvider::DriverState* state_;
  SimDuration window_;
};

MetricProvider::MetricProvider() {
  InstallDerived(std::make_unique<QueueSizeMetric>());
  InstallDerived(std::make_unique<CostMetric>());
  InstallDerived(std::make_unique<SelectivityMetric>());
  InstallDerived(std::make_unique<InputRateMetric>());
  InstallDerived(std::make_unique<HighestRateMetric>());
}

void MetricProvider::InstallDerived(std::unique_ptr<DerivedMetric> metric) {
  const auto m = static_cast<std::size_t>(metric->id());
  assert(m < kMetricCount);
  derived_[m] = std::move(metric);
}

void MetricProvider::Update(const std::vector<SpeDriver*>& drivers,
                            SimDuration window) {
  for (SpeDriver* driver : drivers) {
    DriverState& state = states_[driver];
    // L4: fresh per-driver cache each period, refilled in place.
    state.entities = driver->Entities();
    state.slot_of.Clear();
    state.slot_of.Reserve(state.entities.size());
    for (std::size_t slot = 0; slot < state.entities.size(); ++slot) {
      // Ids are unique within a driver; a duplicate keeps its first slot.
      const std::size_t before = state.slot_of.size();
      std::uint32_t* mapped =
          state.slot_of.FindOrInsert(state.entities[slot].id);
      if (state.slot_of.size() != before) {
        *mapped = static_cast<std::uint32_t>(slot);
      }
    }
    state.live.fill(false);
    state.queries_built = false;
    DriverResolver resolver(*this, *driver, state, window);
    for (const MetricId metric : registered_) {  // L5-7
      resolver.OpenColumn(static_cast<std::size_t>(metric));
      for (std::size_t slot = 0; slot < state.entities.size(); ++slot) {
        resolver.GetSlot(metric, slot);
      }
    }
  }
}

const MetricProvider::DriverState& MetricProvider::StateOf(
    const SpeDriver& driver) const {
  const auto it = states_.find(&driver);
  assert(it != states_.end() && "Update must run before reading metrics");
  return it->second;
}

double MetricProvider::Value(const SpeDriver& driver, MetricId metric,
                             OperatorId entity) const {
  const DriverState& state = StateOf(driver);
  const auto m = static_cast<std::size_t>(metric);
  const std::uint32_t* slot = state.slot_of.Find(entity);
  assert(slot != nullptr && "entity not in the snapshot");
  assert(state.live[m] && state.cells[m][*slot] == Cell::kDone &&
         "metric not computed");
  return state.values[m][*slot];
}

std::span<const double> MetricProvider::Column(const SpeDriver& driver,
                                               MetricId metric) const {
  const DriverState& state = StateOf(driver);
  const auto m = static_cast<std::size_t>(metric);
  assert(state.live[m] && "metric not computed");
  return state.values[m];
}

const std::vector<EntityInfo>& MetricProvider::EntitiesOf(
    const SpeDriver& driver) const {
  return StateOf(driver).entities;
}

}  // namespace lachesis::core
