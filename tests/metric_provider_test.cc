// Tests of the metric provider: Algorithm 3's direct fetch, recursive
// dependency resolution (the paper's Fig 4 example), per-period cache, and
// configuration-error behaviour; plus a seeded differential test of the
// dense per-slot columns against a naive per-entity recursive reference.
#include "core/metric_provider.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tests/fake_driver.h"

namespace lachesis::core {
namespace {

using testing::FakeDriver;

TEST(MetricProviderTest, FetchesDirectlyWhenDriverProvides) {
  FakeDriver driver;
  const EntityInfo e = driver.AddEntity(QueryId(0), {0});
  driver.Provide(MetricId::kQueueSize);
  driver.SetValue(MetricId::kQueueSize, e.id, 42);

  MetricProvider provider;
  provider.Register(MetricId::kQueueSize);
  provider.Update({&driver}, Seconds(1));
  EXPECT_DOUBLE_EQ(provider.Value(driver, MetricId::kQueueSize, e.id), 42);
}

TEST(MetricProviderTest, DerivesQueueSizeFromBufferMetrics) {
  // Flink-style driver: no queue size, but buffer usage and capacity.
  FakeDriver driver;
  const EntityInfo e = driver.AddEntity(QueryId(0), {0});
  driver.Provide(MetricId::kBufferUsage);
  driver.Provide(MetricId::kBufferCapacity);
  driver.SetValue(MetricId::kBufferUsage, e.id, 0.25);
  driver.SetValue(MetricId::kBufferCapacity, e.id, 64);

  MetricProvider provider;
  provider.Register(MetricId::kQueueSize);
  provider.Update({&driver}, Seconds(1));
  EXPECT_DOUBLE_EQ(provider.Value(driver, MetricId::kQueueSize, e.id), 16);
}

TEST(MetricProviderTest, DerivesCostAndSelectivityFromDeltas) {
  FakeDriver driver;
  const EntityInfo e = driver.AddEntity(QueryId(0), {0});
  driver.Provide(MetricId::kTuplesInDelta);
  driver.Provide(MetricId::kTuplesOutDelta);
  driver.Provide(MetricId::kBusyDeltaNs);
  driver.SetValue(MetricId::kTuplesInDelta, e.id, 100);
  driver.SetValue(MetricId::kTuplesOutDelta, e.id, 250);
  driver.SetValue(MetricId::kBusyDeltaNs, e.id, 5'000'000);

  MetricProvider provider;
  provider.Register(MetricId::kCost);
  provider.Register(MetricId::kSelectivity);
  provider.Update({&driver}, Seconds(1));
  EXPECT_DOUBLE_EQ(provider.Value(driver, MetricId::kCost, e.id), 50'000);
  EXPECT_DOUBLE_EQ(provider.Value(driver, MetricId::kSelectivity, e.id), 2.5);
}

TEST(MetricProviderTest, PrefersDirectFetchOverDerivation) {
  // Driver provides BOTH cost and its dependencies; Algorithm 3 L12-13 says
  // fetch directly.
  FakeDriver driver;
  const EntityInfo e = driver.AddEntity(QueryId(0), {0});
  driver.Provide(MetricId::kCost);
  driver.Provide(MetricId::kTuplesInDelta);
  driver.Provide(MetricId::kBusyDeltaNs);
  driver.SetValue(MetricId::kCost, e.id, 777);
  driver.SetValue(MetricId::kTuplesInDelta, e.id, 10);
  driver.SetValue(MetricId::kBusyDeltaNs, e.id, 10'000);

  MetricProvider provider;
  provider.Register(MetricId::kCost);
  provider.Update({&driver}, Seconds(1));
  EXPECT_DOUBLE_EQ(provider.Value(driver, MetricId::kCost, e.id), 777);
}

TEST(MetricProviderTest, CachePreventsDuplicateFetchesWithinPeriod) {
  // kCost and kSelectivity share the kTuplesInDelta dependency; with the
  // per-driver cache it must be fetched once per entity per period.
  FakeDriver driver;
  const EntityInfo e = driver.AddEntity(QueryId(0), {0});
  driver.Provide(MetricId::kTuplesInDelta);
  driver.Provide(MetricId::kTuplesOutDelta);
  driver.Provide(MetricId::kBusyDeltaNs);
  driver.SetValue(MetricId::kTuplesInDelta, e.id, 100);

  MetricProvider provider;
  provider.Register(MetricId::kCost);
  provider.Register(MetricId::kSelectivity);
  provider.Update({&driver}, Seconds(1));
  // 3 distinct leaves -> exactly 3 fetches despite 2 consumers of in-delta.
  EXPECT_EQ(driver.fetch_count(), 3);

  // A new period clears the cache: fetches happen again.
  driver.ResetFetchCount();
  provider.Update({&driver}, Seconds(1));
  EXPECT_EQ(driver.fetch_count(), 3);
}

TEST(MetricProviderTest, ThrowsConfigurationErrorOnMissingPrimitive) {
  FakeDriver driver;
  driver.AddEntity(QueryId(0), {0});
  // Queue size requested, but neither it nor buffer usage/capacity provided.
  MetricProvider provider;
  provider.Register(MetricId::kQueueSize);
  EXPECT_THROW(provider.Update({&driver}, Seconds(1)), ConfigurationError);
}

TEST(MetricProviderTest, Fig4ExampleResolvesPerDriver) {
  // SPE A (Liebre-like) exposes cost+selectivity directly; SPE B
  // (Flink-like) exposes only counts and busy time. The same registered
  // HIGHEST_RATE must resolve for both (goal G2).
  LogicalTopology topo;
  topo.names = {"src", "op", "sink"};
  topo.base_costs = {1000, 1000, 1000};
  topo.edges = {{0, 1}, {1, 2}};

  FakeDriver spe_a("liebre");
  spe_a.SetTopology(QueryId(0), topo);
  for (int i = 0; i < 3; ++i) {
    const EntityInfo e = spe_a.AddEntity(QueryId(0), {i});
    spe_a.SetValue(MetricId::kCost, e.id, 1000.0 * (i + 1));
    spe_a.SetValue(MetricId::kSelectivity, e.id, 1.0);
  }
  spe_a.Provide(MetricId::kCost);
  spe_a.Provide(MetricId::kSelectivity);

  FakeDriver spe_b("flink");
  spe_b.SetTopology(QueryId(0), topo);
  for (int i = 0; i < 3; ++i) {
    const EntityInfo e = spe_b.AddEntity(QueryId(0), {i});
    spe_b.SetValue(MetricId::kTuplesInDelta, e.id, 100);
    spe_b.SetValue(MetricId::kTuplesOutDelta, e.id, 100);
    spe_b.SetValue(MetricId::kBusyDeltaNs, e.id, 100 * 1000.0 * (i + 1));
  }
  spe_b.Provide(MetricId::kTuplesInDelta);
  spe_b.Provide(MetricId::kTuplesOutDelta);
  spe_b.Provide(MetricId::kBusyDeltaNs);

  MetricProvider provider;
  provider.Register(MetricId::kHighestRate);
  provider.Update({&spe_a, &spe_b}, Seconds(1));

  // Identical effective cost/selectivity -> identical highest-rate values,
  // computed through different dependency paths.
  for (std::uint64_t i = 0; i < 3; ++i) {
    const double a =
        provider.Value(spe_a, MetricId::kHighestRate, OperatorId(i));
    const double b =
        provider.Value(spe_b, MetricId::kHighestRate, OperatorId(i));
    EXPECT_NEAR(a, b, 1e-12) << "entity " << i;
    EXPECT_GT(a, 0);
  }
}

TEST(MetricProviderTest, HighestRatePrefersCheapProductivePaths) {
  // Two branches from op0: cheap (op1) and expensive (op2), both to sinks.
  LogicalTopology topo;
  topo.names = {"src", "cheap", "expensive", "sink1", "sink2"};
  topo.base_costs = {1000, 1000, 1000, 1000, 1000};
  topo.edges = {{0, 1}, {0, 2}, {1, 3}, {2, 4}};

  FakeDriver driver;
  driver.SetTopology(QueryId(0), topo);
  std::vector<EntityInfo> entities;
  for (int i = 0; i < 5; ++i) {
    entities.push_back(driver.AddEntity(QueryId(0), {i}));
  }
  driver.Provide(MetricId::kCost);
  driver.Provide(MetricId::kSelectivity);
  const double costs[] = {1000, 1000, 50000, 1000, 1000};
  for (int i = 0; i < 5; ++i) {
    driver.SetValue(MetricId::kCost, entities[static_cast<std::size_t>(i)].id,
                    costs[i]);
    driver.SetValue(MetricId::kSelectivity,
                    entities[static_cast<std::size_t>(i)].id, 1.0);
  }

  MetricProvider provider;
  provider.Register(MetricId::kHighestRate);
  provider.Update({&driver}, Seconds(1));
  const double cheap =
      provider.Value(driver, MetricId::kHighestRate, entities[1].id);
  const double expensive =
      provider.Value(driver, MetricId::kHighestRate, entities[2].id);
  EXPECT_GT(cheap, expensive);
  // src's best path goes through the cheap branch.
  const double src =
      provider.Value(driver, MetricId::kHighestRate, entities[0].id);
  EXPECT_GT(src, expensive);
}

TEST(MetricProviderTest, FusedEntityTakesBestLogicalRate) {
  LogicalTopology topo;
  topo.names = {"a", "b", "sink"};
  topo.base_costs = {1000, 1000, 1000};
  topo.edges = {{0, 1}, {1, 2}};

  FakeDriver driver;
  driver.SetTopology(QueryId(0), topo);
  // One fused physical operator implementing logical 0 and 1, plus a sink.
  const EntityInfo fused = driver.AddEntity(QueryId(0), {0, 1});
  const EntityInfo sink = driver.AddEntity(QueryId(0), {2});
  driver.Provide(MetricId::kCost);
  driver.Provide(MetricId::kSelectivity);
  driver.SetValue(MetricId::kCost, fused.id, 2000);
  driver.SetValue(MetricId::kSelectivity, fused.id, 1.0);
  driver.SetValue(MetricId::kCost, sink.id, 500);
  driver.SetValue(MetricId::kSelectivity, sink.id, 1.0);

  MetricProvider provider;
  provider.Register(MetricId::kHighestRate);
  provider.Update({&driver}, Seconds(1));
  // The fused entity's HR equals the max over logical 0 and 1; logical 1's
  // remaining path (b -> sink) is shorter/cheaper, so it dominates.
  const double value =
      provider.Value(driver, MetricId::kHighestRate, fused.id);
  EXPECT_GT(value, 0);
}

TEST(MetricProviderTest, UserInstalledDerivedMetricOverridesBuiltin) {
  class ConstantCost final : public DerivedMetric {
   public:
    [[nodiscard]] MetricId id() const override { return MetricId::kCost; }
    [[nodiscard]] std::vector<MetricId> deps() const override { return {}; }
    double Compute(MetricResolver&, const EntityInfo&) override { return 5.0; }
  };
  FakeDriver driver;
  const EntityInfo e = driver.AddEntity(QueryId(0), {0});
  MetricProvider provider;
  provider.InstallDerived(std::make_unique<ConstantCost>());
  provider.Register(MetricId::kCost);
  provider.Update({&driver}, Seconds(1));
  EXPECT_DOUBLE_EQ(provider.Value(driver, MetricId::kCost, e.id), 5.0);
}

TEST(MetricProviderTest, DerivedMetricMayResolveACopyOfItsEntity) {
  // A user metric that resolves its dependency through a copy of the
  // entity (not the snapshot's own object) is looked up by id; an entity
  // the driver does not deploy is a configuration error.
  class ViaCopy final : public DerivedMetric {
   public:
    explicit ViaCopy(bool foreign) : foreign_(foreign) {}
    [[nodiscard]] MetricId id() const override { return MetricId::kCost; }
    [[nodiscard]] std::vector<MetricId> deps() const override {
      return {MetricId::kQueueSize};
    }
    double Compute(MetricResolver& r, const EntityInfo& e) override {
      EntityInfo copy = e;
      if (foreign_) copy.id = OperatorId(999);
      return 2 * r.Get(MetricId::kQueueSize, copy);
    }

   private:
    bool foreign_;
  };
  FakeDriver driver;
  const EntityInfo a = driver.AddEntity(QueryId(0), {0});
  const EntityInfo b = driver.AddEntity(QueryId(0), {1});
  driver.Provide(MetricId::kQueueSize);
  driver.SetValue(MetricId::kQueueSize, a.id, 3);
  driver.SetValue(MetricId::kQueueSize, b.id, 4);

  MetricProvider provider;
  provider.InstallDerived(std::make_unique<ViaCopy>(false));
  provider.Register(MetricId::kCost);
  provider.Update({&driver}, Seconds(1));
  EXPECT_DOUBLE_EQ(provider.Value(driver, MetricId::kCost, a.id), 6);
  EXPECT_DOUBLE_EQ(provider.Value(driver, MetricId::kCost, b.id), 8);
  EXPECT_DOUBLE_EQ(provider.Column(driver, MetricId::kQueueSize)[1], 4);

  provider.InstallDerived(std::make_unique<ViaCopy>(true));
  EXPECT_THROW(provider.Update({&driver}, Seconds(1)), ConfigurationError);
}

// --- differential test: dense provider vs. naive recursive reference ------

// A driver whose entity list the test rewrites between periods (entities
// added, removed, reordered) and which counts fetches per (metric, id).
class ScriptedDriver final : public SpeDriver {
 public:
  [[nodiscard]] const std::string& name() const override { return name_; }
  std::vector<EntityInfo> Entities() override { return entities; }
  const LogicalTopology& Topology(QueryId query) override {
    return topologies.at(query);
  }
  [[nodiscard]] bool Provides(MetricId metric) const override {
    return provided.count(metric) > 0;
  }
  double Fetch(MetricId metric, const EntityInfo& entity) override {
    ++fetches[{metric, entity.id}];
    return values.at({metric, entity.id});
  }

  std::vector<EntityInfo> entities;
  std::map<QueryId, LogicalTopology> topologies;
  std::set<MetricId> provided;
  std::map<std::pair<MetricId, OperatorId>, double> values;
  std::map<std::pair<MetricId, OperatorId>, int> fetches;

 private:
  std::string name_ = "scripted";
};

constexpr MetricId kLeaves[] = {MetricId::kTuplesInDelta,
                                MetricId::kTuplesOutDelta,
                                MetricId::kBusyDeltaNs, MetricId::kBufferUsage,
                                MetricId::kBufferCapacity};
constexpr MetricId kDerivable[] = {MetricId::kQueueSize, MetricId::kCost,
                                   MetricId::kSelectivity,
                                   MetricId::kInputRate};
constexpr MetricId kRegistrable[] = {MetricId::kQueueSize, MetricId::kCost,
                                     MetricId::kSelectivity,
                                     MetricId::kInputRate,
                                     MetricId::kHighestRate};

// Algorithm 3 without a cache: every value recomputed from the driver's
// canned values, walking the entity list in snapshot order.
class NaiveReference {
 public:
  NaiveReference(const ScriptedDriver& driver, SimDuration window)
      : d_(driver), window_s_(ToSeconds(window)) {}

  double Get(MetricId metric, const EntityInfo& e) const {
    if (d_.provided.count(metric)) return d_.values.at({metric, e.id});
    switch (metric) {
      case MetricId::kQueueSize:
        return Get(MetricId::kBufferUsage, e) *
               Get(MetricId::kBufferCapacity, e);
      case MetricId::kCost: {
        const double in = Get(MetricId::kTuplesInDelta, e);
        return in <= 0 ? 0.0 : Get(MetricId::kBusyDeltaNs, e) / in;
      }
      case MetricId::kSelectivity: {
        const double in = Get(MetricId::kTuplesInDelta, e);
        return in <= 0 ? 0.0 : Get(MetricId::kTuplesOutDelta, e) / in;
      }
      case MetricId::kInputRate:
        return window_s_ <= 0 ? 0.0
                              : Get(MetricId::kTuplesInDelta, e) / window_s_;
      case MetricId::kHighestRate:
        return HighestRate(e);
      default:
        ADD_FAILURE() << "reference cannot resolve " << MetricName(metric);
        return 0;
    }
  }

 private:
  double HighestRate(const EntityInfo& e) const {
    const LogicalTopology& topo = d_.topologies.at(e.query);
    const auto n = static_cast<std::size_t>(topo.size());
    std::vector<double> cost(n, 0.0), sel(n, 0.0);
    std::vector<int> replicas(n, 0);
    for (const EntityInfo& other : d_.entities) {
      if (other.query != e.query) continue;
      const double c = Get(MetricId::kCost, other);
      const double s = Get(MetricId::kSelectivity, other);
      for (const int l : other.logical_indices) {
        cost[static_cast<std::size_t>(l)] += c;
        sel[static_cast<std::size_t>(l)] += s;
        ++replicas[static_cast<std::size_t>(l)];
      }
    }
    for (std::size_t l = 0; l < n; ++l) {
      if (replicas[l] > 0) {
        cost[l] /= replicas[l];
        sel[l] /= replicas[l];
      }
      if (cost[l] <= 0) {
        cost[l] = topo.base_costs[l] > 0 ? topo.base_costs[l] : 1000.0;
      }
      if (sel[l] <= 0) sel[l] = 1.0;
    }
    double best = 0.0;
    for (const int l : e.logical_indices) {
      const auto i = static_cast<std::size_t>(l);
      best = std::max(best, BestPath(topo, cost, sel, l, sel[i], cost[i]));
    }
    return best;
  }

  // Recursive path enumeration, accumulating in path order.
  static double BestPath(const LogicalTopology& topo,
                         const std::vector<double>& cost,
                         const std::vector<double>& sel, int op,
                         double sel_product, double cost_sum) {
    const std::vector<int> down = topo.Downstream(op);
    if (down.empty()) return cost_sum > 0 ? sel_product / cost_sum : 0.0;
    double best = 0.0;
    for (const int d : down) {
      const auto i = static_cast<std::size_t>(d);
      best = std::max(best, BestPath(topo, cost, sel, d, sel_product * sel[i],
                                     cost_sum + cost[i]));
    }
    return best;
  }

  const ScriptedDriver& d_;
  double window_s_;
};

// Random query DAGs, entities with replicas and fused logical operators,
// random exposure and values.
class ScriptedWorld {
 public:
  explicit ScriptedWorld(std::uint64_t seed) : rng_(seed) {
    for (const MetricId m : kLeaves) driver.provided.insert(m);
    for (const MetricId m : kDerivable) {
      if (rng_.Chance(0.4)) driver.provided.insert(m);
    }
    const int queries = static_cast<int>(rng_.UniformInt(1, 4));
    for (int q = 0; q < queries; ++q) AddQuery();
  }

  // Removes ~20% of the entities, adds a few, shuffles, redraws values.
  void Churn() {
    std::vector<EntityInfo> kept;
    for (EntityInfo& e : driver.entities) {
      if (!rng_.Chance(0.2)) kept.push_back(std::move(e));
    }
    driver.entities = std::move(kept);
    const auto added = rng_.UniformInt(0, 5);
    for (std::int64_t i = 0; i < added; ++i) {
      const QueryId query(rng_.NextBounded(driver.topologies.size()));
      const int logicals = driver.topologies.at(query).size();
      AddEntity(query, {static_cast<int>(rng_.NextBounded(
                           static_cast<std::uint64_t>(logicals)))});
    }
    if (rng_.Chance(0.3)) AddQuery();
    for (std::size_t i = driver.entities.size(); i > 1; --i) {
      std::swap(driver.entities[i - 1], driver.entities[rng_.NextBounded(i)]);
    }
    DrawValues();
  }

  std::set<MetricId> DrawRegistration() {
    std::set<MetricId> registered;
    while (registered.empty()) {
      for (const MetricId m : kRegistrable) {
        if (rng_.Chance(0.5)) registered.insert(m);
      }
    }
    return registered;
  }

  ScriptedDriver driver;

 private:
  void AddQuery() {
    const QueryId query(driver.topologies.size());
    LogicalTopology topo;
    const int n = static_cast<int>(rng_.UniformInt(1, 5));
    for (int l = 0; l < n; ++l) {
      topo.names.push_back("l" + std::to_string(l));
      topo.base_costs.push_back(rng_.Chance(0.3) ? 0.0
                                                 : rng_.Uniform(100, 5000));
      if (l > 0) {
        topo.edges.emplace_back(static_cast<int>(rng_.NextBounded(
                                    static_cast<std::uint64_t>(l))),
                                l);
      }
      if (l > 1 && rng_.Chance(0.3)) topo.edges.emplace_back(l - 2, l);
    }
    driver.topologies[query] = topo;
    for (int l = 0; l < n; ++l) {
      if (l + 1 < n && rng_.Chance(0.25)) {  // fused pair
        AddEntity(query, {l, l + 1});
        ++l;
        continue;
      }
      const auto replicas = rng_.UniformInt(0, 2);  // 0: unmeasured op
      for (std::int64_t r = 0; r < replicas; ++r) AddEntity(query, {l});
    }
    DrawValues();
  }

  void AddEntity(QueryId query, std::vector<int> logicals) {
    EntityInfo e;
    e.id = OperatorId(next_id_ += 1 + rng_.NextBounded(1000));
    e.path = "scripted.op" + std::to_string(e.id.value());
    e.query = query;
    e.query_name = "q" + std::to_string(query.value());
    e.logical_indices = std::move(logicals);
    driver.entities.push_back(std::move(e));
  }

  void DrawValues() {
    driver.values.clear();
    for (const EntityInfo& e : driver.entities) {
      for (const MetricId m : driver.provided) {
        double v = rng_.Uniform(0, 1000);
        if (m == MetricId::kBufferUsage) v = rng_.NextDouble();
        if (m == MetricId::kTuplesInDelta || m == MetricId::kCost) {
          if (rng_.Chance(0.2)) v = 0;  // exercises the <= 0 guards
        }
        driver.values[{m, e.id}] = v;
      }
    }
  }

  Rng rng_;
  std::uint64_t next_id_ = 0;
};

// Checks every registered metric of every entity, by id and by column,
// against the reference, and that each provided leaf was fetched at most
// once per entity this period.
void ExpectMatchesReference(const MetricProvider& provider,
                            const ScriptedDriver& driver,
                            const std::set<MetricId>& registered,
                            SimDuration window, const std::string& where) {
  const std::vector<EntityInfo>& snapshot = provider.EntitiesOf(driver);
  ASSERT_EQ(snapshot.size(), driver.entities.size()) << where;
  const NaiveReference reference(driver, window);
  for (const MetricId m : registered) {
    const std::span<const double> column = provider.Column(driver, m);
    ASSERT_EQ(column.size(), snapshot.size()) << where;
    for (std::size_t slot = 0; slot < snapshot.size(); ++slot) {
      const EntityInfo& e = driver.entities[slot];
      ASSERT_EQ(snapshot[slot].id, e.id) << where << " slot " << slot;
      // Exact: the reference does the same arithmetic in the same order
      // (snapshot order within a query), so any difference is a bug.
      const double expected = reference.Get(m, e);
      EXPECT_EQ(provider.Value(driver, m, e.id), expected)
          << where << " " << MetricName(m) << " of " << e.path;
      EXPECT_EQ(column[slot], expected)
          << where << " " << MetricName(m) << " column slot " << slot;
    }
  }
  for (const auto& [key, count] : driver.fetches) {
    EXPECT_EQ(count, 1) << where << " " << MetricName(key.first)
                        << " fetched " << count << "x for op "
                        << key.second.value();
  }
}

TEST(MetricProviderDifferentialTest, DenseColumnsMatchNaiveReference) {
  const SimDuration window = Millis(500);
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    ScriptedWorld world(seed);
    MetricProvider provider;
    std::set<MetricId> registered = world.DrawRegistration();
    for (const MetricId m : registered) provider.Register(m);
    for (int period = 0; period < 5; ++period) {
      const std::string where =
          "seed " + std::to_string(seed) + " period " + std::to_string(period);
      world.driver.fetches.clear();
      provider.Update({&world.driver}, window);
      ExpectMatchesReference(provider, world.driver, registered, window,
                             where);
      if (::testing::Test::HasFailure()) return;
      // Next period: new snapshot (slots remap), sometimes a new
      // registration set.
      world.Churn();
      if (period % 2 == 1) {
        for (const MetricId m : registered) provider.Unregister(m);
        registered = world.DrawRegistration();
        for (const MetricId m : registered) provider.Register(m);
      }
    }
  }
}

TEST(MetricProviderDifferentialTest, CycleThrowsAndTheNextPeriodRecovers) {
  // kQueueSize <-> kInputRate through user-installed derivations.
  class Via final : public DerivedMetric {
   public:
    Via(MetricId id, MetricId dep) : id_(id), dep_(dep) {}
    [[nodiscard]] MetricId id() const override { return id_; }
    [[nodiscard]] std::vector<MetricId> deps() const override {
      return {dep_};
    }
    double Compute(MetricResolver& r, const EntityInfo& e) override {
      return r.Get(dep_, e);
    }

   private:
    MetricId id_;
    MetricId dep_;
  };
  ScriptedWorld world(99);
  world.driver.provided.erase(MetricId::kQueueSize);
  world.driver.provided.erase(MetricId::kInputRate);
  MetricProvider provider;
  provider.Register(MetricId::kCost);
  provider.Update({&world.driver}, Seconds(1));

  provider.InstallDerived(
      std::make_unique<Via>(MetricId::kQueueSize, MetricId::kInputRate));
  provider.InstallDerived(
      std::make_unique<Via>(MetricId::kInputRate, MetricId::kQueueSize));
  provider.Register(MetricId::kQueueSize);
  world.Churn();
  if (world.driver.entities.empty()) world.Churn();
  ASSERT_FALSE(world.driver.entities.empty());
  EXPECT_THROW(provider.Update({&world.driver}, Seconds(1)),
               ConfigurationError);

  // The aborted period's in-flight cells must not leak into the next one.
  provider.Unregister(MetricId::kQueueSize);
  world.Churn();
  world.driver.fetches.clear();
  provider.Update({&world.driver}, Seconds(1));
  ExpectMatchesReference(provider, world.driver, {MetricId::kCost},
                         Seconds(1), "after the cycle");
}

}  // namespace
}  // namespace lachesis::core
