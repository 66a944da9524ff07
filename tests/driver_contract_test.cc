// Provides <=> Fetch contract of every SpeDriver that reads a metric store.
//
// For every MetricId, a driver Provides() the metric exactly when Fetch()
// returns the stored raw value after the raw -> Lachesis table's conversion
// (latest sample or counter delta, times the row's scale). The expectation
// is computed from the samples the scrape actually wrote, read back from
// the store by series name -- independently of the driver's fetch plan.
// The same contract runs over the simulated flavors, a latency-only engine
// (the exposure where a cost read once skipped its µs -> ns conversion),
// the in-process native runtime and the graphite-file driver.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unistd.h>

#include "core/sim_driver.h"
#include "core/store_driver.h"
#include "osctl/native_driver.h"
#include "osctl/native_runtime_driver.h"
#include "sim/simulator.h"
#include "spe/native_runtime.h"
#include "spe/source.h"
#include "tsdb/scraper.h"

namespace lachesis::core {
namespace {

constexpr SimDuration kWindow = Seconds(1);

// Expected Fetch per the table for an engine exposing `exposed`, from the
// raw series the scrape wrote; nullopt when no exposed raw metric serves it.
std::optional<double> ExpectedFromRaw(const std::set<spe::RawMetric>& exposed,
                                      const tsdb::TimeSeriesStore& store,
                                      MetricId metric,
                                      const EntityInfo& entity) {
  for (const RawMetricRow& row : RawMetricTable()) {
    if (row.metric != metric || exposed.count(row.raw) == 0) continue;
    const tsdb::SeriesId id =
        store.Find(entity.path + "." + spe::RawMetricName(row.raw));
    if (row.read == StoreRead::kLatest) {
      const auto sample = store.Latest(id);
      return sample ? sample->value * row.scale : 0.0;
    }
    const auto delta = store.Delta(id, kWindow);
    return delta ? std::max(*delta, 0.0) * row.scale : 0.0;
  }
  return std::nullopt;
}

class Rig {
 public:
  virtual ~Rig() = default;
  virtual SpeDriver& driver() = 0;
  virtual std::optional<double> Expected(MetricId metric,
                                         const EntityInfo& entity) = 0;
  // Sim drivers read PSI-style pressure from the (simulated) kernel.
  [[nodiscard]] virtual bool os_pressure() const { return false; }
};

spe::LogicalQuery TinyQuery() {
  spe::LogicalQuery q;
  q.name = "tiny";
  const int in = q.Add(spe::MakeIngress("in", Micros(10)));
  const int t = q.Add(spe::MakeTransform("t", Micros(100), [] {
    return std::make_unique<spe::IdentityLogic>();
  }));
  const int out = q.Add(spe::MakeEgress("out", Micros(10)));
  q.Connect(in, t);
  q.Connect(t, out);
  return q;
}

class SimRig final : public Rig {
 public:
  explicit SimRig(spe::SpeFlavor flavor)
      : instance_(std::move(flavor), {&machine_}, "spe") {
    instance_.Deploy(TinyQuery(), {});
    scraper_.AddInstance(instance_);
    source_ = std::make_unique<spe::ExternalSource>(
        sim_, instance_.queries()[0]->source_channels(),
        [](Rng&, std::uint64_t) { return spe::Tuple{}; }, 3);
    source_->Start(2000, Seconds(3));
    scraper_.Start(Seconds(3));
    sim_.RunUntil(Seconds(3));
  }
  SpeDriver& driver() override { return driver_; }
  std::optional<double> Expected(MetricId metric,
                                 const EntityInfo& entity) override {
    return ExpectedFromRaw(instance_.flavor().exposed_metrics, store_, metric,
                           entity);
  }
  [[nodiscard]] bool os_pressure() const override { return true; }

 private:
  sim::Simulator sim_;
  sim::Machine machine_{sim_, 2};
  spe::SpeInstance instance_;
  tsdb::TimeSeriesStore store_;
  tsdb::Scraper scraper_{sim_, store_, Seconds(1)};
  std::unique_ptr<spe::ExternalSource> source_;
  SimSpeDriver driver_{instance_, store_, kWindow};
};

spe::SpeFlavor LatencyOnlyFlavor() {
  spe::SpeFlavor flavor = spe::StormFlavor();
  flavor.name = "latency-only";
  flavor.exposed_metrics = {spe::RawMetric::kTuplesIn,
                            spe::RawMetric::kAvgExecLatencyUs};
  return flavor;
}

class NativeRuntimeRig final : public Rig {
 public:
  NativeRuntimeRig() {
    spe::LogicalQuery query;
    query.name = "q";
    for (int i = 0; i < 3; ++i) {
      spe::LogicalOperator op;
      op.name = "op" + std::to_string(i);
      op.role = i == 0   ? spe::OperatorRole::kIngress
                : i == 2 ? spe::OperatorRole::kEgress
                         : spe::OperatorRole::kTransform;
      op.cost = Micros(i == 1 ? 1 : 0);
      op.cost_jitter = 0;
      const int index = query.Add(std::move(op));
      if (i > 0) query.Connect(index - 1, index);
    }
    spe::NativeDeployOptions deploy;
    deploy.source_rate_tps = 1e9;
    deploy.max_tuples = 2000;
    runtime_.AddQuery(query, deploy);
    runtime_.Start();
    // Two polls with traffic in between, so counter deltas are non-zero.
    WaitUntil([&] { return runtime_.TotalEmitted(0) >= 200; });
    driver_.Poll(Seconds(1));
    WaitUntil([&] { return runtime_.TotalEmitted(0) >= 2000; });
    driver_.Poll(Seconds(2));
    runtime_.Stop(/*drain=*/true);
  }
  SpeDriver& driver() override { return driver_; }
  std::optional<double> Expected(MetricId metric,
                                 const EntityInfo& entity) override {
    return ExpectedFromRaw(spe::NativeRuntime::ExposedMetrics(),
                           driver_.store(), metric, entity);
  }

 private:
  template <typename Pred>
  static void WaitUntil(Pred done) {
    while (!done()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  spe::NativeRuntime runtime_;
  osctl::NativeRuntimeDriver driver_{runtime_, kWindow};
};

// The graphite-file driver publishes Lachesis metrics under MetricName
// suffixes; windowed ones are differenced from cumulative counters.
class NativeFileRig final : public Rig {
 public:
  NativeFileRig() {
    dir_ = std::filesystem::temp_directory_path() /
           ("lachesis_contract_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    osctl::NativeSpeConfig config;
    config.metrics_file = (dir_ / "metrics.txt").string();
    osctl::NativeQueryConfig query;
    query.name = "q";
    query.operators = {{"a", "exec-a", "eng.a", true, false},
                       {"b", "exec-b", "eng.b", false, true}};
    query.edges = {{0, 1}};
    config.queries.push_back(query);
    for (const RawMetricRow& row : RawMetricTable()) {
      config.provided.insert(row.metric);  // every metric a store can carry
    }
    // Two samples per published series, one second apart, distinct per
    // series and operator.
    std::ofstream out(config.metrics_file);
    double seed = 1;
    for (const char* prefix : {"eng.a", "eng.b"}) {
      for (const MetricId metric : config.provided) {
        if (metric == MetricId::kTuplesInDelta ||
            metric == MetricId::kTuplesOutDelta) {
          continue;  // differenced from the *_total counters below
        }
        out << prefix << "." << MetricName(metric) << " " << 10 * seed << " 1\n"
            << prefix << "." << MetricName(metric) << " " << 17 * seed
            << " 2\n";
        seed += 1;
      }
    }
    out.close();
    published_ = config.provided;
    driver_ = std::make_unique<osctl::NativeSpeDriver>(config, kWindow);
    driver_->Poll(Seconds(2));
  }
  ~NativeFileRig() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  SpeDriver& driver() override { return *driver_; }
  std::optional<double> Expected(MetricId metric,
                                 const EntityInfo& entity) override {
    if (published_.count(metric) == 0) return std::nullopt;
    const tsdb::TimeSeriesStore& store = driver_->store();
    const auto series = [&](MetricId m) {
      return store.Find(entity.path + "." + MetricName(m));
    };
    switch (metric) {
      case MetricId::kTuplesInDelta:
        return *store.Delta(series(MetricId::kTuplesInTotal), kWindow);
      case MetricId::kTuplesOutDelta:
        return *store.Delta(series(MetricId::kTuplesOutTotal), kWindow);
      case MetricId::kBusyDeltaNs:
        return *store.Delta(series(MetricId::kBusyDeltaNs), kWindow);
      default:
        return store.Latest(series(metric))->value;
    }
  }

 private:
  std::filesystem::path dir_;
  std::set<MetricId> published_;
  std::unique_ptr<osctl::NativeSpeDriver> driver_;
};

struct RigCase {
  const char* name;
  std::function<std::unique_ptr<Rig>()> make;
};

class DriverContractTest : public ::testing::TestWithParam<RigCase> {};

TEST_P(DriverContractTest, ProvidesExactlyWhatFetchServesFromTheStore) {
  const std::unique_ptr<Rig> rig = GetParam().make();
  SpeDriver& driver = rig->driver();
  const std::vector<EntityInfo> entities = driver.Entities();
  ASSERT_FALSE(entities.empty());
  int checked_nonzero = 0;
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    const auto metric = static_cast<MetricId>(i);
    SCOPED_TRACE(MetricName(metric));
    if (metric == MetricId::kCpuPressure && rig->os_pressure()) {
      EXPECT_TRUE(driver.Provides(metric));  // read from the OS, not a store
      continue;
    }
    const bool provided = driver.Provides(metric);
    for (const EntityInfo& entity : entities) {
      const std::optional<double> expected = rig->Expected(metric, entity);
      ASSERT_EQ(provided, expected.has_value()) << entity.path;
      const double fetched = driver.Fetch(metric, entity);
      if (!expected) {
        EXPECT_DOUBLE_EQ(fetched, 0.0) << entity.path;
        continue;
      }
      EXPECT_DOUBLE_EQ(fetched, *expected) << entity.path;
      checked_nonzero += *expected != 0.0;
    }
  }
  // Guard against a vacuous pass over an empty store.
  EXPECT_GT(checked_nonzero, 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllDrivers, DriverContractTest,
    ::testing::Values(
        RigCase{"storm",
                [] { return std::make_unique<SimRig>(spe::StormFlavor()); }},
        RigCase{"flink",
                [] { return std::make_unique<SimRig>(spe::FlinkFlavor()); }},
        RigCase{"liebre",
                [] { return std::make_unique<SimRig>(spe::LiebreFlavor()); }},
        RigCase{"latency_only",
                [] { return std::make_unique<SimRig>(LatencyOnlyFlavor()); }},
        RigCase{"native_runtime",
                [] { return std::make_unique<NativeRuntimeRig>(); }},
        RigCase{"native_file",
                [] { return std::make_unique<NativeFileRig>(); }}),
    [](const ::testing::TestParamInfo<RigCase>& info) {
      return std::string(info.param.name);
    });

// The exposure that once drifted: a rolling execute latency in µs and no
// direct cost. Cost must be planned, read from the latency series and
// converted to ns.
TEST(DriverContractPlanTest, LatencyOnlyExposurePlansConvertedCost) {
  const FetchPlan plan = PlanForRawMetrics({spe::RawMetric::kAvgExecLatencyUs});
  const PlannedRead& cost = plan[static_cast<std::size_t>(MetricId::kCost)];
  EXPECT_EQ(cost.suffix, "avg_exec_latency_us");
  EXPECT_EQ(cost.read, StoreRead::kLatest);
  EXPECT_DOUBLE_EQ(cost.scale, 1000.0);
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    if (i == static_cast<std::size_t>(MetricId::kCost)) continue;
    EXPECT_TRUE(plan[i].suffix.empty()) << MetricName(static_cast<MetricId>(i));
  }
  // A direct cost wins over the latency when both are exposed.
  const FetchPlan both = PlanForRawMetrics(
      {spe::RawMetric::kAvgExecLatencyUs, spe::RawMetric::kCost});
  EXPECT_EQ(both[static_cast<std::size_t>(MetricId::kCost)].suffix, "cost_ns");
}

// The native runtime stopped exposing its execute latency: the kCost row
// already served cost from the measured series, so the latency series was
// stored every Poll and never read. Dropping it changes no planned read.
TEST(DriverContractPlanTest, NativePlanIsUnchangedWithoutTheLatencySeries) {
  std::set<spe::RawMetric> exposed = spe::NativeRuntime::ExposedMetrics();
  EXPECT_FALSE(exposed.count(spe::RawMetric::kAvgExecLatencyUs));
  const FetchPlan plan = PlanForRawMetrics(exposed);
  exposed.insert(spe::RawMetric::kAvgExecLatencyUs);
  const FetchPlan with_latency = PlanForRawMetrics(exposed);
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    const char* name = MetricName(static_cast<MetricId>(i));
    EXPECT_EQ(plan[i].suffix, with_latency[i].suffix) << name;
    EXPECT_EQ(plan[i].read, with_latency[i].read) << name;
    EXPECT_DOUBLE_EQ(plan[i].scale, with_latency[i].scale) << name;
  }
  EXPECT_EQ(plan[static_cast<std::size_t>(MetricId::kCost)].suffix, "cost_ns");
}

}  // namespace
}  // namespace lachesis::core
