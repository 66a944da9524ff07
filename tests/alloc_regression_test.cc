// Allocation-regression pin for the control plane's steady state.
//
// The storage-layer refactor (common/stable_pool.h, common/hash_index.h,
// common/arena.h) exists to make the per-tick control loop allocation-free
// once warm: the delta cache's skip-or-forward probe, the health tracker's
// allow/record cycle, and recorder interning must not touch the heap in
// steady state, or a million-target deployment spends its ticks inside the
// allocator. This binary overrides global operator new to count every heap
// allocation and asserts the count stays at ZERO across steady-state ticks
// after warmup. If a future change sneaks a std::map, a std::string build,
// or a rehash into the hot path, this test fails with the allocation count.
//
// Only this binary installs the counting hooks (they are file-local to the
// test executable), so the rest of the suite is unaffected.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "core/op_health.h"
#include "core/policies.h"
#include "core/runner.h"
#include "core/schedule_delta.h"
#include "core/sim_driver.h"
#include "core/sim_executor.h"
#include "core/translators.h"
#include "obs/recorder.h"
#include "osctl/native_runtime_driver.h"
#include "sim/simulator.h"
#include "spe/native_runtime.h"
#include "spe/source.h"
#include "tsdb/scraper.h"

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};

// Every unaligned new mallocs here directly, so a caller that inlines new[]
// and the free()-backed delete[] sees a matched malloc/free pair.
void* CountedMalloc(std::size_t size) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* CountedMallocOrThrow(std::size_t size) {
  if (void* p = CountedMalloc(size)) return p;
  throw std::bad_alloc();
}
}  // namespace

// Global replacements: every heap allocation in the process bumps the
// counter. Deletes are deliberately uncounted -- the contract under test is
// "no allocations", not "balanced allocations". The nothrow forms are
// replaced too (std::stable_sort's scratch buffer uses them), so every new
// pairs with the free()-backed deletes below.
void* operator new(std::size_t size) { return CountedMallocOrThrow(size); }
void* operator new[](std::size_t size) { return CountedMallocOrThrow(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size ? size : 1)) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace lachesis::core {
namespace {

std::uint64_t AllocCount() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

// Backend that accepts everything and allocates nothing.
class NullAdapter final : public OsAdapter {
 public:
  void SetNice(const ThreadHandle&, int) override {}
  void SetGroupShares(const std::string&, std::uint64_t) override {}
  void MoveToGroup(const ThreadHandle&, const std::string&) override {}
  void SetRtPriority(const ThreadHandle&, int) override {}
  void SetGroupQuota(const std::string&, SimDuration, SimDuration) override {}
};

ThreadHandle HandleFor(long tid) {
  ThreadHandle h;
  h.sim_tid = ThreadId(static_cast<std::uint64_t>(tid));
  h.os_tid = tid;
  return h;
}

TEST(AllocRegressionTest, DeltaSkipPathAllocatesNothing) {
  constexpr int kThreads = 500;
  constexpr int kGroups = 32;
  NullAdapter backend;
  ScheduleDeltaAdapter delta(backend);

  std::vector<std::string> groups;
  for (int g = 0; g < kGroups; ++g) {
    groups.push_back("spe.q" + std::to_string(g));
  }
  const auto apply_schedule = [&](SimTime now) {
    delta.BeginTick(now);
    for (int g = 0; g < kGroups; ++g) {
      delta.SetGroupShares(groups[static_cast<std::size_t>(g)],
                           1024 + static_cast<std::uint64_t>(g));
      delta.SetGroupQuota(groups[static_cast<std::size_t>(g)], Millis(50),
                          Millis(100));
    }
    for (int t = 0; t < kThreads; ++t) {
      const ThreadHandle h = HandleFor(t);
      delta.SetNice(h, t % 40 - 20);
      delta.MoveToGroup(h, groups[static_cast<std::size_t>(t % kGroups)]);
      delta.SetRtPriority(h, 0);
    }
  };

  // Warmup: tables grow, group names intern, caches fill.
  apply_schedule(Millis(1));
  apply_schedule(Millis(2));

  const std::uint64_t skipped_before = delta.totals().skipped;
  const std::uint64_t before = AllocCount();
  for (int tick = 0; tick < 50; ++tick) {
    apply_schedule(Millis(10 + tick));
  }
  const std::uint64_t after = AllocCount();
  EXPECT_EQ(after - before, 0u)
      << "steady-state delta ticks must not touch the heap";
  // Every measured op was a cache hit: nothing reached the backend.
  EXPECT_EQ(delta.totals().skipped - skipped_before,
            static_cast<std::uint64_t>(50) * (kThreads * 3 + kGroups * 2));
}

TEST(AllocRegressionTest, HealthChurnAllocatesNothingAfterWarmup) {
  constexpr int kTargets = 200;
  HealthConfig config;
  config.enabled = true;
  config.backoff_base = Millis(1);
  OpHealthTracker health(config);
  obs::Recorder recorder(4096);
  health.SetRecorder(&recorder);

  std::vector<std::string> targets;
  for (int t = 0; t < kTargets; ++t) {
    targets.push_back("t:" + std::to_string(t) + "/" + std::to_string(t));
  }
  // One full fail -> succeed cycle per target warms the interner, the
  // per-class tables, and the recorder's intern table.
  const auto churn = [&](SimTime now) {
    for (const std::string& target : targets) {
      if (health.AllowAttempt(OpClass::kSetNice, target, now)) {
        health.RecordFailure(OpClass::kSetNice, target, now,
                             ErrorSeverity::kVanished);
      }
      health.RecordSuccess(OpClass::kSetNice, target, now + Millis(5));
    }
  };
  churn(Millis(1));
  churn(Seconds(1));

  const std::uint64_t before = AllocCount();
  for (int round = 0; round < 50; ++round) {
    // Failure re-arms backoff (FlatMap reinsert into warmed table), success
    // erases it (backward-shift, no tombstone growth): the exact churn a
    // flapping backend produces every tick.
    churn(Seconds(2 + round));
  }
  const std::uint64_t after = AllocCount();
  EXPECT_EQ(after - before, 0u)
      << "steady-state health churn must not touch the heap";
  EXPECT_GT(recorder.total_recorded(), 0u);
}

TEST(AllocRegressionTest, RecorderInternLookupAllocatesNothingWhenWarm) {
  obs::Recorder recorder(1024);
  std::vector<std::string> names;
  for (int i = 0; i < 300; ++i) {
    names.push_back("spe.q" + std::to_string(i % 10) + ".op" +
                    std::to_string(i));
    (void)recorder.Intern(names.back());
  }
  const std::uint64_t before = AllocCount();
  bool all_found = true;
  for (int round = 0; round < 20; ++round) {
    for (const std::string& name : names) {
      all_found &= recorder.Intern(name) != obs::kNoStr;
      all_found &= recorder.Lookup(name) != obs::kNoStr;
    }
  }
  EXPECT_EQ(AllocCount() - before, 0u)
      << "re-interning a known string must not touch the heap";
  EXPECT_TRUE(all_found);
}

// Fetches every metric the driver provides, for every entity.
double FetchAll(SpeDriver& driver, const std::vector<EntityInfo>& entities) {
  double sum = 0;
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    const auto metric = static_cast<MetricId>(i);
    if (!driver.Provides(metric)) continue;
    for (const EntityInfo& entity : entities) {
      sum += driver.Fetch(metric, entity);
    }
  }
  return sum;
}

// The scrape -> store -> fetch path of the simulated engines: once every
// series is resolved and its ring has wrapped, a scrape appends in place
// and a fetch is an id lookup plus a ring read.
TEST(AllocRegressionTest, ScrapeAndSimFetchAllocateNothingOnceRingsWrap) {
  constexpr std::size_t kRing = 16;
  for (const spe::SpeFlavor& flavor :
       {spe::StormFlavor(), spe::FlinkFlavor(), spe::LiebreFlavor()}) {
    SCOPED_TRACE(flavor.name);
    sim::Simulator sim;
    sim::Machine machine(sim, 2);
    spe::SpeInstance instance(flavor, {&machine}, "spe");
    spe::LogicalQuery query;
    query.name = "q";
    const int in = query.Add(spe::MakeIngress("in", Micros(10)));
    const int t = query.Add(spe::MakeTransform("t", Micros(100), [] {
      return std::make_unique<spe::IdentityLogic>();
    }));
    const int out = query.Add(spe::MakeEgress("out", Micros(10)));
    query.Connect(in, t);
    query.Connect(t, out);
    instance.Deploy(query, {});
    spe::ExternalSource source(sim, instance.queries()[0]->source_channels(),
                               [](Rng&, std::uint64_t) { return spe::Tuple{}; },
                               3);
    source.Start(2000, Seconds(2));
    tsdb::TimeSeriesStore store(kRing);
    tsdb::Scraper scraper(sim, store, Seconds(1));
    scraper.AddInstance(instance);
    SimSpeDriver driver(instance, store, Seconds(1));
    const std::vector<EntityInfo> entities = driver.Entities();

    // Warmup: traffic flows, then every ring fills past capacity.
    for (int s = 1; s <= static_cast<int>(kRing) + 4; ++s) {
      sim.RunUntil(Millis(100) * s);
      scraper.ScrapeOnce();
      (void)FetchAll(driver, entities);
    }
    const std::uint64_t before = AllocCount();
    double sum = 0;
    for (int round = 0; round < 3 * static_cast<int>(kRing); ++round) {
      scraper.ScrapeOnce();
      sum += FetchAll(driver, entities);
    }
    EXPECT_EQ(AllocCount() - before, 0u)
        << "steady-state scrapes and fetches must not touch the heap";
    EXPECT_GT(sum, 0.0);
  }
}

// The live-executor driver: Poll scrapes the runtime's registry into the
// driver's own store, Fetch reads it back. Both allocation-free once warm,
// including after the default-sized rings wrap.
TEST(AllocRegressionTest, NativePollAndFetchAllocateNothingOnceRingsWrap) {
  spe::NativeRuntime runtime;
  spe::LogicalQuery query;
  query.name = "q";
  for (int i = 0; i < 3; ++i) {
    spe::LogicalOperator op;
    op.name = "op" + std::to_string(i);
    op.role = i == 0   ? spe::OperatorRole::kIngress
              : i == 2 ? spe::OperatorRole::kEgress
                       : spe::OperatorRole::kTransform;
    op.cost = 0;  // no emulated spin: only the counters matter here
    op.cost_jitter = 0;
    const int index = query.Add(std::move(op));
    if (i > 0) query.Connect(index - 1, index);
  }
  spe::NativeDeployOptions deploy;
  deploy.source_rate_tps = 1e9;
  deploy.max_tuples = 500;
  runtime.AddQuery(query, deploy);
  runtime.Start();
  while (runtime.TotalEmitted(0) < 500) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Stopped: no runtime thread allocates while the hooks count.
  runtime.Stop(/*drain=*/true);

  osctl::NativeRuntimeDriver driver(runtime);
  const std::vector<EntityInfo> entities = driver.Entities();
  constexpr int kPastDefaultRing = 700;  // TimeSeriesStore keeps 600
  for (int p = 1; p <= kPastDefaultRing; ++p) {
    driver.Poll(Millis(p));
    (void)FetchAll(driver, entities);
  }
  const std::uint64_t before = AllocCount();
  double sum = 0;
  for (int p = 1; p <= kPastDefaultRing; ++p) {
    driver.Poll(Millis(kPastDefaultRing + p));
    sum += FetchAll(driver, entities);
  }
  EXPECT_EQ(AllocCount() - before, 0u)
      << "steady-state polls and fetches must not touch the heap";
  EXPECT_GT(sum, 0.0);
}

// A synthetic engine for the whole-tick pins: queue sizes fixed (steady)
// or mirrored on odd ticks (churn: every nice value changes every tick),
// and an Entities() that counts the allocations its own by-value copy
// makes, so the tests can subtract what the SpeDriver interface forces on
// the driver.
class TickDriver final : public SpeDriver {
 public:
  TickDriver(int targets, bool churn) : churn_(churn) {
    for (int i = 0; i < targets; ++i) {
      EntityInfo e;
      e.id = OperatorId(static_cast<std::uint64_t>(i));
      e.path = "spe.q" + std::to_string(i / 100) + ".op" + std::to_string(i);
      e.query = QueryId(static_cast<std::uint64_t>(i / 100));
      e.query_name = "q" + std::to_string(i / 100);
      e.logical_indices = {i % 100};
      e.thread = HandleFor(i);
      entities_.push_back(e);
    }
  }
  [[nodiscard]] const std::string& name() const override { return name_; }
  void Poll(SimTime now) override { odd_tick_ = now / Seconds(1) % 2 == 1; }
  std::vector<EntityInfo> Entities() override {
    const std::uint64_t before = AllocCount();
    std::vector<EntityInfo> copy = entities_;
    entities_allocs_ += AllocCount() - before;
    return copy;
  }
  const LogicalTopology& Topology(QueryId) override { return topology_; }
  [[nodiscard]] bool Provides(MetricId metric) const override {
    return metric == MetricId::kQueueSize;
  }
  double Fetch(MetricId, const EntityInfo& entity) override {
    const auto size = static_cast<double>(entity.id.value() * 7919 % 1000);
    return churn_ && odd_tick_ ? 999.0 - size : size;
  }
  [[nodiscard]] std::uint64_t entities_allocs() const {
    return entities_allocs_;
  }

 private:
  std::string name_ = "synthetic";
  bool churn_;
  bool odd_tick_ = false;
  std::vector<EntityInfo> entities_;
  LogicalTopology topology_;
  std::uint64_t entities_allocs_ = 0;
};

// Allocations of one LachesisRunner tick (QueueSizePolicy + NiceTranslator
// on the simulator's executor, recorder and health on as by default) that
// are not the driver's own Entities() copy.
std::uint64_t TickAllocs(int targets, bool churn) {
  sim::Simulator sim;
  SimControlExecutor executor(sim);
  NullAdapter backend;
  TickDriver driver(targets, churn);
  LachesisRunner runner(executor, backend);
  PolicyBinding binding;
  binding.policy = std::make_unique<QueueSizePolicy>();
  binding.translator = std::make_unique<NiceTranslator>();
  binding.period = Seconds(1);
  binding.drivers = {&driver};
  runner.AddQuery(std::move(binding));
  runner.Start(Seconds(100));
  // Warmup: the first tick sizes every table, the second settles them (and
  // under churn applies the other schedule once).
  sim.RunUntil(Seconds(3));
  const DeltaStats totals_before = runner.delta_totals();
  const std::uint64_t events_before = runner.recorder().total_recorded();
  const std::uint64_t driver_before = driver.entities_allocs();
  const std::uint64_t before = AllocCount();
  sim.RunUntil(Seconds(4));
  const std::uint64_t tick = AllocCount() - before;
  const std::uint64_t by_driver = driver.entities_allocs() - driver_before;
  const auto n = static_cast<std::uint64_t>(targets);
  if (churn) {
    // Every nice value changed: each was applied, with health successes
    // and one provenance event per op.
    EXPECT_EQ(runner.delta_totals().applied - totals_before.applied, n);
    EXPECT_GE(runner.recorder().total_recorded() - events_before, n);
  } else {
    // Steady: every nice write was elided.
    EXPECT_EQ(runner.delta_totals().skipped - totals_before.skipped, n);
  }
  EXPECT_GE(by_driver, n);
  return tick - by_driver;
}

// A whole steady tick -- poll, entity snapshot, metric resolution, policy,
// translate, delta, record -- makes a fixed number of allocations beyond
// the driver's Entities() copy, however many targets it schedules: one,
// the Schedule the policy returns by value. A per-entity allocation
// anywhere on the path (a map node, a copied EntityInfo, vector regrowth)
// makes the 10k count exceed the 1k one.
TEST(AllocRegressionTest, SteadyRunnerTickAllocationsDoNotGrowWithTargets) {
  const std::uint64_t small = TickAllocs(1'000, false);
  const std::uint64_t large = TickAllocs(10'000, false);
  EXPECT_EQ(small, large) << "tick allocations beyond Entities(): " << small
                          << " at 1k targets, " << large << " at 10k";
  EXPECT_LE(large, 1u);
  RecordProperty("tick_allocs_beyond_entities", static_cast<int>(large));
}

// A tick that changes every nice value allocates no more than a steady
// one: the apply path, health successes and recorder events are heap-free
// once each target has been seen.
TEST(AllocRegressionTest, ChurnRunnerTickAllocatesNoMoreThanASteadyOne) {
  for (const int targets : {1'000, 10'000}) {
    EXPECT_EQ(TickAllocs(targets, true), TickAllocs(targets, false))
        << "churn vs steady tick allocations at " << targets << " targets";
  }
}

}  // namespace
}  // namespace lachesis::core
