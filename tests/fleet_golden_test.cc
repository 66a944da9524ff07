// Golden-trace determinism for fleet mode: a full RunFleet scenario --
// per-machine SPE instances, per-shard control planes, coordinator merges,
// and (in the churn variant) cross-machine query placement -- must be
// byte-identical for every worker count. The digest hashes every CFS
// transition on every machine, so any reordering anywhere in the fleet
// flips it.
#include <algorithm>
#include <cstdlib>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/sim_time.h"
#include "exp/fleet.h"
#include "spe/flavor.h"

namespace lachesis {
namespace {

exp::FleetSpec BaseSpec() {
  exp::FleetSpec spec;
  spec.machines = 5;
  spec.cores = 2;
  spec.queries_per_machine = 3;
  spec.rate_tps = 300;
  spec.warmup = Seconds(2);
  spec.measure = Seconds(4);
  spec.seed = 7;
  spec.scheduler.kind = exp::SchedulerKind::kLachesis;
  spec.scheduler.policy = exp::PolicyKind::kQueueSize;
  spec.scheduler.translator = exp::TranslatorKind::kNice;
  return spec;
}

void ExpectIdentical(const exp::FleetResult& a, const exp::FleetResult& b) {
  EXPECT_EQ(a.trace_digest, b.trace_digest);
  // Doubles compared exactly on purpose: the parallel stepper must not
  // perturb even the last bit of any per-node metric.
  EXPECT_EQ(a.throughput_tps, b.throughput_tps);
  EXPECT_EQ(a.avg_latency_ms, b.avg_latency_ms);
  EXPECT_EQ(a.min_node_throughput_tps, b.min_node_throughput_tps);
  EXPECT_EQ(a.max_node_throughput_tps, b.max_node_throughput_tps);
  EXPECT_EQ(a.ticks_total, b.ticks_total);
  EXPECT_EQ(a.schedules_applied, b.schedules_applied);
  EXPECT_EQ(a.coordinator_merges, b.coordinator_merges);
  EXPECT_EQ(a.epochs, b.epochs);
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (std::size_t n = 0; n < a.nodes.size(); ++n) {
    EXPECT_EQ(a.nodes[n].throughput_tps, b.nodes[n].throughput_tps);
    EXPECT_EQ(a.nodes[n].avg_latency_ms, b.nodes[n].avg_latency_ms);
    EXPECT_EQ(a.nodes[n].cpu_utilization, b.nodes[n].cpu_utilization);
    EXPECT_EQ(a.nodes[n].sched_transitions, b.nodes[n].sched_transitions);
  }
}

TEST(FleetGoldenTest, LachesisFleetIsWorkerCountInvariant) {
  exp::FleetSpec spec = BaseSpec();
  std::vector<exp::FleetResult> results;
  for (const int workers : {1, 3, 4}) {
    spec.workers = workers;
    results.push_back(exp::RunFleet(spec));
    EXPECT_EQ(results.back().worker_count,
              workers > spec.machines ? spec.machines : workers);
  }
  ASSERT_NE(results.front().trace_digest, 0u);
  EXPECT_GT(results.front().throughput_tps, 0.0);
  EXPECT_GT(results.front().ticks_total, 0u);
  EXPECT_GT(results.front().schedules_applied, 0u);
  EXPECT_GT(results.front().coordinator_merges, 0u);
  for (std::size_t i = 1; i < results.size(); ++i) {
    ExpectIdentical(results.front(), results[i]);
  }
}

TEST(FleetGoldenTest, OsDefaultFleetIsWorkerCountInvariant) {
  exp::FleetSpec spec = BaseSpec();
  spec.scheduler = exp::SchedulerSpec{};  // kOsDefault
  spec.workers = 1;
  const exp::FleetResult sequential = exp::RunFleet(spec);
  spec.workers = 4;
  const exp::FleetResult parallel = exp::RunFleet(spec);
  ASSERT_NE(sequential.trace_digest, 0u);
  EXPECT_EQ(sequential.ticks_total, 0u);
  ExpectIdentical(sequential, parallel);
}

TEST(FleetGoldenTest, ChurnPlacementIsWorkerCountInvariant) {
  exp::FleetSpec spec = BaseSpec();
  spec.machines = 4;
  spec.churn_period = Seconds(1);
  spec.workers = 1;
  const exp::FleetResult sequential = exp::RunFleet(spec);
  spec.workers = 4;
  const exp::FleetResult parallel = exp::RunFleet(spec);
  EXPECT_GT(sequential.queries_attached, 0u);
  EXPECT_GT(sequential.queries_detached, 0u);
  EXPECT_EQ(sequential.queries_attached, parallel.queries_attached);
  EXPECT_EQ(sequential.queries_detached, parallel.queries_detached);
  ExpectIdentical(sequential, parallel);
}

// The repository's golden fleet run (the benchmark's fleet workload at
// fleet seed 12): 12 machines x 4 cores, 5 Storm queries each at 400 t/s,
// queue-size/nice, 5 s warm-up + 15 s measured. Its digest chains every
// machine's transition log, so this pins the digest format and the whole
// fleet schedule at once.
TEST(FleetGoldenTest, BenchmarkFleetMatchesGoldenDigest) {
  exp::FleetSpec spec;
  spec.label = "fleet";
  spec.machines = 12;
  spec.cores = 4;
  spec.queries_per_machine = 5;
  spec.rate_tps = 400;
  spec.flavor = spe::StormFlavor();
  spec.scheduler.kind = exp::SchedulerKind::kLachesis;
  spec.scheduler.policy = exp::PolicyKind::kQueueSize;
  spec.scheduler.translator = exp::TranslatorKind::kNice;
  spec.warmup = Seconds(5);
  spec.measure = Seconds(15);
  spec.seed = 12;
  spec.collect_digest = true;
  const int parallel = static_cast<int>(
      std::min(4u, std::max(1u, std::thread::hardware_concurrency())));
  for (const int workers : {1, parallel}) {
    spec.workers = workers;
    const exp::FleetResult r = exp::RunFleet(spec);
    EXPECT_EQ(r.trace_digest, 0xa2bd847d141abf04ULL) << "workers " << workers;
    EXPECT_EQ(r.throughput_tps, 24000) << "workers " << workers;
  }
}

// Chaos soak: a denser fleet with churn, run start-to-finish on the pool.
// Sized small for tier-1; TSan CI scales it up through the env knob to give
// the race detector more interleavings to chew on.
TEST(FleetGoldenTest, FleetChaosSoak) {
  int scale = 1;
  if (const char* s = std::getenv("LACHESIS_FLEET_SOAK_SCALE")) {
    scale = std::atoi(s) > 0 ? std::atoi(s) : 1;
  }
  exp::FleetSpec spec = BaseSpec();
  spec.machines = 6;
  spec.queries_per_machine = 4;
  spec.churn_period = Millis(700);
  spec.measure = Seconds(2) * scale;
  spec.workers = 4;
  const exp::FleetResult r = exp::RunFleet(spec);
  EXPECT_GT(r.throughput_tps, 0.0);
  EXPECT_GT(r.epochs, 0u);
  EXPECT_GT(r.queries_attached, 0u);
  EXPECT_EQ(r.worker_count, 4);
  for (const exp::FleetNodeResult& node : r.nodes) {
    EXPECT_GT(node.sched_transitions, 0u);
    EXPECT_GE(node.cpu_utilization, 0.0);
    EXPECT_LE(node.cpu_utilization, 1.0 + 1e-9);
  }
}

}  // namespace
}  // namespace lachesis
