// Fleet experiment harness: the paper's §6.5 scale-out regime on the
// parallel FleetSimulator.
//
// One shard per simulated machine: each machine gets its own event queue,
// CFS state, SPE instance, metric store + scraper, and (under the Lachesis
// scheduler) its own control plane -- SimOsAdapter, SimControlExecutor,
// SimSpeDriver and LachesisRunner -- all built on the shard's Simulator, so
// a worker pool can step machines concurrently between epoch barriers. A
// core::FleetCoordinator on the barrier lane merges tick totals and
// self-metrics at the scrape cadence and places the optional churn query.
//
// Determinism: for a fixed spec (including seed), FleetResult is identical
// for every worker count -- including the per-machine scheduler-trace
// digest, which hashes every CFS transition of every machine. The golden
// fleet test pins this; bench_fleet measures the wall-clock side.
#ifndef LACHESIS_EXP_FLEET_H_
#define LACHESIS_EXP_FLEET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "core/fault.h"
#include "core/fleet_coordinator.h"
#include "core/schedule_delta.h"
#include "exp/scenario.h"
#include "queries/synthetic.h"

namespace lachesis::exp {

struct FleetSpec {
  std::string label = "fleet";
  int machines = 8;           // one shard (event queue) per machine
  int cores = 4;              // per machine
  int workers = 1;            // stepper threads; 1 = sequential reference
  int queries_per_machine = 4;
  double rate_tps = 500;      // offered load per query
  spe::SpeFlavor flavor = spe::StormFlavor();
  // kOsDefault or kLachesis (UL-SS baselines are single-node by design).
  SchedulerSpec scheduler;
  SimDuration warmup = Seconds(5);
  SimDuration measure = Seconds(15);
  SimDuration scrape_period = Seconds(1);
  // Barrier epoch; 0 derives it from scrape_period (machines couple only
  // through the scrape, so that is the coarsest bit-identical choice).
  SimDuration epoch = 0;
  std::uint64_t seed = 1;
  // Hash every machine's scheduler transitions (golden determinism tests).
  // Costs memory proportional to transition count; benches turn it off.
  bool collect_digest = true;
  // When > 0, an extra churn query per machine is deployed and its control
  // binding is attached/detached through the coordinator every period --
  // exercising cross-machine placement on the barrier lane.
  SimDuration churn_period = 0;
  // Shape of the synthetic workloads (num_queries is ignored;
  // queries_per_machine governs).
  queries::SyntheticConfig synthetic;
  // Fleet chaos: machine crash/restart, slow shards and mailbox partitions,
  // driven from the barrier lane by a FleetFaultDirector. Empty (the
  // default) builds no director and changes nothing -- fault-free results
  // and digests are bit-identical to a spec without the field. A crashed
  // machine's agent is killed (runner Stop()); its reboot builds a fresh
  // runner seeded through ReconcileWithBackend, and the coordinator
  // re-places coordinator-managed queries per `failover`.
  core::FleetFaultPlan fleet_faults;
  core::FleetFailoverConfig failover;
};

struct FleetNodeResult {
  std::string name;
  double throughput_tps = 0;
  double offered_tps = 0;
  double avg_latency_ms = 0;
  double cpu_utilization = 0;
  std::uint64_t sched_transitions = 0;
};

struct FleetResult {
  // Aggregates over all machines.
  double throughput_tps = 0;
  double offered_tps = 0;
  double avg_latency_ms = 0;
  double cpu_utilization = 0;
  double min_node_throughput_tps = 0;
  double max_node_throughput_tps = 0;
  std::vector<FleetNodeResult> nodes;

  // Control plane (zero under kOsDefault).
  std::uint64_t ticks_total = 0;
  std::uint64_t schedules_applied = 0;
  core::DeltaStats delta;
  std::uint64_t coordinator_merges = 0;  // barrier-lane aggregation rounds
  std::uint64_t queries_attached = 0;    // via the coordinator (churn)
  std::uint64_t queries_detached = 0;

  // Fleet mechanics.
  std::uint64_t epochs = 0;
  std::uint64_t cross_messages = 0;   // posted through shard mailboxes
  std::uint64_t barrier_actions = 0;
  std::uint64_t events_dispatched = 0;

  // Failure domain (all zero for an empty fault plan).
  std::uint64_t machine_crashes = 0;
  std::uint64_t machine_restarts = 0;
  std::uint64_t partition_epochs = 0;  // directed link-epochs spent down
  std::uint64_t slow_epochs = 0;       // shard-epochs spent slowed
  std::uint64_t cross_dropped = 0;     // partition + dark + late drops
  std::uint64_t shard_deaths = 0;      // coordinator liveness transitions
  std::uint64_t queries_replaced = 0;  // failover re-placements
  std::uint64_t queries_abandoned = 0;
  std::uint64_t reconcile_seeded = 0;  // delta entries seeded by reboots
  // Ops issued to a dark machine's adapter; the conformance invariant is
  // that this stays 0 (a dead agent issues nothing).
  std::uint64_t dark_ops = 0;

  // Every machine's sim::TransitionLog digest, chained in machine order
  // (machine m's fold starts from machine m-1's result); 0 when
  // collect_digest is off. Equal digests mean bit-identical schedules on
  // every machine.
  std::uint64_t trace_digest = 0;

  int worker_count = 0;
  double wall_seconds = 0;  // host time inside the two RunUntil windows
};

// Runs one fleet scenario once.
FleetResult RunFleet(const FleetSpec& spec);

}  // namespace lachesis::exp

#endif  // LACHESIS_EXP_FLEET_H_
