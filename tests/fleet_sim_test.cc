// FleetSimulator: epoch-barrier stepper, cross-shard mailboxes, barrier
// actions, worker-pool semantics, and a conformance-fuzzer pass asserting
// the stepper's invariants (no cross-epoch event reordering, runtime
// conservation per machine, worker-count independence) over randomized
// shard/worker/thread configurations.
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/sim_time.h"
#include "sim/fleet.h"
#include "sim/machine.h"
#include "sim/simulator.h"
#include "sim/transition_log.h"
#include "spe/logical.h"
#include "spe/runtime.h"
#include "spe/source.h"

namespace lachesis {
namespace {

using sim::FleetSimulator;

TEST(FleetSimTest, RejectsBadSizes) {
  EXPECT_THROW(FleetSimulator(0, 1, Seconds(1)), std::invalid_argument);
  EXPECT_THROW(FleetSimulator(2, 0, Seconds(1)), std::invalid_argument);
  EXPECT_THROW(FleetSimulator(2, 2, 0), std::invalid_argument);
}

TEST(FleetSimTest, ClampsWorkersToShardCount) {
  FleetSimulator fleet(2, 8, Seconds(1));
  EXPECT_EQ(fleet.worker_count(), 2);
  FleetSimulator one(3, 1, Seconds(1));
  EXPECT_EQ(one.worker_count(), 1);
}

TEST(FleetSimTest, ShardsAdvanceToEpochBoundaries) {
  FleetSimulator fleet(3, 2, Millis(10));
  fleet.RunUntil(Millis(25));
  EXPECT_EQ(fleet.now(), Millis(25));
  for (std::size_t s = 0; s < fleet.shard_count(); ++s) {
    EXPECT_EQ(fleet.shard(s).now(), Millis(25));
  }
  // 0->10, 10->20, 20->25.
  EXPECT_EQ(fleet.stats().epochs, 3u);
  // Re-entrant: continues from 25 with boundaries still aligned to 0.
  fleet.RunUntil(Millis(40));
  EXPECT_EQ(fleet.now(), Millis(40));
  EXPECT_EQ(fleet.stats().epochs, 5u);  // 25->30, 30->40
}

TEST(FleetSimTest, CrossShardMessageArrivesAtExactTime) {
  FleetSimulator fleet(2, 2, Millis(1));
  SimTime fired_at = -1;
  // Shard 0 sends during its epoch; delivery lands on shard 1 next epoch.
  fleet.shard(0).ScheduleAt(Micros(300), [&] {
    fleet.PostCross(0, 1, Micros(300) + Millis(1) + Micros(50),
                    [&] { fired_at = fleet.shard(1).now(); });
  });
  fleet.RunUntil(Millis(3));
  EXPECT_EQ(fired_at, Micros(300) + Millis(1) + Micros(50));
  EXPECT_EQ(fleet.stats().cross_posted, 1u);
  EXPECT_EQ(fleet.stats().cross_delivered, 1u);
}

TEST(FleetSimTest, SameShardPostIsDirect) {
  FleetSimulator fleet(2, 1, Millis(1));
  bool fired = false;
  fleet.shard(0).ScheduleAt(Micros(100), [&] {
    // Same-shard "cross" post with sub-epoch latency is legal: it never
    // crosses a mailbox.
    fleet.PostCross(0, 0, Micros(110), [&] { fired = true; });
  });
  fleet.RunUntil(Millis(1));
  EXPECT_TRUE(fired);
  EXPECT_EQ(fleet.stats().cross_posted, 0u);
}

TEST(FleetSimTest, SubEpochCrossLatencyThrows) {
  FleetSimulator fleet(2, 1, Millis(10));
  fleet.shard(0).ScheduleAt(Micros(100), [&] {
    // Due long before the destination's next barrier (10 ms): the
    // destination has already simulated past the delivery time.
    fleet.PostCross(0, 1, Micros(200), [] {});
  });
  EXPECT_THROW(fleet.RunUntil(Millis(20)), std::logic_error);
}

TEST(FleetSimTest, BarrierActionsRunInTimeThenRegistrationOrder) {
  FleetSimulator fleet(2, 2, Millis(1));
  std::vector<int> order;
  fleet.CallAtBarrier(Millis(2), [&] { order.push_back(2); });
  fleet.CallAtBarrier(Millis(1), [&] {
    order.push_back(0);
    // Nested registration at the same barrier runs before later barriers.
    fleet.CallAtBarrier(Millis(1), [&] { order.push_back(1); });
  });
  fleet.RunUntil(Millis(3));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(fleet.stats().barrier_actions, 3u);
}

TEST(FleetSimTest, BarrierActionMayPostAtTheBarrierTime) {
  // A barrier action posting a cross message due exactly at the barrier
  // time must not trip the lateness check (the destination sits at the
  // barrier, so at == now is still schedulable).
  FleetSimulator fleet(2, 2, Millis(1));
  bool fired = false;
  fleet.CallAtBarrier(Millis(1), [&] {
    fleet.PostCross(0, 1, Millis(1), [&] { fired = true; });
  });
  fleet.RunUntil(Millis(2));
  EXPECT_TRUE(fired);
}

TEST(FleetSimTest, ShardExceptionPropagatesLowestIndexFirst) {
  for (const int workers : {1, 3}) {
    FleetSimulator fleet(3, workers, Millis(1));
    fleet.shard(2).ScheduleAt(Micros(100),
                              [] { throw std::runtime_error("shard2"); });
    fleet.shard(1).ScheduleAt(Micros(100),
                              [] { throw std::runtime_error("shard1"); });
    try {
      fleet.RunUntil(Millis(1));
      FAIL() << "expected shard exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "shard1");
    }
  }
}

// ---------------------------------------------------------------------------
// Failure domain: dark shards, partitions, drop accounting, mailbox hygiene.

TEST(FleetFailureTest, ShardExceptionLeavesMailboxesUnmerged) {
  // Satellite contract: a shard throwing mid-epoch aborts the epoch BEFORE
  // the mailbox merge, so survivors never observe a partially merged
  // mailbox -- the in-flight message is still in its outbox, and stats()
  // proves conservation.
  for (const int workers : {1, 3}) {
    FleetSimulator fleet(3, workers, Millis(1));
    bool fired = false;
    fleet.shard(0).ScheduleAt(Micros(100), [&] {
      fleet.PostCross(0, 2, Micros(1100), [&] { fired = true; });
    });
    fleet.shard(1).ScheduleAt(Micros(200),
                              [] { throw std::runtime_error("shard1 died"); });
    EXPECT_THROW(fleet.RunUntil(Millis(1)), std::runtime_error);
    const FleetSimulator::Stats stats = fleet.stats();  // asserts conservation
    EXPECT_EQ(stats.cross_posted, 1u);
    EXPECT_EQ(stats.cross_delivered, 0u);
    EXPECT_EQ(stats.cross_in_flight, 1u);
    EXPECT_FALSE(fired);
  }
}

TEST(FleetFailureTest, DarkShardFreezesAndCatchesUpAtOriginalTimestamps) {
  FleetSimulator fleet(2, 1, Millis(1));
  SimTime fired_at = -1;
  fleet.shard(0).ScheduleAt(Micros(1500),
                            [&] { fired_at = fleet.shard(0).now(); });
  fleet.CallAtBarrier(Millis(1), [&] { fleet.SetShardDark(0, true); });
  fleet.CallAtBarrier(Millis(2), [&] {
    // Frozen at the crash barrier while the fleet marches on.
    EXPECT_EQ(fleet.shard(0).now(), Millis(1));
    EXPECT_EQ(fired_at, -1);
  });
  fleet.CallAtBarrier(Millis(3), [&] { fleet.SetShardDark(0, false); });
  fleet.RunUntil(Millis(5));
  // Catch-up replay ran the backlog at its original simulated time.
  EXPECT_EQ(fired_at, Micros(1500));
  EXPECT_EQ(fleet.shard(0).now(), Millis(5));
  EXPECT_EQ(fleet.stats().dark_epochs, 2u);
}

TEST(FleetFailureTest, MessagesToAndFromDarkShardsAreDropped) {
  FleetSimulator fleet(2, 1, Millis(1));
  bool fired = false;
  fleet.CallAtBarrier(Millis(1), [&] {
    fleet.SetShardDark(0, true);
    // Posted on behalf of the dark sender from the barrier lane.
    fleet.PostCross(0, 1, Millis(2), [&] { fired = true; });
  });
  // Healthy shard sends toward the dark machine.
  fleet.shard(1).ScheduleAt(Micros(1200), [&] {
    fleet.PostCross(1, 0, Micros(2200), [&] { fired = true; });
  });
  fleet.RunUntil(Millis(4));
  const FleetSimulator::Stats stats = fleet.stats();
  EXPECT_EQ(stats.cross_dropped_dark, 2u);
  EXPECT_EQ(stats.cross_delivered, 0u);
  EXPECT_FALSE(fired);
}

TEST(FleetFailureTest, PartitionDropsThenHealsWithConservation) {
  FleetSimulator fleet(2, 1, Millis(1));
  int delivered = 0;
  const auto send = [&fleet, &delivered](SimTime at) {
    fleet.shard(0).ScheduleAt(at, [&fleet, &delivered, at] {
      fleet.PostCross(0, 1, at + Millis(1), [&delivered] { ++delivered; });
    });
  };
  send(Micros(500));   // dropped: link down
  send(Micros(1500));  // dropped: link down
  send(Micros(3500));  // delivered: healed
  fleet.SetLinkDown(0, 1, true);
  EXPECT_TRUE(fleet.LinkDown(0, 1));
  fleet.CallAtBarrier(Millis(3), [&] { fleet.SetLinkDown(0, 1, false); });
  fleet.RunUntil(Millis(5));
  const FleetSimulator::Stats stats = fleet.stats();  // asserts conservation
  EXPECT_EQ(stats.cross_dropped_partition, 2u);
  EXPECT_EQ(stats.cross_delivered, 1u);
  EXPECT_EQ(delivered, 1);
  EXPECT_FALSE(fleet.LinkDown(0, 1));
}

TEST(FleetFailureTest, LateMessageFromCatchingUpSenderIsDroppedNotFatal) {
  FleetSimulator fleet(2, 1, Millis(1));
  bool fired = false;
  // This send would be perfectly timely (one-epoch latency) -- but the
  // sender goes dark before it runs, and by the time the revived shard
  // replays it, the destination has simulated far past the delivery time.
  fleet.shard(0).ScheduleAt(Micros(1500), [&] {
    fleet.PostCross(0, 1, Micros(2500), [&] { fired = true; });
  });
  fleet.CallAtBarrier(Millis(1), [&] { fleet.SetShardDark(0, true); });
  fleet.CallAtBarrier(Millis(4), [&] { fleet.SetShardDark(0, false); });
  fleet.RunUntil(Millis(6));
  const FleetSimulator::Stats stats = fleet.stats();
  EXPECT_EQ(stats.cross_dropped_late, 1u);
  EXPECT_EQ(stats.cross_delivered, 0u);
  EXPECT_FALSE(fired);
}

TEST(FleetFailureTest, SlowShardInflatesWallClockOnly) {
  FleetSimulator fleet(2, 2, Millis(1));
  fleet.SetShardSlow(1, 200);
  EXPECT_EQ(fleet.ShardSlow(1), 200u);
  SimTime fired_at = -1;
  fleet.shard(1).ScheduleAt(Micros(700),
                            [&] { fired_at = fleet.shard(1).now(); });
  fleet.RunUntil(Millis(3));
  // Simulated behavior untouched; only the stepper observed stragglers.
  EXPECT_EQ(fired_at, Micros(700));
  EXPECT_EQ(fleet.shard(1).now(), Millis(3));
  EXPECT_EQ(fleet.stats().slow_steps, 3u);
}

TEST(FleetFailureTest, FailureTogglesAreBarrierLaneOnly) {
  FleetSimulator fleet(2, 1, Millis(1));
  fleet.shard(0).ScheduleAt(Micros(100),
                            [&] { fleet.SetShardDark(1, true); });
  EXPECT_THROW(fleet.RunUntil(Millis(1)), std::logic_error);

  FleetSimulator fleet2(2, 1, Millis(1));
  fleet2.shard(0).ScheduleAt(Micros(100),
                             [&] { fleet2.SetLinkDown(0, 1, true); });
  EXPECT_THROW(fleet2.RunUntil(Millis(1)), std::logic_error);

  FleetSimulator fleet3(2, 1, Millis(1));
  fleet3.shard(0).ScheduleAt(Micros(100),
                             [&] { fleet3.SetShardSlow(1, 100); });
  EXPECT_THROW(fleet3.RunUntil(Millis(1)), std::logic_error);
}

// ---------------------------------------------------------------------------
// Conformance fuzz over the barrier stepper with real machines.

struct FuzzSpinner final : sim::ThreadBody {
  FuzzSpinner(SimDuration burst, SimDuration gap, SimTime until)
      : burst(burst), gap(gap), until(until) {}
  sim::Action Next(sim::Machine& machine) override {
    if (machine.now() >= until) return sim::Action::Exit();
    compute = !compute;
    return compute ? sim::Action::Compute(burst) : sim::Action::Sleep(gap);
  }
  SimDuration burst, gap;
  SimTime until;
  bool compute = false;
};

// Per-machine time monotonicity: an event executed out of order would show
// up as a backwards timestamp in the machine's transition log.
void ExpectMonotonic(const sim::TransitionLog& trace) {
  SimTime last = 0;
  for (const sim::TransitionRecord& r : trace.records()) {
    if (r.at < last) {
      ADD_FAILURE() << "per-machine trace went backwards at t=" << r.at;
      return;
    }
    last = r.at;
  }
}

struct FuzzOutcome {
  std::vector<std::uint64_t> digests;          // per machine
  std::vector<SimDuration> busy;               // per machine
  std::vector<SimDuration> cpu_sum;            // per machine, over threads
  std::uint64_t cross_delivered = 0;
};

// One fuzz scenario: `shards` machines with randomized thread mixes, plus
// random cross-shard messages with latency >= one epoch.
FuzzOutcome RunFuzzCase(std::uint64_t seed, int shards, int workers,
                        SimDuration epoch, SimTime end) {
  Rng rng(seed);
  FleetSimulator fleet(shards, workers, epoch);
  std::vector<std::unique_ptr<sim::Machine>> machines;
  std::vector<std::unique_ptr<sim::TransitionLog>> traces;
  for (int s = 0; s < shards; ++s) {
    const int cores = 1 + static_cast<int>(rng.NextBounded(3));
    machines.push_back(std::make_unique<sim::Machine>(
        fleet.shard(static_cast<std::size_t>(s)), cores, sim::CfsParams{},
        "m" + std::to_string(s)));
    traces.push_back(std::make_unique<sim::TransitionLog>());
    machines.back()->set_trace_observer(traces.back().get());
    const int threads = 1 + static_cast<int>(rng.NextBounded(4));
    for (int t = 0; t < threads; ++t) {
      machines.back()->CreateThread(
          "t" + std::to_string(t),
          std::make_unique<FuzzSpinner>(
              Micros(50 + static_cast<SimDuration>(rng.NextBounded(400))),
              Micros(100 + static_cast<SimDuration>(rng.NextBounded(900))),
              end),
          machines.back()->root_cgroup(),
          static_cast<int>(rng.NextBounded(7)) - 3);
    }
  }
  // Random cross-shard pokes: wake-ups delivered one-or-more epochs later.
  const int messages = 4 + static_cast<int>(rng.NextBounded(12));
  for (int i = 0; i < messages; ++i) {
    const auto from = static_cast<std::size_t>(
        rng.NextBounded(static_cast<std::uint64_t>(shards)));
    const auto to = static_cast<std::size_t>(
        rng.NextBounded(static_cast<std::uint64_t>(shards)));
    const SimTime send =
        static_cast<SimTime>(rng.NextBounded(static_cast<std::uint64_t>(end)));
    const SimDuration latency =
        epoch + static_cast<SimDuration>(rng.NextBounded(
                    static_cast<std::uint64_t>(epoch)));
    sim::Machine* dest = machines[to].get();
    fleet.shard(from).ScheduleAt(send, [&fleet, from, to, send, latency, dest] {
      fleet.PostCross(from, to, send + latency, [dest] {
        // Benign state read on the destination's own thread.
        (void)dest->total_busy_time();
      });
    });
  }
  fleet.RunUntil(end);

  FuzzOutcome outcome;
  for (int s = 0; s < shards; ++s) {
    const sim::TransitionLog& trace = *traces[static_cast<std::size_t>(s)];
    ExpectMonotonic(trace);
    outcome.digests.push_back(trace.Digest());
    outcome.busy.push_back(machines[static_cast<std::size_t>(s)]->total_busy_time());
    SimDuration cpu = 0;
    const auto& m = *machines[static_cast<std::size_t>(s)];
    for (std::size_t t = 0; t < m.thread_count(); ++t) {
      cpu += m.GetStats(ThreadId(t)).cpu_time;
    }
    outcome.cpu_sum.push_back(cpu);
  }
  outcome.cross_delivered = fleet.stats().cross_delivered;
  return outcome;
}

TEST(FleetFuzzTest, BarrierStepperInvariants) {
  Rng meta(0xF1EE7);
  for (int round = 0; round < 12; ++round) {
    const std::uint64_t seed = meta.NextU64();
    const int shards = 2 + static_cast<int>(meta.NextBounded(5));
    const SimDuration epoch =
        Millis(1) * (1 + static_cast<SimDuration>(meta.NextBounded(4)));
    const SimTime end = Millis(40) + epoch * 3;

    // Sequential reference, then the same case on 2..shards workers.
    const FuzzOutcome reference = RunFuzzCase(seed, shards, 1, epoch, end);
    for (std::size_t s = 0; s < reference.digests.size(); ++s) {
      // Runtime conservation: thread CPU accumulates into (and never
      // exceeds) the machine's core-busy accounting.
      EXPECT_LE(reference.cpu_sum[s], reference.busy[s]);
      EXPECT_GT(reference.busy[s], 0);
    }

    const int workers = 2 + static_cast<int>(meta.NextBounded(
                                static_cast<std::uint64_t>(shards)));
    const FuzzOutcome parallel = RunFuzzCase(seed, shards, workers, epoch, end);
    EXPECT_EQ(parallel.digests, reference.digests)
        << "round " << round << " seed " << seed << " shards " << shards
        << " workers " << workers;
    EXPECT_EQ(parallel.busy, reference.busy);
    EXPECT_EQ(parallel.cpu_sum, reference.cpu_sum);
    EXPECT_EQ(parallel.cross_delivered, reference.cross_delivered);
  }
}

// ---------------------------------------------------------------------------
// Cross-machine SPE dataflow over shard mailboxes.

spe::LogicalQuery TwoStagePipeline() {
  spe::LogicalQuery q;
  q.name = "xmach";
  const int in = q.Add(spe::MakeIngress("in", Micros(15)));
  const int t0 = q.Add(spe::MakeTransform(
      "t0", Micros(60), [] { return std::make_unique<spe::IdentityLogic>(); }));
  const int out = q.Add(spe::MakeEgress("out", Micros(15)));
  q.Connect(in, t0);
  q.Connect(t0, out);
  return q;
}

// The ingress runs on machine 0 (shard 0), transform + egress on machine 1
// (shard 1): every tuple crosses the shard boundary through the fleet
// mailbox. Uses the Storm flavor so the ingress flow-control path (which
// now only polls same-simulator queues) is exercised too.
std::uint64_t CrossMachineRun(int workers, std::uint64_t* delivered) {
  const SimDuration epoch = Micros(400);
  FleetSimulator fleet(2, workers, epoch);
  sim::Machine m0(fleet.shard(0), 2, sim::CfsParams{}, "m0");
  sim::Machine m1(fleet.shard(1), 2, sim::CfsParams{}, "m1");
  sim::TransitionLog trace0;
  sim::TransitionLog trace1;
  m0.set_trace_observer(&trace0);
  m1.set_trace_observer(&trace1);

  spe::SpeInstance instance(spe::StormFlavor(),
                            std::vector<sim::Machine*>{&m0, &m1}, "x");
  spe::DeployOptions options;
  // Cross-machine latency must be >= the epoch, as on a real network where
  // the paper's per-node instances only share the 1 s metric store.
  options.network_delay = Micros(500);
  options.node_of = [](int logical, int /*replica*/) {
    return logical == 0 ? 0 : 1;
  };
  spe::DeployedQuery& dq = instance.Deploy(TwoStagePipeline(), options);
  spe::ExternalSource source(fleet.shard(0), dq.source_channels(),
                             [](Rng& rng, std::uint64_t seq) {
                               spe::Tuple t;
                               t.key = static_cast<std::int64_t>(seq % 8);
                               t.value = rng.Uniform(0.0, 1.0);
                               return t;
                             },
                             99);
  source.Start(2000, Millis(400));
  fleet.RunUntil(Millis(500));

  EXPECT_GT(fleet.stats().cross_posted, 0u);
  EXPECT_EQ(fleet.stats().cross_posted, fleet.stats().cross_delivered);
  // Tuples actually made it to the downstream machine.
  std::uint64_t egress_in = 0;
  for (const spe::DeployedOp& op : dq.ops) {
    if (op.op->config().role == spe::OperatorRole::kEgress) {
      egress_in += op.op->tuples_in();
    }
  }
  EXPECT_GT(egress_in, 100u);
  if (delivered != nullptr) *delivered = fleet.stats().cross_delivered;

  ExpectMonotonic(trace0);
  ExpectMonotonic(trace1);
  return trace1.Digest(trace0.Digest());
}

TEST(FleetSimTest, CrossMachineDataflowIsWorkerCountIndependent) {
  std::uint64_t delivered1 = 0;
  std::uint64_t delivered2 = 0;
  const std::uint64_t sequential = CrossMachineRun(1, &delivered1);
  const std::uint64_t parallel = CrossMachineRun(2, &delivered2);
  EXPECT_EQ(sequential, parallel);
  EXPECT_EQ(delivered1, delivered2);
}

}  // namespace
}  // namespace lachesis
