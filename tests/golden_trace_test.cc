// Golden-trace determinism test for the discrete-event CFS core.
//
// Every scheduler transition (wake, dispatch, preempt, block, sleep, exit)
// of a fixed-seed scenario is recorded in a sim::TransitionLog and hashed
// with its Digest(). The digests are asserted equal
// across repeated runs at each core count AND against hard-coded golden
// values captured from the reference implementation, so any change to the
// event queue, runqueues, or wakeup path that perturbs the deterministic
// schedule -- however subtly -- fails loudly here.
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/sim_time.h"
#include "sim/machine.h"
#include "sim/simulator.h"
#include "sim/transition_log.h"
#include "spe/logical.h"
#include "spe/runtime.h"
#include "spe/source.h"

namespace lachesis {
namespace {

spe::LogicalQuery Pipeline(const std::string& name, int transforms,
                           SimDuration cost) {
  spe::LogicalQuery q;
  q.name = name;
  int prev = q.Add(spe::MakeIngress("in", Micros(15)));
  for (int i = 0; i < transforms; ++i) {
    const int op = q.Add(spe::MakeTransform(
        "t" + std::to_string(i), cost,
        [] { return std::make_unique<spe::IdentityLogic>(); }));
    q.Connect(prev, op);
    prev = op;
  }
  const int egress = q.Add(spe::MakeEgress("out", Micros(15)));
  q.Connect(prev, egress);
  return q;
}

// Two queries of different depth and cost sharing one machine, fed by
// fixed-seed external sources: exercises the event queue's hot (scheduler)
// and cold (source closure) lanes, CFS runqueues, and wakeup preemption.
std::uint64_t SpeScenarioDigest(int cores) {
  sim::Simulator sim;
  sim::Machine machine(sim, cores);
  sim::TransitionLog trace;
  machine.set_trace_observer(&trace);
  spe::SpeInstance instance(spe::StormFlavor(),
                            std::vector<sim::Machine*>{&machine}, "golden");
  spe::DeployedQuery& q1 = instance.Deploy(Pipeline("q1", 3, Micros(60)), {});
  spe::DeployedQuery& q2 = instance.Deploy(Pipeline("q2", 2, Micros(90)), {});
  auto generator = [](Rng& rng, std::uint64_t seq) {
    spe::Tuple t;
    t.key = static_cast<std::int64_t>(seq % 16);
    t.value = rng.Uniform(0.0, 1.0);
    return t;
  };
  spe::ExternalSource s1(sim, q1.source_channels(), generator, 11);
  spe::ExternalSource s2(sim, q2.source_channels(), generator, 23);
  s1.Start(2500, Seconds(2));
  s2.Start(1700, Seconds(2));
  sim.RunUntil(Seconds(3));
  EXPECT_GT(trace.size(), 1000u);
  return trace.Digest();
}

struct Spinner final : sim::ThreadBody {
  explicit Spinner(SimDuration burst) : burst(burst) {}
  sim::Action Next(sim::Machine& machine) override {
    if (machine.now() >= Seconds(2)) return sim::Action::Exit();
    return sim::Action::Compute(burst);
  }
  SimDuration burst;
};

struct PeriodicSleeper final : sim::ThreadBody {
  PeriodicSleeper(SimDuration burst, SimDuration gap) : burst(burst), gap(gap) {}
  sim::Action Next(sim::Machine& machine) override {
    if (machine.now() >= Seconds(2)) return sim::Action::Exit();
    compute = !compute;
    return compute ? sim::Action::Compute(burst) : sim::Action::Sleep(gap);
  }
  SimDuration burst, gap;
  bool compute = false;
};

struct Producer final : sim::ThreadBody {
  Producer(sim::WaitChannel& ch, int* tokens, SimDuration burst)
      : channel(&ch), tokens(tokens), burst(burst) {}
  sim::Action Next(sim::Machine& machine) override {
    if (machine.now() >= Seconds(2)) return sim::Action::Exit();
    if (produced) {
      ++*tokens;
      channel->NotifyOne();
      produced = false;
    }
    produced = true;
    return sim::Action::Compute(burst);
  }
  sim::WaitChannel* channel;
  int* tokens;
  SimDuration burst;
  bool produced = false;
};

struct Consumer final : sim::ThreadBody {
  Consumer(sim::WaitChannel& ch, int* tokens, SimDuration burst)
      : channel(&ch), tokens(tokens), burst(burst) {}
  sim::Action Next(sim::Machine& machine) override {
    if (machine.now() >= Seconds(2)) return sim::Action::Exit();
    if (*tokens == 0) return sim::Action::Wait(*channel);
    --*tokens;
    return sim::Action::Compute(burst);
  }
  sim::WaitChannel* channel;
  int* tokens;
  SimDuration burst;
};

// Kernel-feature mix on the bare machine: weighted cgroups, a quota group
// that throttles, an RT thread, wait-channel producer/consumer pairs, and
// mid-run SetNice/MoveToCgroup churn (scheduled via cold-lane closures).
std::uint64_t MachineScenarioDigest(int cores, sim::CfsParams params = {}) {
  sim::Simulator sim;
  sim::Machine machine(sim, cores, params);
  sim::TransitionLog trace;
  machine.set_trace_observer(&trace);

  const CgroupId heavy = machine.CreateCgroup("heavy", machine.root_cgroup(), 2048);
  const CgroupId light = machine.CreateCgroup("light", machine.root_cgroup(), 512);
  const CgroupId nested = machine.CreateCgroup("nested", heavy, 1024);
  machine.SetQuota(light, Millis(4), Millis(20));

  machine.CreateThread("spin-a", std::make_unique<Spinner>(Micros(150)), heavy, 0);
  machine.CreateThread("spin-b", std::make_unique<Spinner>(Micros(170)), nested, -2);
  machine.CreateThread("spin-c", std::make_unique<Spinner>(Micros(130)), light, 3);
  machine.CreateThread("sleeper",
                       std::make_unique<PeriodicSleeper>(Micros(300), Micros(700)),
                       machine.root_cgroup(), 0);
  const ThreadId rt = machine.CreateThread(
      "rt", std::make_unique<PeriodicSleeper>(Micros(200), Millis(5)),
      machine.root_cgroup(), 0);
  machine.SetRtPriority(rt, 50);

  sim::WaitChannel channel(machine);
  int tokens = 0;
  machine.CreateThread("prod", std::make_unique<Producer>(channel, &tokens, Micros(80)),
                       heavy, 0);
  const ThreadId consumer = machine.CreateThread(
      "cons", std::make_unique<Consumer>(channel, &tokens, Micros(120)), light, 0);

  sim.ScheduleAt(Millis(500), [&] { machine.SetNice(consumer, -5); });
  sim.ScheduleAt(Millis(900), [&] { machine.MoveToCgroup(consumer, nested); });
  sim.ScheduleAt(Millis(1300), [&] { machine.SetShares(heavy, 256); });

  sim.RunUntil(Seconds(3));
  EXPECT_GT(trace.size(), 500u);
  return trace.Digest();
}

// Golden digests captured from the seed (std::priority_queue + std::set)
// implementation. The optimized event queue / runqueues must reproduce the
// exact same schedule.
constexpr std::uint64_t kGoldenSpe1Core = 0x85a60f0f97a722c4ULL;
constexpr std::uint64_t kGoldenSpe4Core = 0xb55483fdfadb14a5ULL;
constexpr std::uint64_t kGoldenMachine1Core = 0x77cb84798206728aULL;
constexpr std::uint64_t kGoldenMachine2Core = 0x5e96e93104df2819ULL;

TEST(GoldenTraceTest, SpeScenarioIsDeterministicPerCoreCount) {
  EXPECT_EQ(SpeScenarioDigest(1), SpeScenarioDigest(1));
  EXPECT_EQ(SpeScenarioDigest(4), SpeScenarioDigest(4));
}

TEST(GoldenTraceTest, SpeScenarioMatchesGoldenDigest) {
  EXPECT_EQ(SpeScenarioDigest(1), kGoldenSpe1Core);
  EXPECT_EQ(SpeScenarioDigest(4), kGoldenSpe4Core);
}

TEST(GoldenTraceTest, MachineScenarioIsDeterministicPerCoreCount) {
  EXPECT_EQ(MachineScenarioDigest(1), MachineScenarioDigest(1));
  EXPECT_EQ(MachineScenarioDigest(2), MachineScenarioDigest(2));
}

TEST(GoldenTraceTest, MachineScenarioMatchesGoldenDigest) {
  EXPECT_EQ(MachineScenarioDigest(1), kGoldenMachine1Core);
  EXPECT_EQ(MachineScenarioDigest(2), kGoldenMachine2Core);
}

// An explicit all-full-capacity vector must be indistinguishable from the
// default symmetric machine: every heterogeneity code path is gated on a
// below-full-capacity core or reduces to an exact identity at capacity
// 1024, so the pre-heterogeneity goldens must reproduce byte-for-byte.
TEST(GoldenTraceTest, SymmetricCapacityVectorReproducesGoldenDigest) {
  sim::CfsParams one_core;
  one_core.core_capacities = {1.0};
  sim::CfsParams two_cores;
  two_cores.core_capacities = {1.0, 1.0};
  EXPECT_EQ(MachineScenarioDigest(1, one_core), kGoldenMachine1Core);
  EXPECT_EQ(MachineScenarioDigest(2, two_cores), kGoldenMachine2Core);
}

}  // namespace
}  // namespace lachesis
