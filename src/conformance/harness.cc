#include "conformance/harness.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <sstream>
#include <string>

#include "sim/simulator.h"
#include "sim/weights.h"

namespace lachesis::conformance {

namespace {

// --- thread bodies ----------------------------------------------------------

class BusyBody final : public sim::ThreadBody {
 public:
  explicit BusyBody(SimDuration chunk) : chunk_(chunk) {}
  sim::Action Next(sim::Machine&) override { return sim::Action::Compute(chunk_); }

 private:
  SimDuration chunk_;
};

class BurstSleepBody final : public sim::ThreadBody {
 public:
  BurstSleepBody(SimDuration busy, SimDuration sleep)
      : busy_(busy), sleep_(sleep) {}
  sim::Action Next(sim::Machine&) override {
    compute_turn_ = !compute_turn_;
    return compute_turn_ ? sim::Action::Compute(busy_)
                         : sim::Action::Sleep(sleep_);
  }

 private:
  SimDuration busy_;
  SimDuration sleep_;
  bool compute_turn_ = false;
};

std::unique_ptr<sim::ThreadBody> MakeBody(const ThreadSpec& spec) {
  if (spec.kind == ThreadKind::kBusy) {
    return std::make_unique<BusyBody>(spec.busy);
  }
  return std::make_unique<BurstSleepBody>(spec.busy, spec.sleep);
}

std::string KindName(sim::SchedTransition kind) {
  switch (kind) {
    case sim::SchedTransition::kWake: return "wake";
    case sim::SchedTransition::kDispatch: return "dispatch";
    case sim::SchedTransition::kPreempt: return "preempt";
    case sim::SchedTransition::kBlock: return "block";
    case sim::SchedTransition::kSleep: return "sleep";
    case sim::SchedTransition::kExit: return "exit";
  }
  return "?";
}

}  // namespace

// --- execution ---------------------------------------------------------------

RunResult RunScenario(const ScenarioSpec& spec) {
  sim::Simulator sim;
  sim::Machine machine(sim, spec.cores, spec.params, "conformance");
  sim::TransitionLog trace;
  machine.set_trace_observer(&trace);

  std::vector<CgroupId> groups;
  groups.reserve(spec.groups.size());
  for (std::size_t g = 0; g < spec.groups.size(); ++g) {
    const CgroupId parent = spec.groups[g].parent < 0
                                ? machine.root_cgroup()
                                : groups[static_cast<std::size_t>(
                                      spec.groups[g].parent)];
    groups.push_back(machine.CreateCgroup("g" + std::to_string(g), parent,
                                          spec.groups[g].shares));
  }

  std::vector<ThreadId> threads;
  threads.reserve(spec.threads.size());
  for (std::size_t t = 0; t < spec.threads.size(); ++t) {
    const ThreadSpec& ts = spec.threads[t];
    const CgroupId group =
        ts.group < 0 ? machine.root_cgroup()
                     : groups[static_cast<std::size_t>(ts.group)];
    threads.push_back(machine.CreateThread("t" + std::to_string(t),
                                           MakeBody(ts), group, ts.nice));
    if (ts.kind == ThreadKind::kRt) {
      machine.SetRtPriority(threads.back(), ts.rt_priority);
    } else if (ts.kind == ThreadKind::kDeadline && !ts.dl.is_zero()) {
      // Admission control may reject an over-committed reservation; the
      // thread then runs as plain CFS, which is exactly what the kernel
      // does when sched_setattr returns EBUSY.
      (void)machine.SetDeadline(threads.back(), ts.dl);
    }
  }

  for (const MutationSpec& mut : spec.mutations) {
    sim.ScheduleAt(mut.at, [&machine, &groups, &threads, mut] {
      switch (mut.kind) {
        case MutationKind::kSetNice:
          machine.SetNice(threads[static_cast<std::size_t>(mut.thread)],
                          mut.nice);
          break;
        case MutationKind::kSetShares:
          machine.SetShares(groups[static_cast<std::size_t>(mut.group)],
                            mut.shares);
          break;
        case MutationKind::kMoveToCgroup:
          machine.MoveToCgroup(
              threads[static_cast<std::size_t>(mut.thread)],
              mut.group < 0 ? machine.root_cgroup()
                            : groups[static_cast<std::size_t>(mut.group)]);
          break;
      }
    });
  }

  RunResult result;
  result.spec = spec;

  const SimDuration interval =
      std::max<SimDuration>(spec.duration / 200, Micros(100));
  std::function<void()> probe = [&] {
    ProbeSample sample;
    sample.at = machine.now();
    sample.group_min_vruntime.reserve(machine.cgroup_count());
    for (std::size_t g = 0; g < machine.cgroup_count(); ++g) {
      sample.group_min_vruntime.push_back(machine.GroupMinVruntime(CgroupId(g)));
    }
    sample.thread_vruntime.reserve(threads.size());
    for (const ThreadId tid : threads) {
      sample.thread_vruntime.push_back(machine.ThreadVruntime(tid));
    }
    sample.idle_cores = machine.IdleCoreCount();
    sample.unthrottled_runnable = machine.UnthrottledRunnableCount();
    sample.dl_admitted_util = machine.DlAdmittedUtilization();
    sample.dl_util_bound = machine.DlUtilizationBound();
    sample.misfit_runners = machine.MisfitRunnerCount();
    result.probes.push_back(std::move(sample));
    if (machine.now() + interval <= spec.duration) {
      sim.ScheduleAfter(interval, probe);
    }
  };
  sim.ScheduleAfter(interval, probe);

  sim.RunUntil(spec.duration);

  for (const ThreadId tid : threads) {
    result.stats.push_back(machine.GetStats(tid));
    result.final_states.push_back(machine.GetState(tid));
  }
  result.trace = std::move(trace).records();
  result.total_busy = machine.total_busy_time();
  return result;
}

// --- invariant checkers ------------------------------------------------------

std::string CheckReport::Summary() const {
  if (violations.empty()) return "ok";
  std::ostringstream out;
  out << violations.size() << " violation(s):\n";
  for (const std::string& v : violations) out << "  - " << v << "\n";
  return out.str();
}

namespace {

// Trace-derived per-thread scheduling state, advanced transition by
// transition; any illegal edge is a lost/duplicated wakeup or a scheduler
// state-machine bug.
enum class TraceState { kNew, kRunnable, kRunning, kBlocked, kSleeping, kExited };

void CheckTransitions(const RunResult& run, CheckReport& report) {
  const std::size_t n = run.spec.threads.size();
  std::vector<TraceState> state(n, TraceState::kNew);
  std::vector<std::uint64_t> wakes(n, 0);
  std::vector<std::uint64_t> preempts(n, 0);
  for (const sim::TransitionRecord& rec : run.trace) {
    if (rec.tid >= n) {
      report.Add("trace references unknown thread " + std::to_string(rec.tid));
      return;
    }
    TraceState& s = state[rec.tid];
    const auto illegal = [&] {
      report.Add("illegal transition '" + KindName(rec.kind) + "' of thread " +
                 std::to_string(rec.tid) + " at t=" + std::to_string(rec.at) +
                 "ns (trace state " + std::to_string(static_cast<int>(s)) + ")");
    };
    switch (rec.kind) {
      case sim::SchedTransition::kWake:
        // A wake of a runnable/running thread would be a duplicated wakeup.
        if (s != TraceState::kNew && s != TraceState::kBlocked &&
            s != TraceState::kSleeping) {
          illegal();
          return;
        }
        s = TraceState::kRunnable;
        ++wakes[rec.tid];
        break;
      case sim::SchedTransition::kDispatch:
        if (s != TraceState::kRunnable) {
          illegal();
          return;
        }
        s = TraceState::kRunning;
        break;
      case sim::SchedTransition::kPreempt:
        if (s != TraceState::kRunning) {
          illegal();
          return;
        }
        s = TraceState::kRunnable;
        ++preempts[rec.tid];
        break;
      case sim::SchedTransition::kBlock:
        if (s != TraceState::kRunning) {
          illegal();
          return;
        }
        s = TraceState::kBlocked;
        break;
      case sim::SchedTransition::kSleep:
        if (s != TraceState::kRunning) {
          illegal();
          return;
        }
        s = TraceState::kSleeping;
        break;
      case sim::SchedTransition::kExit:
        if (s != TraceState::kRunning) {
          illegal();
          return;
        }
        s = TraceState::kExited;
        break;
    }
  }
  for (std::size_t t = 0; t < n; ++t) {
    // The trace-derived state must agree with the machine's final state --
    // a mismatch means a transition was never reported (lost) or reported
    // twice (duplicated).
    static constexpr sim::ThreadState kExpected[] = {
        sim::ThreadState::kNew,      sim::ThreadState::kRunnable,
        sim::ThreadState::kRunning,  sim::ThreadState::kBlocked,
        sim::ThreadState::kSleeping, sim::ThreadState::kExited};
    if (kExpected[static_cast<int>(state[t])] != run.final_states[t]) {
      report.Add("thread " + std::to_string(t) +
                 ": trace-derived final state disagrees with machine state");
    }
    if (wakes[t] != run.stats[t].nr_wakeups) {
      report.Add("thread " + std::to_string(t) + ": " +
                 std::to_string(wakes[t]) + " wake transitions but stats say " +
                 std::to_string(run.stats[t].nr_wakeups));
    }
    if (preempts[t] != run.stats[t].nr_preemptions) {
      report.Add("thread " + std::to_string(t) + ": " +
                 std::to_string(preempts[t]) +
                 " preempt transitions but stats say " +
                 std::to_string(run.stats[t].nr_preemptions));
    }
  }
}

void CheckConservation(const RunResult& run, CheckReport& report) {
  SimDuration sum = 0;
  for (const sim::ThreadStats& s : run.stats) sum += s.cpu_time;
  const SimDuration capacity =
      static_cast<SimDuration>(run.spec.cores) * run.spec.duration;
  if (run.total_busy > capacity) {
    report.Add("conservation: total busy time " +
               std::to_string(run.total_busy) + "ns exceeds capacity " +
               std::to_string(capacity) + "ns");
  }
  if (sum > run.total_busy) {
    report.Add("conservation: per-thread cpu_time sum " + std::to_string(sum) +
               "ns exceeds total busy time " + std::to_string(run.total_busy) +
               "ns");
  }
  // Runtime still in flight on each core (charged to busy, not yet to a
  // thread) is bounded by one scheduling period plus the largest compute
  // chunk a body can hold a core event off with. On a heterogeneous
  // machine a chunk occupies up to 1/min_capacity of its work in
  // wall-clock, so the chunk term stretches accordingly.
  double min_capacity = 1.0;
  for (const double c : run.spec.params.core_capacities) {
    min_capacity = std::min(min_capacity, c);
  }
  const SimDuration in_flight_bound =
      static_cast<SimDuration>(run.spec.cores) *
      (run.spec.params.sched_latency +
       static_cast<SimDuration>(static_cast<double>(Millis(10)) /
                                min_capacity));
  if (run.total_busy - sum > in_flight_bound) {
    report.Add("conservation: " + std::to_string(run.total_busy - sum) +
               "ns of busy time unaccounted to any thread (bound " +
               std::to_string(in_flight_bound) + "ns)");
  }
}

void CheckVruntimeMonotonicity(const RunResult& run, CheckReport& report) {
  // Threads moved between cgroups have their vruntime renormalized into the
  // destination frame, which may legitimately decrease it.
  std::vector<bool> moved(run.spec.threads.size(), false);
  for (const MutationSpec& m : run.spec.mutations) {
    if (m.kind == MutationKind::kMoveToCgroup && m.thread >= 0) {
      moved[static_cast<std::size_t>(m.thread)] = true;
    }
  }
  const ProbeSample* prev = nullptr;
  for (const ProbeSample& sample : run.probes) {
    if (prev != nullptr) {
      for (std::size_t g = 0; g < sample.group_min_vruntime.size(); ++g) {
        if (sample.group_min_vruntime[g] < prev->group_min_vruntime[g]) {
          report.Add("runqueue " + std::to_string(g) +
                     ": min_vruntime decreased between t=" +
                     std::to_string(prev->at) + "ns and t=" +
                     std::to_string(sample.at) + "ns");
        }
      }
      for (std::size_t t = 0; t < sample.thread_vruntime.size(); ++t) {
        if (!moved[t] && sample.thread_vruntime[t] < prev->thread_vruntime[t]) {
          report.Add("thread " + std::to_string(t) +
                     ": vruntime decreased between t=" +
                     std::to_string(prev->at) + "ns and t=" +
                     std::to_string(sample.at) + "ns");
        }
      }
    }
    prev = &sample;
  }
}

void CheckWorkConservation(const RunResult& run, CheckReport& report) {
  for (const ProbeSample& sample : run.probes) {
    if (sample.idle_cores > 0 && sample.unthrottled_runnable > 0) {
      report.Add("work conservation: " + std::to_string(sample.idle_cores) +
                 " idle core(s) while " +
                 std::to_string(sample.unthrottled_runnable) +
                 " thread(s) runnable at t=" + std::to_string(sample.at) +
                 "ns");
    }
  }
}

void CheckTimesliceBounds(const RunResult& run, CheckReport& report) {
  if (!run.spec.PureBusyContested()) return;
  // A complete involuntary slice (dispatch -> preempt) is exactly SliceFor
  // at dispatch time, which is clamped to [min_granularity, sched_latency].
  // Skip the start-up transient where creation-order wakeups still ripple.
  const SimTime warmup = Millis(100);
  constexpr SimDuration kEps = Micros(1);
  std::vector<SimTime> dispatched_at(run.spec.threads.size(), -1);
  for (const sim::TransitionRecord& rec : run.trace) {
    if (rec.kind == sim::SchedTransition::kDispatch) {
      dispatched_at[rec.tid] = rec.at;
      continue;
    }
    if (rec.kind != sim::SchedTransition::kPreempt) {
      dispatched_at[rec.tid] = -1;
      continue;
    }
    const SimTime start = dispatched_at[rec.tid];
    dispatched_at[rec.tid] = -1;
    if (start < warmup) continue;
    const SimDuration slice = rec.at - start;
    if (slice < run.spec.params.min_granularity - kEps ||
        slice > run.spec.params.sched_latency + kEps) {
      report.Add("timeslice: thread " + std::to_string(rec.tid) + " ran " +
                 std::to_string(slice) + "ns before preemption (bounds [" +
                 std::to_string(run.spec.params.min_granularity) + ", " +
                 std::to_string(run.spec.params.sched_latency) + "]ns)");
    }
  }
}

// SCHED_DEADLINE admission control must never over-commit the machine: at
// every probe the summed utilization of admitted reservations stays within
// dl_admission_frac * total capacity, including across mid-run admissions
// and releases.
void CheckDlAdmission(const RunResult& run, CheckReport& report) {
  for (const ProbeSample& sample : run.probes) {
    if (sample.dl_admitted_util > sample.dl_util_bound + 1e-9) {
      report.Add("dl admission: admitted utilization " +
                 std::to_string(sample.dl_admitted_util) + " exceeds bound " +
                 std::to_string(sample.dl_util_bound) + " at t=" +
                 std::to_string(sample.at) + "ns");
    }
  }
}

// Capacity-aware migration must not strand a long-running CFS task on a
// little core while a strictly bigger core idles. A misfit can only arise
// at a compute-chunk boundary (remaining work only shrinks mid-chunk), and
// both chunk starts (TryMisfitUpgrade) and idle transitions
// (TryMisfitSteal) re-place it, so a misfit should never survive to the
// next probe; requiring two consecutive nonzero probes additionally
// forgives any same-timestamp event-ordering transient.
void CheckMisfitMigration(const RunResult& run, CheckReport& report) {
  if (!run.spec.Heterogeneous() || !run.spec.params.capacity_aware) return;
  const ProbeSample* prev = nullptr;
  for (const ProbeSample& sample : run.probes) {
    if (prev != nullptr && prev->misfit_runners > 0 &&
        sample.misfit_runners > 0) {
      report.Add("misfit: " + std::to_string(sample.misfit_runners) +
                 " CFS runner(s) stuck on a little core with a bigger core " +
                 "idle from t=" + std::to_string(prev->at) + "ns through t=" +
                 std::to_string(sample.at) + "ns");
    }
    prev = &sample;
  }
}

// --- hierarchical water-filling (expected fair allocation) -------------------

struct FairNode {
  std::uint64_t weight = 0;
  double cap = 0;  // max CPU seconds the subtree can consume
  bool is_thread = false;
  std::size_t thread_index = 0;
  std::vector<int> children;  // indices into the node vector
};

void AssignFair(std::vector<FairNode>& nodes, int node, double offered,
                std::vector<double>& out) {
  FairNode& n = nodes[static_cast<std::size_t>(node)];
  if (n.is_thread) {
    out[n.thread_index] = std::min(offered, n.cap);
    return;
  }
  std::vector<int> active = n.children;
  double remaining = std::min(offered, n.cap);
  while (!active.empty()) {
    double total_weight = 0;
    for (const int c : active) {
      total_weight += static_cast<double>(nodes[static_cast<std::size_t>(c)].weight);
    }
    if (total_weight <= 0) break;
    // Children whose subtree saturates below their weighted share consume
    // their cap; the freed capacity redistributes to the rest.
    std::vector<int> saturated;
    for (const int c : active) {
      const FairNode& child = nodes[static_cast<std::size_t>(c)];
      const double alloc =
          remaining * static_cast<double>(child.weight) / total_weight;
      if (child.cap < alloc * (1.0 - 1e-12)) saturated.push_back(c);
    }
    if (saturated.empty()) {
      for (const int c : active) {
        const FairNode& child = nodes[static_cast<std::size_t>(c)];
        AssignFair(nodes, c,
                   remaining * static_cast<double>(child.weight) / total_weight,
                   out);
      }
      return;
    }
    for (const int c : saturated) {
      FairNode& child = nodes[static_cast<std::size_t>(c)];
      AssignFair(nodes, c, child.cap, out);
      remaining -= child.cap;
      active.erase(std::find(active.begin(), active.end(), c));
    }
  }
}

}  // namespace

std::vector<double> ExpectedFairSeconds(const ScenarioSpec& spec) {
  const double window = ToSeconds(spec.duration);
  // Node 0 is the machine root; groups follow in spec order, then threads.
  std::vector<FairNode> nodes(1 + spec.groups.size() + spec.threads.size());
  for (std::size_t g = 0; g < spec.groups.size(); ++g) {
    const int node = static_cast<int>(1 + g);
    nodes[static_cast<std::size_t>(node)].weight =
        sim::ClampShares(spec.groups[g].shares);
    const int parent = spec.groups[g].parent < 0 ? 0 : 1 + spec.groups[g].parent;
    nodes[static_cast<std::size_t>(parent)].children.push_back(node);
  }
  for (std::size_t t = 0; t < spec.threads.size(); ++t) {
    const int node = static_cast<int>(1 + spec.groups.size() + t);
    FairNode& n = nodes[static_cast<std::size_t>(node)];
    n.is_thread = true;
    n.thread_index = t;
    n.weight = sim::NiceToWeight(spec.threads[t].nice);
    n.cap = window;  // a thread can hold at most one core
    const int parent = spec.threads[t].group < 0 ? 0 : 1 + spec.threads[t].group;
    nodes[static_cast<std::size_t>(parent)].children.push_back(node);
  }
  // Subtree caps bottom-up: children were appended after their parents, so a
  // reverse index walk sees every child before its parent.
  for (std::size_t i = nodes.size(); i-- > 0;) {
    if (nodes[i].is_thread) continue;
    double cap = 0;
    for (const int c : nodes[i].children) {
      cap += nodes[static_cast<std::size_t>(c)].cap;
    }
    nodes[i].cap = cap;
  }
  std::vector<double> expected(spec.threads.size(), 0.0);
  AssignFair(nodes, 0, static_cast<double>(spec.cores) * window, expected);
  return expected;
}

namespace {

void CheckWeightedFairness(const RunResult& run, CheckReport& report) {
  if (!run.spec.FairnessEligible()) return;
  const std::vector<double> expected = ExpectedFairSeconds(run.spec);
  for (std::size_t t = 0; t < run.stats.size(); ++t) {
    const double actual = ToSeconds(run.stats[t].cpu_time);
    const double tolerance = std::max(0.15 * expected[t], 0.06);
    if (std::abs(actual - expected[t]) > tolerance) {
      report.Add("fairness: thread " + std::to_string(t) + " got " +
                 std::to_string(actual) + "s of CPU, expected " +
                 std::to_string(expected[t]) + "s (tolerance " +
                 std::to_string(tolerance) + "s)");
    }
  }
}

}  // namespace

CheckReport CheckInvariants(const RunResult& run) {
  CheckReport report;
  CheckTransitions(run, report);
  CheckConservation(run, report);
  CheckVruntimeMonotonicity(run, report);
  CheckWorkConservation(run, report);
  CheckTimesliceBounds(run, report);
  CheckDlAdmission(run, report);
  CheckMisfitMigration(run, report);
  CheckWeightedFairness(run, report);
  return report;
}

CheckReport CheckScenario(const ScenarioSpec& spec) {
  return CheckInvariants(RunScenario(spec));
}

// --- metamorphic properties --------------------------------------------------

namespace {

// CPU fraction per thread, or empty when nothing ran.
std::vector<double> CpuFractions(const RunResult& run) {
  double total = 0;
  for (const sim::ThreadStats& s : run.stats) total += ToSeconds(s.cpu_time);
  if (total <= 0) return {};
  std::vector<double> fractions;
  fractions.reserve(run.stats.size());
  for (const sim::ThreadStats& s : run.stats) {
    fractions.push_back(ToSeconds(s.cpu_time) / total);
  }
  return fractions;
}

void CompareFractions(const std::vector<double>& base,
                      const std::vector<double>& variant,
                      const std::string& property, CheckReport& report) {
  if (base.size() != variant.size() || base.empty()) {
    report.Add(property + ": variant run produced no comparable CPU fractions");
    return;
  }
  for (std::size_t t = 0; t < base.size(); ++t) {
    const double tolerance = std::max(0.15 * base[t], 0.02);
    if (std::abs(base[t] - variant[t]) > tolerance) {
      report.Add(property + ": thread " + std::to_string(t) +
                 " CPU fraction moved from " + std::to_string(base[t]) +
                 " to " + std::to_string(variant[t]) + " (tolerance " +
                 std::to_string(tolerance) + ")");
    }
  }
}

}  // namespace

CheckReport CheckMetamorphic(const ScenarioSpec& spec) {
  CheckReport report;
  if (!spec.FairnessEligible()) return report;
  const std::vector<double> base = CpuFractions(RunScenario(spec));

  bool nice_shiftable = spec.HomogeneousSiblings();
  for (const ThreadSpec& t : spec.threads) {
    if (t.nice >= sim::kMaxNice) nice_shiftable = false;
  }
  if (nice_shiftable) {
    ScenarioSpec shifted = spec;
    for (ThreadSpec& t : shifted.threads) ++t.nice;
    CompareFractions(base, CpuFractions(RunScenario(shifted)),
                     "metamorphic nice+1", report);
  }

  bool shares_scalable = spec.SharesScaleInvariant();
  for (const CgroupSpec& g : spec.groups) {
    if (g.shares * 4 > sim::kMaxShares) shares_scalable = false;
  }
  if (shares_scalable) {
    ScenarioSpec scaled = spec;
    for (CgroupSpec& g : scaled.groups) g.shares *= 4;
    CompareFractions(base, CpuFractions(RunScenario(scaled)),
                     "metamorphic shares x4", report);
  }
  return report;
}

// --- failure minimization ----------------------------------------------------

namespace {

ScenarioSpec RemoveMutation(const ScenarioSpec& spec, std::size_t idx) {
  ScenarioSpec out = spec;
  out.mutations.erase(out.mutations.begin() + static_cast<std::ptrdiff_t>(idx));
  return out;
}

ScenarioSpec RemoveThread(const ScenarioSpec& spec, int idx) {
  ScenarioSpec out = spec;
  out.threads.erase(out.threads.begin() + idx);
  std::vector<MutationSpec> kept;
  for (MutationSpec m : out.mutations) {
    if (m.kind == MutationKind::kSetNice ||
        m.kind == MutationKind::kMoveToCgroup) {
      if (m.thread == idx) continue;
      if (m.thread > idx) --m.thread;
    }
    kept.push_back(m);
  }
  out.mutations = std::move(kept);
  return out;
}

// Removes group `idx` if nothing references it (no child group, no thread,
// no mutation); returns false when it is still referenced.
bool TryRemoveGroup(const ScenarioSpec& spec, int idx, ScenarioSpec& out) {
  for (const CgroupSpec& g : spec.groups) {
    if (g.parent == idx) return false;
  }
  for (const ThreadSpec& t : spec.threads) {
    if (t.group == idx) return false;
  }
  for (const MutationSpec& m : spec.mutations) {
    if (m.group == idx) return false;
  }
  out = spec;
  out.groups.erase(out.groups.begin() + idx);
  for (CgroupSpec& g : out.groups) {
    if (g.parent > idx) --g.parent;
  }
  for (ThreadSpec& t : out.threads) {
    if (t.group > idx) --t.group;
  }
  for (MutationSpec& m : out.mutations) {
    if (m.group > idx) --m.group;
  }
  return true;
}

}  // namespace

ScenarioSpec MinimizeFailure(const ScenarioSpec& spec) {
  const auto fails = [](const ScenarioSpec& s) {
    return !CheckScenario(s).ok();
  };
  if (!fails(spec)) return spec;
  ScenarioSpec best = spec;
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t i = best.mutations.size(); i-- > 0;) {
      const ScenarioSpec candidate = RemoveMutation(best, i);
      if (fails(candidate)) {
        best = candidate;
        progress = true;
      }
    }
    for (int i = static_cast<int>(best.threads.size()); i-- > 0;) {
      if (best.threads.size() <= 1) break;
      const ScenarioSpec candidate = RemoveThread(best, i);
      if (fails(candidate)) {
        best = candidate;
        progress = true;
      }
    }
    for (int i = static_cast<int>(best.groups.size()); i-- > 0;) {
      ScenarioSpec candidate;
      if (TryRemoveGroup(best, i, candidate) && fails(candidate)) {
        best = candidate;
        progress = true;
      }
    }
    if (best.duration >= Millis(200)) {
      ScenarioSpec candidate = best;
      candidate.duration /= 2;
      if (fails(candidate)) {
        best = candidate;
        progress = true;
      }
    }
  }
  return best;
}

}  // namespace lachesis::conformance
