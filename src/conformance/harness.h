// Scheduler conformance harness: runs a ScenarioSpec on the discrete-event
// CFS machine while recording everything the invariant checkers need.
//
// RunScenario executes the scenario and collects (a) the full scheduler
// transition trace, (b) periodic probe samples of per-runqueue min_vruntime,
// per-thread vruntime and core/runqueue occupancy, and (c) the final
// per-thread statistics. CheckInvariants evaluates the checkers described in
// DESIGN.md over that record; CheckScenario is the run+check convenience;
// CheckMetamorphic re-runs transformed variants (global +1 nice, shares x k)
// and compares long-run CPU distributions. MinimizeFailure greedily shrinks
// a failing spec so persisted corpus entries stay readable.
#ifndef LACHESIS_CONFORMANCE_HARNESS_H_
#define LACHESIS_CONFORMANCE_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "conformance/scenario.h"
#include "sim/machine.h"
#include "sim/transition_log.h"

namespace lachesis::conformance {

// One periodic snapshot of scheduler state (every duration/200).
struct ProbeSample {
  SimTime at = 0;
  std::vector<double> group_min_vruntime;  // indexed by cgroup id
  std::vector<double> thread_vruntime;     // indexed by thread id
  int idle_cores = 0;
  int unthrottled_runnable = 0;
  // SCHED_DEADLINE admission state: summed admitted utilization must never
  // exceed the bound (dl_admission_frac * total capacity).
  double dl_admitted_util = 0.0;
  double dl_util_bound = 0.0;
  // Running CFS threads stuck on a too-small core while a strictly bigger
  // core idles; capacity-aware migration must clear these promptly.
  int misfit_runners = 0;
};

struct RunResult {
  ScenarioSpec spec;
  std::vector<sim::ThreadStats> stats;
  std::vector<sim::ThreadState> final_states;
  std::vector<sim::TransitionRecord> trace;
  std::vector<ProbeSample> probes;
  SimDuration total_busy = 0;
};

RunResult RunScenario(const ScenarioSpec& spec);

struct CheckReport {
  std::vector<std::string> violations;
  [[nodiscard]] bool ok() const { return violations.empty(); }
  [[nodiscard]] std::string Summary() const;
  void Add(std::string violation) { violations.push_back(std::move(violation)); }
};

// All invariant checkers over one finished run. Checkers that need workload
// restrictions (fairness, timeslice bounds) gate themselves on the spec's
// eligibility flags.
CheckReport CheckInvariants(const RunResult& run);

// RunScenario + CheckInvariants.
CheckReport CheckScenario(const ScenarioSpec& spec);

// Metamorphic properties (empty report when the spec is not eligible):
//  - adding +1 nice to every thread preserves CPU fractions (the nice table
//    is ~geometric, so ratios shift by at most a few percent per step);
//  - scaling every group's shares by k preserves CPU fractions exactly in
//    expectation (weights are relative).
CheckReport CheckMetamorphic(const ScenarioSpec& spec);

// Expected per-thread CPU seconds for a fairness-eligible spec, from the
// hierarchical water-filling model (weighted max-min with a one-core cap
// per thread). Exposed for tests.
std::vector<double> ExpectedFairSeconds(const ScenarioSpec& spec);

// Greedily removes mutations, threads and groups (and halves the duration)
// while CheckScenario keeps failing. Returns the smallest failing spec
// found; returns `spec` unchanged if it does not fail.
ScenarioSpec MinimizeFailure(const ScenarioSpec& spec);

}  // namespace lachesis::conformance

#endif  // LACHESIS_CONFORMANCE_HARNESS_H_
