// Fault-tolerance machinery: deterministic fault injection, the
// backoff/circuit-breaker state machine, the runner's capability
// degradation ladder, and crash-safe restart reconciliation.
#include "core/fault.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/op_health.h"
#include "core/policies.h"
#include "core/runner.h"
#include "core/schedule_delta.h"
#include "core/sim_executor.h"
#include "core/translators.h"
#include "obs/recorder.h"
#include "sim/simulator.h"
#include "tests/fake_driver.h"

namespace lachesis::core {
namespace {

using testing::FakeDriver;
using testing::RecordingOsAdapter;

ThreadHandle Thread(std::uint64_t tid) {
  ThreadHandle t;
  t.sim_tid = ThreadId(tid);
  return t;
}

HealthConfig FastHealth() {
  HealthConfig config;
  config.enabled = true;
  config.backoff_base = Millis(500);
  config.breaker_threshold = 3;
  config.probe_interval = Seconds(2);
  config.jitter_frac = 0.0;  // exact delays for assertions
  return config;
}

// ---------------------------------------------------------------------------
// FaultChance / fault plan

TEST(FaultChanceTest, DeterministicAndEdgeCases) {
  EXPECT_EQ(FaultChance(1, 42, 0.5), FaultChance(1, 42, 0.5));
  EXPECT_TRUE(FaultChance(1, 42, 1.0));
  EXPECT_FALSE(FaultChance(1, 42, 0.0));
  int hits = 0;
  for (std::uint64_t salt = 0; salt < 10000; ++salt) {
    if (FaultChance(7, salt, 0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(FaultPlanTest, QuietAfterFindsTheLastWindow) {
  FaultPlan plan;
  OsFaultRule rule;
  rule.from = Seconds(10);
  rule.until = Seconds(20);
  plan.os_rules.push_back(rule);
  DriverFaultRule driver_rule;
  driver_rule.kind = DriverFaultRule::Kind::kNanMetric;
  driver_rule.from = Seconds(5);
  driver_rule.until = Seconds(30);
  plan.driver_rules.push_back(driver_rule);
  EXPECT_FALSE(plan.QuietAfter(Seconds(15)));
  EXPECT_FALSE(plan.QuietAfter(Seconds(25)));
  EXPECT_TRUE(plan.QuietAfter(Seconds(30)));
}

// ---------------------------------------------------------------------------
// FaultInjectingOsAdapter

class ManualClock final : public Clock {
 public:
  [[nodiscard]] SimTime Now() const override { return now; }
  SimTime now = 0;
};

TEST(FaultInjectingOsAdapterTest, InjectsWithSeverityInsideWindowOnly) {
  RecordingOsAdapter real;
  ManualClock clock;
  FaultPlan plan;
  OsFaultRule rule;
  rule.op = OpClass::kSetNice;
  rule.kind = FaultKind::kEperm;
  rule.from = Seconds(10);
  rule.until = Seconds(20);
  plan.os_rules.push_back(rule);
  FaultInjectingOsAdapter os(real, clock, plan);

  clock.now = Seconds(5);  // before the window: passes through
  os.SetNice(Thread(0), 5);
  EXPECT_EQ(real.nices.at(0), 5);

  clock.now = Seconds(15);  // inside: every SetNice faults with EPERM
  try {
    os.SetNice(Thread(0), -3);
    FAIL() << "expected injected EPERM";
  } catch (const OsOperationError& e) {
    EXPECT_EQ(e.severity(), ErrorSeverity::kPermanent);
    EXPECT_EQ(e.err(), EPERM);
  }
  EXPECT_EQ(real.nices.at(0), 5);  // the real backend was not reached
  // Other op classes are unaffected by a kSetNice rule.
  os.SetGroupShares("g", 1024);
  EXPECT_EQ(real.group_shares.at("g"), 1024u);

  clock.now = Seconds(20);  // window is half-open: [from, until)
  os.SetNice(Thread(0), -3);
  EXPECT_EQ(real.nices.at(0), -3);
  EXPECT_EQ(os.injected(FaultKind::kEperm), 1u);
}

TEST(FaultInjectingOsAdapterTest, SlowCallsAreChargedNotDropped) {
  RecordingOsAdapter real;
  ManualClock clock;
  FaultPlan plan;
  OsFaultRule rule;
  rule.kind = FaultKind::kSlowCall;
  rule.slow_latency = Millis(7);
  plan.os_rules.push_back(rule);
  FaultInjectingOsAdapter os(real, clock, plan);
  os.SetNice(Thread(0), 1);
  os.SetGroupShares("g", 512);
  EXPECT_EQ(real.nices.at(0), 1);
  EXPECT_EQ(real.group_shares.at("g"), 512u);
  EXPECT_EQ(os.injected_latency(), 2 * Millis(7));
}

TEST(FaultInjectingOsAdapterTest, TargetSubstrFiltersInjection) {
  RecordingOsAdapter real;
  ManualClock clock;
  FaultPlan plan;
  OsFaultRule rule;
  rule.op = OpClass::kSetGroupShares;
  rule.kind = FaultKind::kEbusy;
  rule.target_substr = "bad";
  plan.os_rules.push_back(rule);
  FaultInjectingOsAdapter os(real, clock, plan);
  os.SetGroupShares("good-group", 100);
  EXPECT_THROW(os.SetGroupShares("bad-group", 100), OsOperationError);
  EXPECT_EQ(real.group_shares.count("good-group"), 1u);
  EXPECT_EQ(real.group_shares.count("bad-group"), 0u);
}

// ---------------------------------------------------------------------------
// FaultInjectingDriver

TEST(FaultInjectingDriverTest, VanishNanAndStaleMetrics) {
  FakeDriver inner;
  const EntityInfo a = inner.AddEntity(QueryId(0), {0});
  inner.Provide(MetricId::kQueueSize);
  inner.SetValue(MetricId::kQueueSize, a.id, 17.0);

  FaultPlan plan;
  DriverFaultRule nan_rule;
  nan_rule.kind = DriverFaultRule::Kind::kNanMetric;
  nan_rule.from = Seconds(10);
  nan_rule.until = Seconds(20);
  plan.driver_rules.push_back(nan_rule);
  DriverFaultRule stale_rule;
  stale_rule.kind = DriverFaultRule::Kind::kStaleMetric;
  stale_rule.from = Seconds(30);
  stale_rule.until = Seconds(40);
  plan.driver_rules.push_back(stale_rule);
  DriverFaultRule vanish_rule;
  vanish_rule.kind = DriverFaultRule::Kind::kVanishEntity;
  vanish_rule.from = Seconds(50);
  vanish_rule.until = Seconds(60);
  plan.driver_rules.push_back(vanish_rule);

  FaultInjectingDriver driver(inner, plan);
  driver.Poll(Seconds(5));
  EXPECT_EQ(driver.Entities().size(), 1u);
  EXPECT_EQ(driver.Fetch(MetricId::kQueueSize, a), 17.0);

  driver.Poll(Seconds(15));
  EXPECT_TRUE(std::isnan(driver.Fetch(MetricId::kQueueSize, a)));
  EXPECT_GE(driver.nan_injected(), 1u);

  inner.SetValue(MetricId::kQueueSize, a.id, 99.0);
  driver.Poll(Seconds(35));
  // Stale: the last genuine value (17) is served, not the fresh 99.
  EXPECT_EQ(driver.Fetch(MetricId::kQueueSize, a), 17.0);
  EXPECT_GE(driver.stale_served(), 1u);

  driver.Poll(Seconds(55));
  EXPECT_TRUE(driver.Entities().empty());
  EXPECT_GE(driver.entities_vanished(), 1u);

  driver.Poll(Seconds(65));  // all windows closed: back to normal
  EXPECT_EQ(driver.Entities().size(), 1u);
  EXPECT_EQ(driver.Fetch(MetricId::kQueueSize, a), 99.0);
}

// ---------------------------------------------------------------------------
// OpHealthTracker

TEST(OpHealthTest, ValidateRejectsBadConfigs) {
  HealthConfig bad = FastHealth();
  bad.backoff_base = 0;
  EXPECT_THROW(bad.Validate(), std::invalid_argument);
  bad = FastHealth();
  bad.backoff_cap = Millis(100);  // < base
  EXPECT_THROW(bad.Validate(), std::invalid_argument);
  bad = FastHealth();
  bad.jitter_frac = 1.5;
  EXPECT_THROW(bad.Validate(), std::invalid_argument);
  bad = FastHealth();
  bad.breaker_threshold = 0;
  EXPECT_THROW(bad.Validate(), std::invalid_argument);
  bad = FastHealth();
  bad.probe_interval = 0;
  EXPECT_THROW(bad.Validate(), std::invalid_argument);
  EXPECT_NO_THROW(FastHealth().Validate());
}

TEST(OpHealthTest, BackoffDoublesAndIsDeterministic) {
  OpHealthTracker a(FastHealth());
  OpHealthTracker b(FastHealth());
  SimTime prev_delay = 0;
  SimTime now = 0;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(a.AllowAttempt(OpClass::kSetNice, "t:0/0", now));
    a.RecordFailure(OpClass::kSetNice, "t:0/0", now, ErrorSeverity::kVanished);
    b.RecordFailure(OpClass::kSetNice, "t:0/0", now, ErrorSeverity::kVanished);
    const SimTime delay = a.target_next_retry(OpClass::kSetNice, "t:0/0") - now;
    EXPECT_EQ(delay, b.target_next_retry(OpClass::kSetNice, "t:0/0") - now);
    if (prev_delay > 0) {
      EXPECT_EQ(delay, 2 * prev_delay);
    }
    EXPECT_FALSE(a.AllowAttempt(OpClass::kSetNice, "t:0/0", now));
    now = a.target_next_retry(OpClass::kSetNice, "t:0/0");
    prev_delay = delay;
  }
}

TEST(OpHealthTest, PermanentFailuresDeepenBackoffTwiceAsFast) {
  OpHealthTracker tracker(FastHealth());
  tracker.RecordFailure(OpClass::kSetNice, "x", 0, ErrorSeverity::kPermanent);
  EXPECT_EQ(tracker.target_failures(OpClass::kSetNice, "x"), 2);
  tracker.RecordFailure(OpClass::kSetNice, "y", 0, ErrorSeverity::kTransient);
  EXPECT_EQ(tracker.target_failures(OpClass::kSetNice, "y"), 1);
  EXPECT_GT(tracker.target_next_retry(OpClass::kSetNice, "x"),
            tracker.target_next_retry(OpClass::kSetNice, "y"));
}

TEST(OpHealthTest, BreakerOpensProbesAndCloses) {
  OpHealthTracker tracker(FastHealth());  // threshold 3, probe 2s
  // Distinct targets so per-target backoff does not mask the class gate.
  for (int i = 0; i < 3; ++i) {
    const std::string target = "t" + std::to_string(i);
    ASSERT_TRUE(tracker.AllowAttempt(OpClass::kSetGroupShares, target, 0));
    tracker.RecordFailure(OpClass::kSetGroupShares, target, 0,
                          ErrorSeverity::kTransient);
  }
  EXPECT_EQ(tracker.class_state(OpClass::kSetGroupShares), BreakerState::kOpen);
  EXPECT_EQ(tracker.open_breakers(), 1);
  EXPECT_EQ(tracker.breaker_opens(OpClass::kSetGroupShares), 1u);
  // Open: everything suppressed before the probe time, even new targets.
  EXPECT_FALSE(tracker.AllowAttempt(OpClass::kSetGroupShares, "fresh", Seconds(1)));
  EXPECT_FALSE(tracker.ProbeDue(OpClass::kSetGroupShares, Seconds(1)));

  // Probe due: exactly one attempt is let through (the probe).
  EXPECT_TRUE(tracker.ProbeDue(OpClass::kSetGroupShares, Seconds(2)));
  EXPECT_TRUE(tracker.AllowAttempt(OpClass::kSetGroupShares, "t0", Seconds(2)));
  EXPECT_EQ(tracker.class_state(OpClass::kSetGroupShares),
            BreakerState::kHalfOpen);
  EXPECT_FALSE(tracker.AllowAttempt(OpClass::kSetGroupShares, "t1", Seconds(2)));

  // Failed probe: reopens with a doubled interval.
  tracker.RecordFailure(OpClass::kSetGroupShares, "t0", Seconds(2),
                        ErrorSeverity::kTransient);
  EXPECT_EQ(tracker.class_state(OpClass::kSetGroupShares), BreakerState::kOpen);
  EXPECT_FALSE(tracker.ProbeDue(OpClass::kSetGroupShares, Seconds(4)));
  EXPECT_TRUE(tracker.ProbeDue(OpClass::kSetGroupShares, Seconds(6)));

  // Successful probe: closes AND clears the class's per-target backoff.
  ASSERT_TRUE(tracker.AllowAttempt(OpClass::kSetGroupShares, "t1", Seconds(6)));
  tracker.RecordSuccess(OpClass::kSetGroupShares, "t1", Seconds(6));
  EXPECT_EQ(tracker.class_state(OpClass::kSetGroupShares),
            BreakerState::kClosed);
  EXPECT_EQ(tracker.open_breakers(), 0);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(tracker.AllowAttempt(OpClass::kSetGroupShares,
                                     "t" + std::to_string(i), Seconds(6)));
  }
}

TEST(OpHealthTest, VanishedErrorsNeverOpenTheBreaker) {
  OpHealthTracker tracker(FastHealth());
  for (int i = 0; i < 20; ++i) {
    tracker.RecordFailure(OpClass::kSetNice, "t" + std::to_string(i), 0,
                          ErrorSeverity::kVanished);
  }
  EXPECT_EQ(tracker.class_state(OpClass::kSetNice), BreakerState::kClosed);
}

TEST(OpHealthTest, ForgetTargetDropsStateAcrossClasses) {
  OpHealthTracker tracker(FastHealth());
  tracker.RecordFailure(OpClass::kSetNice, "t:1/0", 0,
                        ErrorSeverity::kTransient);
  tracker.RecordFailure(OpClass::kMoveToGroup, "t:1/0", 0,
                        ErrorSeverity::kTransient);
  EXPECT_EQ(tracker.tracked_targets(), 2u);
  tracker.ForgetTarget("t:1/0");
  EXPECT_EQ(tracker.tracked_targets(), 0u);
  EXPECT_TRUE(tracker.AllowAttempt(OpClass::kSetNice, "t:1/0", 0));
}

// ---------------------------------------------------------------------------
// Delta layer + health integration

// Backend where chosen op classes fail until told otherwise.
class BreakableOsAdapter final : public OsAdapter {
 public:
  void SetNice(const ThreadHandle& thread, int nice) override {
    ++nice_calls;
    if (nice_broken) {
      throw OsOperationError("EPERM", ErrorSeverity::kPermanent, EPERM);
    }
    nices[thread.sim_tid.value()] = nice;
  }
  void SetGroupShares(const std::string& group, std::uint64_t shares) override {
    ++shares_calls;
    if (shares_broken) {
      throw OsOperationError("EPERM", ErrorSeverity::kPermanent, EPERM);
    }
    group_shares[group] = shares;
  }
  void MoveToGroup(const ThreadHandle& thread,
                   const std::string& group) override {
    ++move_calls;
    if (shares_broken) {
      throw OsOperationError("EPERM", ErrorSeverity::kPermanent, EPERM);
    }
    thread_group[thread.sim_tid.value()] = group;
  }
  void SetRtPriority(const ThreadHandle& thread, int rt_priority) override {
    ++rt_calls;
    if (rt_broken) {
      throw OsOperationError("EPERM", ErrorSeverity::kPermanent, EPERM);
    }
    rt[thread.sim_tid.value()] = rt_priority;
  }

  bool nice_broken = false;
  bool shares_broken = false;
  bool rt_broken = false;
  int nice_calls = 0;
  int shares_calls = 0;
  int move_calls = 0;
  int rt_calls = 0;
  std::map<std::uint64_t, int> nices;
  std::map<std::string, std::uint64_t> group_shares;
  std::map<std::uint64_t, std::string> thread_group;
  std::map<std::uint64_t, int> rt;
};

TEST(DeltaHealthTest, SuppressedAttemptsAreCountedSeparately) {
  BreakableOsAdapter os;
  os.nice_broken = true;
  ScheduleDeltaAdapter delta(os);
  delta.SetHealthConfig(FastHealth());

  delta.BeginTick(0);
  delta.SetNice(Thread(0), 5);  // attempt 1: fails
  EXPECT_EQ(delta.tick_stats().errors, 1u);
  delta.SetNice(Thread(0), 5);  // still backing off: suppressed, no call
  EXPECT_EQ(delta.tick_stats().suppressed, 1u);
  EXPECT_EQ(os.nice_calls, 1);
}

TEST(DeltaHealthTest, PermanentlyFailingOpRetriesAreLogarithmic) {
  // The acceptance bound: a single op that fails forever must cost
  // O(log T) backend calls over T ticks, not O(T). Interleaved successes
  // on another thread keep the class breaker closed, so the bound comes
  // from per-target exponential backoff alone.
  BreakableOsAdapter os;
  ScheduleDeltaAdapter delta(os);
  delta.SetHealthConfig(FastHealth());

  const int kTicks = 10000;  // seconds of sim time
  int failing_attempts = 0;
  for (int t = 0; t < kTicks; ++t) {
    delta.BeginTick(Seconds(t));
    const int before = os.nice_calls;
    os.nice_broken = true;
    delta.SetNice(Thread(7), -5);  // always fails
    failing_attempts += os.nice_calls - before;
    os.nice_broken = false;
    delta.SetNice(Thread(1), t % 7);  // healthy traffic, changes every tick
  }
  // base 500ms doubling (x2 per attempt, permanent = 2 steps) reaches the
  // 3600s ceiling in ~12 attempts; the remaining ~10ks of run adds at most
  // 3 ceiling-spaced retries.
  EXPECT_LE(failing_attempts, 2 * 14 + 4);
  EXPECT_GE(failing_attempts, 3);  // it kept retrying, just not blindly
  EXPECT_EQ(delta.health().class_state(OpClass::kSetNice),
            BreakerState::kClosed);
}

TEST(DeltaHealthTest, DeadClassCostsLogarithmicProbes) {
  BreakableOsAdapter os;
  os.shares_broken = true;
  ScheduleDeltaAdapter delta(os);
  delta.SetHealthConfig(FastHealth());

  const int kTicks = 10000;
  for (int t = 0; t < kTicks; ++t) {
    delta.BeginTick(Seconds(t));
    for (int g = 0; g < 4; ++g) {
      delta.SetGroupShares("g" + std::to_string(g), 1000 + t);
    }
  }
  // 3 failures open the breaker; after that only doubling-spaced probes
  // reach the backend. 40k attempted ops must shrink to a few dozen calls.
  EXPECT_EQ(delta.health().class_state(OpClass::kSetGroupShares),
            BreakerState::kOpen);
  EXPECT_LE(os.shares_calls, 40);
  EXPECT_GT(delta.totals().suppressed, 0u);
}

TEST(DeltaHealthTest, RecoveryAfterBreakerReappliesEverything) {
  BreakableOsAdapter os;
  os.shares_broken = true;
  ScheduleDeltaAdapter delta(os);
  delta.SetHealthConfig(FastHealth());

  SimTime now = 0;
  for (int t = 0; t < 5; ++t) {
    now = Seconds(t);
    delta.BeginTick(now);
    delta.SetGroupShares("a", 100);
    delta.SetGroupShares("b", 200);
  }
  ASSERT_EQ(delta.health().class_state(OpClass::kSetGroupShares),
            BreakerState::kOpen);

  os.shares_broken = false;  // fault clears
  // Next probe-due tick: the probe succeeds, closing the breaker and
  // clearing the class's backoff; the tick after that re-applies in full.
  for (int t = 5; t < 12 && os.group_shares.size() < 2; ++t) {
    delta.BeginTick(Seconds(t));
    delta.SetGroupShares("a", 100);
    delta.SetGroupShares("b", 200);
  }
  EXPECT_EQ(os.group_shares.at("a"), 100u);
  EXPECT_EQ(os.group_shares.at("b"), 200u);
  EXPECT_EQ(delta.health().class_state(OpClass::kSetGroupShares),
            BreakerState::kClosed);
}

// ---------------------------------------------------------------------------
// Apply-path equivalence: scripted op sequences through fault injection,
// checked op by op against the delta counters, the tracker's per-target
// backoff, the breakers, and the recorded events resolved by name. The
// delta layer takes a string-free path while a class is quiet and caches
// each target's recorder id in its slot; these sequences pin that every
// transition into and out of that path behaves exactly like the full one.

std::string RenderEvent(const obs::Recorder& recorder, const obs::Event& e) {
  std::string line = obs::EventKindName(e.kind);
  if (e.op_class != obs::kNoOpClass) {
    line += std::string(" ") + OpClassName(static_cast<OpClass>(e.op_class));
  }
  switch (e.kind) {
    case obs::EventKind::kBreakerTransition:
      line += " " + std::to_string(e.i0) + "->" + std::to_string(e.i1);
      break;
    case obs::EventKind::kBackoffArmed:
      line += " " + recorder.Name(e.target) + " x" + std::to_string(e.i0) +
              " @" + std::to_string(e.v0 / Millis(1)) + "ms";
      break;
    case obs::EventKind::kFaultInjected:
      line += " " + recorder.Name(e.target) + " " + recorder.Name(e.detail);
      break;
    default:
      line += " " + recorder.Name(e.target) + " " + std::to_string(e.v0);
      if (e.detail != obs::kNoStr) line += " [" + recorder.Name(e.detail) + "]";
  }
  return line;
}

using Lines = std::vector<std::string>;

// Thread `tid` with os tid 100 + tid: health key "t:<tid>/10<tid>", fault
// target "10<tid>/<tid>".
ThreadHandle Tid(std::uint64_t tid) {
  ThreadHandle t = Thread(tid);
  t.os_tid = static_cast<long>(100 + tid);
  return t;
}

// A health-enabled delta layer (exact delays) over a fault-injecting
// backend, both recording into one verbose recorder.
struct ApplyRig {
  explicit ApplyRig(FaultPlan plan)
      : faults(backend, clock, std::move(plan)) {
    delta.SetHealthConfig(FastHealth());
    recorder.set_verbose(true);
    Use(recorder);
  }

  void Use(obs::Recorder& next) {
    active = &next;
    delta.SetRecorder(&next);
    faults.SetRecorder(&next);
  }
  void At(SimTime now) {
    clock.now = now;
    delta.BeginTick(now);
  }

  // Runs one op. Returns the one DeltaStats counter it moved, then the
  // events it recorded.
  template <typename Fn>
  Lines Op(Fn&& fn) {
    const DeltaStats before = delta.totals();
    const std::uint64_t seq = active->total_recorded();
    fn();
    const DeltaStats& after = delta.totals();
    const std::uint64_t moved[] = {after.applied - before.applied,
                                   after.skipped - before.skipped,
                                   after.errors - before.errors,
                                   after.suppressed - before.suppressed};
    const char* names[] = {"applied", "skipped", "error", "suppressed"};
    Lines out;
    for (int i = 0; i < 4; ++i) {
      if (moved[i] != 0) {
        out.push_back(names[i] + (moved[i] == 1 ? "" : std::string(" x") +
                                                      std::to_string(moved[i])));
      }
    }
    for (const obs::Event& e : active->Snapshot()) {
      if (e.seq >= seq) out.push_back(RenderEvent(*active, e));
    }
    return out;
  }
  Lines Nice(std::uint64_t tid, int nice) {
    return Op([&] { delta.SetNice(Tid(tid), nice); });
  }

  // The tracker's view of (cls, thread): "-" when untracked, else failures
  // and next retry; then the breaker; then whether the class is quiet.
  std::string Health(OpClass cls, std::uint64_t tid) const {
    const OpHealthTracker& h = delta.health();
    const std::string key = ScheduleDeltaAdapter::HealthKeyOf(Tid(tid));
    std::string out =
        h.target_failures(cls, key) == 0
            ? "-"
            : "x" + std::to_string(h.target_failures(cls, key)) + " @" +
                  std::to_string(h.target_next_retry(cls, key) / Millis(1)) +
                  "ms";
    static const char* kStates[] = {"closed", "open", "half-open"};
    out += std::string(" ") + kStates[static_cast<int>(h.class_state(cls))];
    return out + (h.Quiet(cls) ? " quiet" : "");
  }

  RecordingOsAdapter backend;
  ManualClock clock;
  FaultInjectingOsAdapter faults;
  ScheduleDeltaAdapter delta{faults};
  obs::Recorder recorder{4096};
  obs::Recorder* active = nullptr;
};

OsFaultRule NiceFault(FaultKind kind, SimTime from, SimTime until,
                      std::string target_substr = {}) {
  OsFaultRule rule;
  rule.op = OpClass::kSetNice;
  rule.kind = kind;
  rule.from = from;
  rule.until = until;
  rule.target_substr = std::move(target_substr);
  return rule;
}

TEST(ApplyPathTest, TargetBacksOffRecoversAndItsClassTurnsQuietAgain) {
  FaultPlan plan;
  // Thread 2 (fault target "102/2") fails with each severity in turn.
  plan.os_rules = {NiceFault(FaultKind::kEperm, Seconds(1), Seconds(2), "102/2"),
                   NiceFault(FaultKind::kVanish, Seconds(3), Seconds(4), "102/2"),
                   NiceFault(FaultKind::kEbusy, Seconds(5), Millis(5200),
                             "102/2")};
  ApplyRig rig(std::move(plan));
  const OpClass nice = OpClass::kSetNice;

  rig.At(0);
  EXPECT_EQ(rig.Nice(1, 1), (Lines{"applied", "OpApplied SetNice t:1/101 1"}));
  EXPECT_EQ(rig.Nice(2, 1), (Lines{"applied", "OpApplied SetNice t:2/102 1"}));
  EXPECT_EQ(rig.Nice(2, 1), (Lines{"skipped", "OpElided SetNice t:2/102 1"}));
  EXPECT_EQ(rig.Health(nice, 2), "- closed quiet");

  // EPERM: permanent, two backoff steps at once.
  rig.At(Seconds(1));
  EXPECT_EQ(rig.Nice(2, 2),
            (Lines{"error", "FaultInjected SetNice 102/2 eperm",
                   "BackoffArmed SetNice t:2/102 x2 @2000ms",
                   "OpError SetNice t:2/102 2 [injected EPERM: SetNice(102/2)]"}));
  EXPECT_EQ(rig.Health(nice, 2), "x2 @2000ms closed");
  // Another target of the now non-quiet class still goes straight through.
  EXPECT_EQ(rig.Nice(1, 2), (Lines{"applied", "OpApplied SetNice t:1/101 2"}));
  EXPECT_EQ(rig.Health(nice, 1), "- closed");
  rig.At(Millis(1500));
  const int calls = rig.backend.nice_calls;
  EXPECT_EQ(rig.Nice(2, 2),
            (Lines{"suppressed", "OpSuppressed SetNice t:2/102 2"}));
  EXPECT_EQ(rig.backend.nice_calls, calls);
  rig.At(Seconds(2));
  EXPECT_EQ(rig.Nice(2, 2), (Lines{"applied", "OpApplied SetNice t:2/102 2"}));
  EXPECT_EQ(rig.Health(nice, 2), "- closed quiet");
  EXPECT_EQ(rig.backend.nices.at(2), 2);
  EXPECT_EQ(rig.Nice(2, 2), (Lines{"skipped", "OpElided SetNice t:2/102 2"}));

  // ESRCH: the target backs off, the class streak is untouched.
  rig.At(Seconds(3));
  EXPECT_EQ(rig.Nice(2, 3),
            (Lines{"error", "FaultInjected SetNice 102/2 vanish",
                   "BackoffArmed SetNice t:2/102 x1 @3500ms",
                   "OpError SetNice t:2/102 3 [injected vanish: SetNice(102/2)]"}));
  rig.At(Millis(3500));
  EXPECT_EQ(rig.Nice(2, 3),
            (Lines{"error", "FaultInjected SetNice 102/2 vanish",
                   "BackoffArmed SetNice t:2/102 x2 @4500ms",
                   "OpError SetNice t:2/102 3 [injected vanish: SetNice(102/2)]"}));
  rig.At(Seconds(4));
  EXPECT_EQ(rig.Nice(2, 3),
            (Lines{"suppressed", "OpSuppressed SetNice t:2/102 3"}));
  EXPECT_EQ(rig.Health(nice, 2), "x2 @4500ms closed");
  rig.At(Millis(4500));
  EXPECT_EQ(rig.Nice(2, 3), (Lines{"applied", "OpApplied SetNice t:2/102 3"}));
  EXPECT_EQ(rig.Health(nice, 2), "- closed quiet");

  // EBUSY: transient, one step.
  rig.At(Seconds(5));
  EXPECT_EQ(rig.Nice(2, 4),
            (Lines{"error", "FaultInjected SetNice 102/2 ebusy",
                   "BackoffArmed SetNice t:2/102 x1 @5500ms",
                   "OpError SetNice t:2/102 4 [injected EBUSY: SetNice(102/2)]"}));
  rig.At(Millis(5250));
  EXPECT_EQ(rig.Nice(2, 4),
            (Lines{"suppressed", "OpSuppressed SetNice t:2/102 4"}));
  rig.At(Millis(5500));
  EXPECT_EQ(rig.Nice(2, 4), (Lines{"applied", "OpApplied SetNice t:2/102 4"}));
  EXPECT_EQ(rig.Health(nice, 2), "- closed quiet");
  EXPECT_EQ(rig.delta.health().breaker_opens(nice), 0u);
  EXPECT_EQ(rig.delta.health().tracked_targets(), 0u);
}

TEST(ApplyPathTest, OneClassFailsWhileAnotherStaysQuiet) {
  FaultPlan plan;
  OsFaultRule rt;
  rt.op = OpClass::kSetRtPriority;
  rt.kind = FaultKind::kEperm;
  plan.os_rules = {rt};
  ApplyRig rig(std::move(plan));
  const OpClass rt_cls = OpClass::kSetRtPriority;
  const auto boost = [&](std::uint64_t tid, int priority) {
    return rig.Op([&] { rig.delta.SetRtPriority(Tid(tid), priority); });
  };

  rig.At(0);
  EXPECT_EQ(boost(1, 10),
            (Lines{"error", "FaultInjected SetRtPriority 101/1 eperm",
                   "BackoffArmed SetRtPriority t:1/101 x2 @1000ms",
                   "OpError SetRtPriority t:1/101 10 [injected EPERM: "
                   "SetRtPriority(101/1)]"}));
  EXPECT_EQ(rig.Nice(1, 5), (Lines{"applied", "OpApplied SetNice t:1/101 5"}));
  EXPECT_EQ(rig.Health(OpClass::kSetNice, 1), "- closed quiet");
  EXPECT_EQ(rig.Health(rt_cls, 1), "x2 @1000ms closed");
  EXPECT_EQ(boost(2, 10).front(), "error");
  EXPECT_EQ(boost(3, 10),
            (Lines{"error", "FaultInjected SetRtPriority 103/3 eperm",
                   "BackoffArmed SetRtPriority t:3/103 x2 @1000ms",
                   "BreakerTransition SetRtPriority 0->1",
                   "OpError SetRtPriority t:3/103 10 [injected EPERM: "
                   "SetRtPriority(103/3)]"}));
  EXPECT_EQ(rig.Health(rt_cls, 3), "x2 @1000ms open");
  // The nice class never saw a failure: still quiet, still applying.
  EXPECT_EQ(rig.Nice(2, 5), (Lines{"applied", "OpApplied SetNice t:2/102 5"}));
  EXPECT_EQ(rig.Nice(1, 6), (Lines{"applied", "OpApplied SetNice t:1/101 6"}));
  EXPECT_EQ(rig.Health(OpClass::kSetNice, 2), "- closed quiet");
  // Demoting a never-boosted thread is elided however broken the class is.
  EXPECT_EQ(boost(4, 0),
            (Lines{"skipped", "OpElided SetRtPriority t:4/104 0"}));
  EXPECT_EQ(boost(1, 10),
            (Lines{"suppressed", "OpSuppressed SetRtPriority t:1/101 10"}));
  EXPECT_EQ(rig.backend.nices.size(), 2u);
  EXPECT_TRUE(rig.backend.rt_priorities.empty());
}

TEST(ApplyPathTest, BreakerOpensProbesFailsProbesAgainAndCloses) {
  FaultPlan plan;
  plan.os_rules = {NiceFault(FaultKind::kEbusy, Seconds(1), Seconds(4))};
  ApplyRig rig(std::move(plan));
  const OpClass nice = OpClass::kSetNice;

  rig.At(0);
  for (std::uint64_t tid = 1; tid <= 3; ++tid) {
    EXPECT_EQ(rig.Nice(tid, 0).front(), "applied");
  }
  rig.At(Seconds(1));
  EXPECT_EQ(rig.Nice(1, 1).front(), "error");
  EXPECT_EQ(rig.Nice(2, 1).front(), "error");
  EXPECT_EQ(rig.Nice(3, 1),
            (Lines{"error", "FaultInjected SetNice 103/3 ebusy",
                   "BackoffArmed SetNice t:3/103 x1 @1500ms",
                   "BreakerTransition SetNice 0->1",
                   "OpError SetNice t:3/103 1 [injected EBUSY: SetNice(103/3)]"}));
  EXPECT_EQ(rig.Health(nice, 1), "x1 @1500ms open");

  // Open: every op of the class is withheld until the probe is due (3 s).
  rig.At(Seconds(2));
  EXPECT_EQ(rig.Nice(1, 1), (Lines{"suppressed", "OpSuppressed SetNice t:1/101 1"}));
  // The probe fails (the fault lasts until 4 s): reopen, interval doubled.
  rig.At(Seconds(3));
  EXPECT_EQ(rig.Nice(1, 1),
            (Lines{"error", "BreakerTransition SetNice 1->2",
                   "FaultInjected SetNice 101/1 ebusy",
                   "BackoffArmed SetNice t:1/101 x2 @4000ms",
                   "BreakerTransition SetNice 2->1",
                   "OpError SetNice t:1/101 1 [injected EBUSY: SetNice(101/1)]"}));
  EXPECT_EQ(rig.Health(nice, 1), "x2 @4000ms open");
  rig.At(Seconds(5));
  EXPECT_TRUE(!rig.delta.health().ProbeDue(nice, Seconds(5)));
  EXPECT_EQ(rig.Nice(2, 1), (Lines{"suppressed", "OpSuppressed SetNice t:2/102 1"}));
  // Next probe at 3 s + 4 s succeeds: closed, every backoff of the class
  // cleared, and the class is quiet again.
  rig.At(Seconds(7));
  EXPECT_EQ(rig.Nice(2, 1),
            (Lines{"applied", "BreakerTransition SetNice 1->2",
                   "BreakerTransition SetNice 2->0",
                   "OpApplied SetNice t:2/102 1"}));
  EXPECT_EQ(rig.Health(nice, 1), "- closed quiet");
  EXPECT_EQ(rig.Nice(1, 1), (Lines{"applied", "OpApplied SetNice t:1/101 1"}));
  EXPECT_EQ(rig.Nice(3, 1), (Lines{"applied", "OpApplied SetNice t:3/103 1"}));
  EXPECT_EQ(rig.Nice(3, 1), (Lines{"skipped", "OpElided SetNice t:3/103 1"}));
  EXPECT_EQ(rig.delta.health().breaker_opens(nice), 1u);
  EXPECT_EQ(rig.backend.nices, (std::map<std::uint64_t, int>{
                                   {1, 1}, {2, 1}, {3, 1}}));
}

TEST(ApplyPathTest, ForgottenThreadIsReappliedFromScratch) {
  FaultPlan plan;
  plan.os_rules = {NiceFault(FaultKind::kEperm, 0, Seconds(1), "102/2")};
  ApplyRig rig(std::move(plan));
  const OpClass nice = OpClass::kSetNice;

  rig.At(0);
  EXPECT_EQ(rig.Nice(1, 3), (Lines{"applied", "OpApplied SetNice t:1/101 3"}));
  EXPECT_EQ(rig.Nice(2, 3).front(), "error");
  EXPECT_EQ(rig.Health(nice, 2), "x2 @1000ms closed");
  rig.delta.ForgetThread(Tid(2));
  rig.delta.ForgetThread(Tid(1));
  EXPECT_EQ(rig.Health(nice, 2), "- closed quiet");
  EXPECT_EQ(rig.delta.health().tracked_targets(), 0u);

  rig.At(Seconds(1));
  // Both caches were dropped: the same values go to the backend again,
  // under the right names.
  EXPECT_EQ(rig.Nice(1, 3), (Lines{"applied", "OpApplied SetNice t:1/101 3"}));
  EXPECT_EQ(rig.Nice(2, 3), (Lines{"applied", "OpApplied SetNice t:2/102 3"}));
  EXPECT_EQ(rig.Nice(2, 3), (Lines{"skipped", "OpElided SetNice t:2/102 3"}));
}

TEST(ApplyPathTest, SeededSlotsElideThenRecordUnderTheRightNames) {
  ApplyRig rig(FaultPlan{});
  OsStateSnapshot snapshot;
  for (std::uint64_t tid : {1, 2}) {
    OsStateSnapshot::ThreadState ts;
    ts.thread = Tid(tid);
    ts.nice = static_cast<int>(tid) + 3;
    ts.group = "g";
    snapshot.threads.push_back(ts);
  }
  snapshot.group_shares["g"] = 512;
  EXPECT_EQ(rig.delta.SeedFromSnapshot(snapshot), 5u);

  rig.At(0);
  EXPECT_EQ(rig.Nice(1, 4), (Lines{"skipped", "OpElided SetNice t:1/101 4"}));
  EXPECT_EQ(rig.Nice(2, 8), (Lines{"applied", "OpApplied SetNice t:2/102 8"}));
  EXPECT_EQ(rig.Nice(2, 8), (Lines{"skipped", "OpElided SetNice t:2/102 8"}));
  EXPECT_EQ(rig.Op([&] { rig.delta.SetGroupShares("g", 512); }),
            (Lines{"skipped", "OpElided SetGroupShares g:g 512"}));
  EXPECT_EQ(rig.Op([&] { rig.delta.MoveToGroup(Tid(1), "g"); }),
            (Lines{"skipped", "OpElided MoveToGroup t:1/101 0"}));
  EXPECT_EQ(rig.Op([&] { rig.delta.MoveToGroup(Tid(2), "h"); }),
            (Lines{"applied", "OpApplied MoveToGroup t:2/102 0 [h]"}));
  EXPECT_EQ(rig.backend.nice_calls, 1);
}

TEST(ApplyPathTest, SwappedRecorderGetsEveryTargetUnderItsOwnIds) {
  ApplyRig rig(FaultPlan{});
  rig.At(0);
  EXPECT_EQ(rig.Nice(1, 1).front(), "applied");
  EXPECT_EQ(rig.Nice(2, 1).front(), "applied");
  EXPECT_EQ(rig.Op([&] { rig.delta.SetGroupShares("g", 100); }).front(),
            "applied");
  EXPECT_EQ(rig.Op([&] { rig.delta.MoveToGroup(Tid(1), "g"); }).front(),
            "applied");

  // The fresh recorder hands out the same small ids to other strings, so
  // an id kept from the first recorder would resolve to a decoy here.
  obs::Recorder fresh(4096);
  fresh.set_verbose(true);
  for (int i = 0; i < 16; ++i) (void)fresh.Intern("decoy" + std::to_string(i));
  const std::uint64_t old_total = rig.recorder.total_recorded();
  rig.Use(fresh);

  rig.At(Seconds(1));
  EXPECT_EQ(rig.Nice(1, 2), (Lines{"applied", "OpApplied SetNice t:1/101 2"}));
  EXPECT_EQ(rig.Nice(2, 1), (Lines{"skipped", "OpElided SetNice t:2/102 1"}));
  EXPECT_EQ(rig.Op([&] { rig.delta.SetGroupShares("g", 100); }),
            (Lines{"skipped", "OpElided SetGroupShares g:g 100"}));
  EXPECT_EQ(rig.Op([&] { rig.delta.SetGroupShares("g", 200); }),
            (Lines{"applied", "OpApplied SetGroupShares g:g 200"}));
  EXPECT_EQ(rig.Op([&] { rig.delta.MoveToGroup(Tid(1), "h"); }),
            (Lines{"applied", "OpApplied MoveToGroup t:1/101 0 [h]"}));
  EXPECT_EQ(rig.recorder.total_recorded(), old_total);
}

// ---------------------------------------------------------------------------
// Capability degradation ladder

struct LadderRig {
  sim::Simulator sim;
  SimControlExecutor executor{sim};
  BreakableOsAdapter os;
  FakeDriver driver;

  LadderRig() {
    for (int i = 0; i < 3; ++i) {
      const EntityInfo e = driver.AddEntity(QueryId(0), {i});
      driver.SetValue(MetricId::kQueueSize, e.id, 10.0 * (i + 1));
    }
    driver.Provide(MetricId::kQueueSize);
  }
};

TEST(DegradationLadderTest, DemotesWhileBrokenAndPromotesBack) {
  LadderRig rig;
  rig.os.rt_broken = true;
  LachesisRunner runner(rig.executor, rig.os, /*seed=*/3);
  HealthConfig health = FastHealth();
  runner.SetHealthConfig(health);

  PolicyBinding binding;
  binding.policy = std::make_unique<QueueSizePolicy>();
  binding.translator = std::make_unique<RtBoostTranslator>();
  binding.fallback_translators.push_back(std::make_unique<NiceTranslator>());
  binding.period = Seconds(1);
  binding.drivers = {&rig.driver};
  const std::size_t index = runner.AddQuery(std::move(binding));

  runner.Start(Seconds(60));
  // Threshold 3: the RT breaker opens within the first ticks (per-target
  // backoff spaces the failing attempts, so the third failure lands around
  // t=6); the binding then demotes to the nice fallback and keeps
  // enforcing the schedule.
  rig.sim.RunUntil(Seconds(10));
  EXPECT_EQ(runner.binding_level(index), 1u);
  EXPECT_EQ(runner.delta().health().class_state(OpClass::kSetRtPriority),
            BreakerState::kOpen);
  EXPECT_FALSE(rig.os.nices.empty());  // fallback is doing the work
  EXPECT_TRUE(rig.os.rt.empty());

  // Capability restored: the next due probe re-tries the RT translator,
  // the probe succeeds, and the binding promotes back to level 0.
  rig.os.rt_broken = false;
  rig.sim.RunUntil(Seconds(60));
  EXPECT_EQ(runner.binding_level(index), 0u);
  EXPECT_EQ(runner.delta().health().class_state(OpClass::kSetRtPriority),
            BreakerState::kClosed);
  EXPECT_FALSE(rig.os.rt.empty());  // SCHED_FIFO boost went through
}

TEST(DegradationLadderTest, NoFallbackMeansPrimaryKeepsRunning) {
  LadderRig rig;
  rig.os.nice_broken = true;
  LachesisRunner runner(rig.executor, rig.os, /*seed=*/3);
  runner.SetHealthConfig(FastHealth());

  PolicyBinding binding;
  binding.policy = std::make_unique<QueueSizePolicy>();
  binding.translator = std::make_unique<NiceTranslator>();
  binding.period = Seconds(1);
  binding.drivers = {&rig.driver};
  const std::size_t index = runner.AddQuery(std::move(binding));
  runner.Start(Seconds(10));
  rig.sim.RunUntil(Seconds(10));
  // Level never moves (there is nowhere to go) and nothing crashes; the
  // breaker simply suppresses the storm.
  EXPECT_EQ(runner.binding_level(index), 0u);
  EXPECT_GT(runner.delta_totals().suppressed, 0u);
}

TEST(DegradationLadderTest, DegradedBindingsSurfaceInTickInfo) {
  LadderRig rig;
  rig.os.rt_broken = true;
  LachesisRunner runner(rig.executor, rig.os, /*seed=*/3);
  runner.SetHealthConfig(FastHealth());

  PolicyBinding binding;
  binding.policy = std::make_unique<QueueSizePolicy>();
  binding.translator = std::make_unique<RtBoostTranslator>();
  binding.fallback_translators.push_back(std::make_unique<NiceTranslator>());
  binding.period = Seconds(1);
  binding.drivers = {&rig.driver};
  runner.AddQuery(std::move(binding));

  int max_open = 0;
  int max_degraded = 0;
  runner.SetTickObserver([&](const RunnerTickInfo& info) {
    max_open = std::max(max_open, info.open_breakers);
    max_degraded = std::max(max_degraded, info.degraded_bindings);
  });
  runner.Start(Seconds(8));
  rig.sim.RunUntil(Seconds(8));
  EXPECT_GE(max_open, 1);
  EXPECT_EQ(max_degraded, 1);
}

// ---------------------------------------------------------------------------
// Restart reconciliation

struct RestartRig {
  sim::Simulator sim;
  SimControlExecutor executor{sim};
  RecordingOsAdapter os;  // plays the kernel: state survives "restarts"
  FakeDriver driver;

  RestartRig() {
    for (int i = 0; i < 4; ++i) {
      const EntityInfo e = driver.AddEntity(QueryId(0), {i});
      driver.SetValue(MetricId::kQueueSize, e.id, 5.0 * (i + 1));
    }
    driver.Provide(MetricId::kQueueSize);
  }

  PolicyBinding Binding() {
    PolicyBinding b;
    b.policy = std::make_unique<QueueSizePolicy>();
    b.translator = std::make_unique<QuerySharesPlusNiceTranslator>();
    b.period = Seconds(1);
    b.drivers = {&driver};
    return b;
  }
};

TEST(RestartReconciliationTest, FirstTickAppliesZeroOpsWhenStateMatches) {
  RestartRig rig;

  // First incarnation: run a few periods so the "kernel" holds the
  // steady-state schedule.
  {
    LachesisRunner runner(rig.executor, rig.os, /*seed=*/11);
    runner.AddQuery(rig.Binding());
    runner.Start(Seconds(3));
    rig.sim.RunUntil(Seconds(3));
    ASSERT_GT(runner.delta_totals().applied, 0u);
  }
  const auto kernel_nices = rig.os.nices;
  const auto kernel_groups = rig.os.group_shares;

  // "Restart": a brand-new runner over the same kernel state. Without
  // reconciliation its first tick would re-apply everything; with it, the
  // delta cache is seeded from the snapshot and the first tick is free.
  LachesisRunner restarted(rig.executor, rig.os, /*seed=*/11);
  restarted.AddQuery(rig.Binding());
  const std::size_t seeded = restarted.ReconcileWithBackend();
  EXPECT_GT(seeded, 0u);
  EXPECT_EQ(restarted.delta().adopted_groups(), kernel_groups.size());

  std::vector<DeltaStats> ticks;
  restarted.SetTickObserver(
      [&ticks](const RunnerTickInfo& info) { ticks.push_back(info.delta); });
  restarted.Start(Seconds(6));
  rig.sim.RunUntil(Seconds(6));

  ASSERT_FALSE(ticks.empty());
  EXPECT_EQ(ticks.front().applied, 0u)
      << "reconciled restart must not re-apply a matching schedule";
  EXPECT_GT(ticks.front().skipped, 0u);
  EXPECT_EQ(rig.os.nices, kernel_nices);
  EXPECT_EQ(rig.os.group_shares, kernel_groups);
}

TEST(RestartReconciliationTest, DivergedKernelStateIsRepaired) {
  RestartRig rig;
  {
    LachesisRunner runner(rig.executor, rig.os, /*seed=*/11);
    runner.AddQuery(rig.Binding());
    runner.Start(Seconds(3));
    rig.sim.RunUntil(Seconds(3));
  }
  // Someone reniced a thread while the daemon was down (-15 is a value the
  // schedule never assigns to the lowest-priority thread).
  const std::uint64_t victim = 0;
  rig.os.nices[victim] = -15;

  LachesisRunner restarted(rig.executor, rig.os, /*seed=*/11);
  restarted.AddQuery(rig.Binding());
  restarted.ReconcileWithBackend();
  std::vector<DeltaStats> ticks;
  restarted.SetTickObserver(
      [&ticks](const RunnerTickInfo& info) { ticks.push_back(info.delta); });
  restarted.Start(Seconds(6));
  rig.sim.RunUntil(Seconds(6));

  // Exactly the diverged entry is re-applied; the rest is recognized.
  ASSERT_FALSE(ticks.empty());
  EXPECT_EQ(ticks.front().applied, 1u);
  EXPECT_NE(rig.os.nices.at(victim), -15);
}

TEST(RestartReconciliationTest, SnapshotlessBackendSeedsNothing) {
  // FlakyOsAdapter-style backends without SnapshotState: reconciliation
  // degrades to a no-op (empty cache, full first apply) instead of failing.
  sim::Simulator sim;
  SimControlExecutor executor(sim);
  BreakableOsAdapter os;  // no SnapshotState override
  FakeDriver driver;
  const EntityInfo e = driver.AddEntity(QueryId(0), {0});
  driver.Provide(MetricId::kQueueSize);
  driver.SetValue(MetricId::kQueueSize, e.id, 5);

  LachesisRunner runner(executor, os);
  PolicyBinding binding;
  binding.policy = std::make_unique<QueueSizePolicy>();
  binding.translator = std::make_unique<NiceTranslator>();
  binding.period = Seconds(1);
  binding.drivers = {&driver};
  runner.AddQuery(std::move(binding));
  EXPECT_EQ(runner.ReconcileWithBackend(), 0u);
  runner.Start(Seconds(2));
  sim.RunUntil(Seconds(2));
  EXPECT_GT(runner.delta_totals().applied, 0u);  // full first apply
}

}  // namespace
}  // namespace lachesis::core
