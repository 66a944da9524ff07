// tick_steady / tick_churn: one LachesisRunner over 1000 queries x 100
// operators (100k targets) on the simulator's executor, ticking once per
// simulated second with QueueSizePolicy + NiceTranslator.
//
// The engine is a benchmark-owned SpeDriver whose queue sizes are drawn
// from hash(seed, target) (steady: fixed, so after warm-up the delta layer
// skips every op) or hash(seed, target, tick) (churn: almost every nice
// value changes every tick). The backend is a null OsAdapter. Nothing else
// is scheduled on the simulator, so a tick's wall time is the wall time of
// the sim.RunUntil window that covers exactly that tick.
#include <memory>
#include <string>
#include <vector>

#include "core/policies.h"
#include "core/runner.h"
#include "core/sim_executor.h"
#include "core/translators.h"
#include "decorators.h"
#include "report.h"
#include "sim/simulator.h"
#include "spans.h"

namespace perfbench {
namespace {

using namespace lachesis;

constexpr int kQueries = 1000;
constexpr int kOperatorsPerQuery = 100;
constexpr int kTargets = kQueries * kOperatorsPerQuery;
constexpr int kWarmupTicks = 2;  // first tick fills every table
constexpr int kSetupReps = 5;
constexpr std::uint64_t kQueueRange = 1000;

// 64-bit mix of (a, b, c): the source of the synthetic queue sizes.
std::uint64_t Mix(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  std::uint64_t z = a * 0x9e3779b97f4a7c15ULL ^ (b + 0x632be59bd9b4e019ULL) ^
                    (c * 0xbf58476d1ce4e5b9ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

class SyntheticDriver final : public core::SpeDriver {
 public:
  SyntheticDriver(std::uint64_t seed, bool churn) : seed_(seed), churn_(churn) {
    entities_.reserve(kTargets);
    for (int q = 0; q < kQueries; ++q) {
      for (int o = 0; o < kOperatorsPerQuery; ++o) {
        core::EntityInfo e;
        e.id = OperatorId(entities_.size());
        e.path = "spe.q" + std::to_string(q) + ".op" + std::to_string(o);
        e.query = QueryId(q);
        e.query_name = "q" + std::to_string(q);
        e.logical_indices = {o};
        e.is_ingress = o == 0;
        e.is_egress = o + 1 == kOperatorsPerQuery;
        e.thread.sim_tid = ThreadId(entities_.size());
        entities_.push_back(e);
      }
    }
  }

  [[nodiscard]] const std::string& name() const override { return name_; }
  void Poll(SimTime now) override {
    tick_ = static_cast<std::uint64_t>(now / Seconds(1));
  }
  std::vector<core::EntityInfo> Entities() override { return entities_; }
  const core::LogicalTopology& Topology(QueryId) override { return topology_; }
  [[nodiscard]] bool Provides(core::MetricId metric) const override {
    return metric == core::MetricId::kQueueSize;
  }
  double Fetch(core::MetricId, const core::EntityInfo& entity) override {
    const std::uint64_t id = entity.id.value();
    return static_cast<double>(Mix(seed_, id, churn_ ? tick_ + 1 : 0) %
                               kQueueRange);
  }

 private:
  std::string name_ = "synthetic";
  std::uint64_t seed_;
  bool churn_;
  std::uint64_t tick_ = 0;
  std::vector<core::EntityInfo> entities_;
  core::LogicalTopology topology_;
};

// Absorbs every operation; counts them so the churn gate can compare
// backend ops with the delta layer's applied count.
class NullOsAdapter final : public core::OsAdapter {
 public:
  void SetNice(const core::ThreadHandle&, int) override { ++ops; }
  void SetGroupShares(const std::string&, std::uint64_t) override { ++ops; }
  void MoveToGroup(const core::ThreadHandle&, const std::string&) override {
    ++ops;
  }
  std::uint64_t ops = 0;
};

// One control plane over the synthetic engine. With a span log, the
// driver, policy, translator and backend are wrapped in tracing decorators.
struct Plane {
  Plane(std::uint64_t seed, bool churn, SpanLog* log)
      : executor(sim), driver(seed, churn) {
    core::SpeDriver* bound_driver = &driver;
    core::OsAdapter* backend = &os;
    std::unique_ptr<core::SchedulingPolicy> policy =
        std::make_unique<core::QueueSizePolicy>();
    std::unique_ptr<core::Translator> translator =
        std::make_unique<core::NiceTranslator>();
    if (log != nullptr) {
      traced_driver = std::make_unique<TracingDriver>(driver, *log);
      traced_os = std::make_unique<TracingOsAdapter>(os, *log);
      bound_driver = traced_driver.get();
      backend = traced_os.get();
      policy = std::make_unique<TracingPolicy>(std::move(policy), *log);
      translator =
          std::make_unique<TracingTranslator>(std::move(translator), *log);
    }
    runner = std::make_unique<core::LachesisRunner>(executor, *backend, seed);
    core::PolicyBinding binding;
    binding.policy = std::move(policy);
    binding.translator = std::move(translator);
    binding.period = Seconds(1);
    binding.drivers = {bound_driver};
    runner->AddQuery(std::move(binding));
    ticks.reserve(1 << 16);
    runner->SetTickObserver(
        [this](const core::RunnerTickInfo& info) { ticks.push_back(info); });
    runner->Start(Seconds(1'000'000));
    for (int i = 0; i < kWarmupTicks; ++i) Tick();
  }

  // Runs the simulator through exactly the next tick.
  void Tick() { sim.RunUntil(Seconds(++tick)); }

  sim::Simulator sim;
  core::SimControlExecutor executor;
  NullOsAdapter os;
  SyntheticDriver driver;
  std::unique_ptr<TracingDriver> traced_driver;
  std::unique_ptr<TracingOsAdapter> traced_os;
  std::unique_ptr<core::LachesisRunner> runner;
  std::vector<core::RunnerTickInfo> ticks;
  int tick = 0;
};

struct TickSamples {
  std::vector<double> ms;
  std::vector<double> allocs;
  std::size_t first_info = 0;  // index into Plane::ticks of the first one

  explicit TickSamples(const Plane& plane) : first_info(plane.ticks.size()) {
    ms.reserve(1 << 14);
    allocs.reserve(1 << 14);
  }

  // Runs one tick of `plane`, timing it and counting its heap allocations.
  // With a span log, the tick is also a "tick" span.
  void Tick(Plane& plane, SpanLog* log) {
    ScopedSpan span(log, "tick");
    const std::uint64_t before = ThreadAllocations();
    const std::int64_t start = NowNs();
    plane.Tick();
    const std::int64_t end = NowNs();
    allocs.push_back(static_cast<double>(ThreadAllocations() - before));
    ms.push_back(static_cast<double>(end - start) / 1e6);
  }
};

// Correctness gate shared by the untraced and traced phases.
void CheckTicks(const Plane& plane, std::size_t first, bool churn,
                Result& r) {
  bool ran_ok = true;
  bool steady_ok = true;
  bool churn_ok = true;
  for (std::size_t i = first; i < plane.ticks.size(); ++i) {
    const core::RunnerTickInfo& info = plane.ticks[i];
    r.attempted += kTargets;
    r.failed += info.delta.errors;
    if (info.policies_run != 1) ran_ok = false;
    if (!churn && (info.delta.applied != 0 ||
                   info.delta.skipped != static_cast<std::uint64_t>(kTargets))) {
      steady_ok = false;
    }
    // The workload must really churn: most targets get a new nice value.
    if (churn && info.delta.applied < kTargets / 2) churn_ok = false;
  }
  r.Check(ran_ok, "a measured tick did not run the policy");
  r.Check(steady_ok, "tick_steady: a measured tick applied an op or did not "
                     "skip every target");
  r.Check(churn_ok, "tick_churn: a measured tick applied fewer than half the "
                    "targets");
  r.Check(plane.os.ops == plane.runner->delta_totals().applied,
          "backend ops != delta.applied");
}

}  // namespace

Result RunTick(const Options& options, bool churn) {
  Result r;
  r.AddInfo("targets", std::to_string(kTargets));
  if (!options.trace) {
    std::vector<double> setup_s;
    std::unique_ptr<Plane> plane;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      plane.reset();
      const std::int64_t start = NowNs();
      plane = std::make_unique<Plane>(options.seed, churn, nullptr);
      setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    }
    TickSamples s(*plane);
    RunFor(options.seconds, [&] { s.Tick(*plane, nullptr); });
    CheckTicks(*plane, s.first_info, churn, r);
    r.AddSamples("setup_s", "s", setup_s);
    r.AddValue("rss_mb", "MB", PeakRssMb());
    AddLatency(r, "a control tick", s.ms);
    return r;
  }

  // Traced run: a plain plane (the untraced reference for the overhead,
  // allocation counts and recorder counters) and a plane whose four
  // plug-ins are wrapped in tracing decorators, ticked alternately so both
  // see the same host conditions.
  SpanLog log;
  Plane plain(options.seed, churn, nullptr);
  Plane traced(options.seed, churn, &log);
  const std::uint64_t recorded0 = plain.runner->recorder().total_recorded();
  const std::uint64_t dropped0 = plain.runner->recorder().dropped();
  const std::size_t first_span = log.spans().size();
  TickSamples untraced(plain);
  TickSamples s(traced);
  RunFor(options.seconds, [&] {
    untraced.Tick(plain, nullptr);
    s.Tick(traced, &log);
  });
  CheckTicks(plain, untraced.first_info, churn, r);
  CheckTicks(traced, s.first_info, churn, r);
  const double n_plain = static_cast<double>(untraced.ms.size());
  const double recorded =
      static_cast<double>(plain.runner->recorder().total_recorded() -
                          recorded0) / n_plain;
  const double dropped =
      static_cast<double>(plain.runner->recorder().dropped() - dropped0) /
      n_plain;

  std::vector<double> self_ms, policy_ms, translate_ms, backend_ms,
      backend_ops, driver_ms, fetch_calls, applied, skipped;
  std::uint64_t applied_total = 0;
  std::uint64_t skipped_total = 0;
  for (const int t : log.Named("tick")) {
    if (static_cast<std::size_t>(t) < first_span) continue;
    const auto& tick = log.spans()[static_cast<std::size_t>(t)];
    const double driver = static_cast<double>(log.DescendantNs(t, "driver."));
    const double policy =
        static_cast<double>(log.DescendantNs(t, "policy."));
    const double translate =
        static_cast<double>(log.DescendantNs(t, "translator."));
    const double backend =
        static_cast<double>(log.DescendantNs(t, "backend."));
    self_ms.push_back(
        (static_cast<double>(tick.dur_ns) - driver - policy - translate) / 1e6);
    policy_ms.push_back(policy / 1e6);
    translate_ms.push_back((translate - backend) / 1e6);
    backend_ms.push_back(backend / 1e6);
    backend_ops.push_back(
        static_cast<double>(log.DescendantCalls(t, "backend.")));
    driver_ms.push_back(driver / 1e6);
    fetch_calls.push_back(
        static_cast<double>(log.DescendantCalls(t, "driver.Fetch")));
  }
  for (std::size_t i = s.first_info; i < traced.ticks.size(); ++i) {
    applied.push_back(static_cast<double>(traced.ticks[i].delta.applied));
    skipped.push_back(static_cast<double>(traced.ticks[i].delta.skipped));
    applied_total += traced.ticks[i].delta.applied;
    skipped_total += traced.ticks[i].delta.skipped;
  }

  const double plain_p50 = Quantile(untraced.ms, 0.5);
  const double traced_p50 = Quantile(s.ms, 0.5);

  r.AddSamples("core.runner.self_ms", "ms", self_ms);
  r.AddSamples("core.policy.ms", "ms", policy_ms);
  r.AddSamples("core.translate.ms", "ms", translate_ms);
  r.AddSamples("core.backend.ms", "ms", backend_ms);
  r.AddSamples("core.backend.ops", "count", backend_ops);
  r.AddSamples("core.driver.ms", "ms", driver_ms);
  r.AddSamples("core.driver.fetch_calls", "count", fetch_calls);
  r.AddSamples("core.delta.applied", "count", applied);
  r.AddSamples("core.delta.skipped", "count", skipped);
  r.AddValue("core.delta.skip_ratio", "ratio",
             static_cast<double>(skipped_total) /
                 static_cast<double>(applied_total + skipped_total));
  r.AddValue("obs.events_recorded", "count", recorded);
  r.AddValue("obs.events_dropped", "count", dropped);
  r.AddSamples("core.tick.allocs", "count", untraced.allocs);
  r.AddValue("core.tick.ns_per_target", "ns", plain_p50 * 1e6 / kTargets);
  r.AddValue("trace.overhead_pct", "%", (traced_p50 / plain_p50 - 1) * 100);
  r.AddInfo("untraced_tick_p50_ms", std::to_string(plain_p50));
  r.AddInfo("traced_tick_p50_ms", std::to_string(traced_p50));
  if (!options.trace_path.empty()) {
    r.Check(log.WriteChromeTrace(options.trace_path),
            "cannot write " + options.trace_path);
  }
  return r;
}

}  // namespace perfbench
