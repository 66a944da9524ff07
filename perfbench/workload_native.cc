// native: the two-query shape of examples/native_spe_load.cpp on
// spe::NativeRuntime, unpinned, scheduled live by LachesisRunner on
// NativeControlExecutor through NativeRuntimeDriver and the real
// LinuxOsAdapter (QueueSizePolicy + NiceTranslator, 250 ms period):
//
//   light: in 5 us -> filter 20 us (keeps even keys) -> out 5 us, 20k t/s
//   heavy: in 5 us -> work 50 us -> out 5 us, 10k t/s (50% of its bound)
//
// The heavy query runs at half its bound, not at 70% (14k t/s): at 70%
// the pipeline sat at the edge of queueing, and in periods when the host
// woke parked threads slowly, runs read p50s of 0.2-1 ms instead of
// 0.14 ms; alternated with them, runs at 10k t/s read 0.129-0.134 ms.
//
// The sources are open loop. A benchmark-owned egress OperatorLogic
// records each tuple's latency from its due time, first_produced +
// seq x period, so a stall is charged to every tuple that waited behind
// it; the source's own lateness (produced - due) is recorded beside it.
// The end-to-end latency is taken per 1 s window of due time, and a run
// reports the median over its windows, so a host stall of a second or two
// moves one window of many, not the run's figure. The untraced run is
// split into segments of about 5 s, each on a fresh runtime and control
// plane, with the set-ups timed before each segment: a set-up's time
// depends on how fast idle vCPUs wake, and 100 set-ups in one burst
// sampled one host state (their per-run medians spread 0.5-1.3x), while
// spread over the run they agree within about a tenth.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/policies.h"
#include "core/runner.h"
#include "core/translators.h"
#include "decorators.h"
#include "osctl/cgroupfs.h"
#include "osctl/linux_os_adapter.h"
#include "osctl/native_executor.h"
#include "osctl/native_runtime_driver.h"
#include "osctl/nice.h"
#include "report.h"
#include "spe/native_runtime.h"
#include "spans.h"

namespace perfbench {
namespace {

using namespace lachesis;

constexpr double kLightRate = 20000;
constexpr double kHeavyRate = 10000;
constexpr double kWarmupS = 1.0;  // tuples due earlier are not timed
constexpr double kWindowS = 1.0;
constexpr double kSegmentS = 5.0;
constexpr int kSetupRepsPerSegment = 25;  // one takes about 0.3 ms

// What one query's egress saw. Written only by that egress operator's
// thread; read after NativeRuntime::Stop joined it.
struct EgressLog {
  EgressLog(double rate_tps, std::int64_t key_stride, double seconds)
      : period_ns(static_cast<std::uint64_t>(1e9 / rate_tps)),
        stride(key_stride) {
    const auto expected = static_cast<std::size_t>(rate_tps * (seconds + 2));
    latency_us.reserve(expected);
    lateness_us.reserve(expected);
    window.reserve(expected);
  }

  void Record(const spe::Tuple& t, std::uint64_t now_ns) {
    const auto seq = static_cast<std::uint64_t>(t.key);
    if (delivered == 0) {
      in_order = t.key == 0;
      first_produced = static_cast<std::uint64_t>(t.produced);
    } else if (t.key != last_key + stride) {
      in_order = false;
    }
    last_key = t.key;
    ++delivered;
    const std::uint64_t due = first_produced + seq * period_ns;
    if (static_cast<double>(seq * period_ns) < kWarmupS * 1e9) return;
    latency_us.push_back(static_cast<float>(
        static_cast<double>(static_cast<std::int64_t>(now_ns - due)) / 1e3));
    lateness_us.push_back(static_cast<float>(
        static_cast<double>(static_cast<std::int64_t>(
            static_cast<std::uint64_t>(t.produced) - due)) /
        1e3));
    window.push_back(static_cast<std::uint32_t>(
        static_cast<double>(seq * period_ns) / (kWindowS * 1e9)));
  }

  std::uint64_t period_ns;
  std::int64_t stride;
  std::uint64_t first_produced = 0;
  std::int64_t last_key = -1;
  std::uint64_t delivered = 0;
  bool in_order = true;
  std::vector<float> latency_us;
  std::vector<float> lateness_us;
  std::vector<std::uint32_t> window;  // of each latency, by due time
};

class EgressRecorder final : public spe::OperatorLogic {
 public:
  EgressRecorder(const spe::NativeRuntime& runtime, EgressLog& log)
      : runtime_(&runtime), log_(&log) {}
  void Process(const spe::Tuple& input,
               std::vector<spe::Tuple>& outputs) override {
    log_->Record(input, runtime_->NowNs());
    outputs.push_back(input);
  }

 private:
  const spe::NativeRuntime* runtime_;
  EgressLog* log_;
};

spe::LogicalOperator Egress(const char* name, const spe::NativeRuntime& rt,
                            EgressLog& log) {
  spe::LogicalOperator op = spe::MakeEgress(name, Micros(5));
  op.make_logic = [&rt, &log] {
    return std::make_unique<EgressRecorder>(rt, log);
  };
  return op;
}

// The runtime plus the control plane scheduling it. With a span log, the
// driver, policy, translator and backend are wrapped in tracing decorators
// and every live tick becomes a "tick" span (opened at the driver's Poll,
// closed by the runner's tick observer).
struct NativeStack {
  NativeStack(std::uint64_t seed, double seconds, SpanLog* log)
      : light_log(kLightRate, 2, seconds),
        heavy_log(kHeavyRate, 1, seconds),
        cgroups("perfbench-unused-cgroup", osctl::CgroupVersion::kV2),
        linux_os(nice, cgroups),
        span_log(log) {
    tick_us.reserve(1 << 12);
    lateness_us.reserve(1 << 12);
    const std::int64_t start = NowNs();
    spe::NativeRuntimeOptions rt_options;
    rt_options.name = "perfbench-native";
    runtime = std::make_unique<spe::NativeRuntime>(rt_options);

    spe::LogicalQuery light;
    light.name = "light";
    const int l_in = light.Add(spe::MakeIngress("l.in", Micros(5)));
    const int l_filter = light.Add(spe::MakeTransform(
        "l.filter", Micros(20), [] {
          return std::make_unique<spe::FnLogic>(
              [](const spe::Tuple& t, std::vector<spe::Tuple>& out) {
                if (t.key % 2 == 0) out.push_back(t);
              });
        }));
    const int l_out = light.Add(Egress("l.out", *runtime, light_log));
    light.Connect(l_in, l_filter);
    light.Connect(l_filter, l_out);
    spe::NativeDeployOptions light_deploy;
    light_deploy.source_rate_tps = kLightRate;
    light_deploy.seed = seed;
    runtime->AddQuery(light, light_deploy);

    spe::LogicalQuery heavy;
    heavy.name = "heavy";
    const int h_in = heavy.Add(spe::MakeIngress("h.in", Micros(5)));
    const int h_work =
        heavy.Add(spe::MakeTransform("h.work", Micros(50), nullptr));
    const int h_out = heavy.Add(Egress("h.out", *runtime, heavy_log));
    heavy.Connect(h_in, h_work);
    heavy.Connect(h_work, h_out);
    spe::NativeDeployOptions heavy_deploy;
    heavy_deploy.source_rate_tps = kHeavyRate;
    heavy_deploy.seed = seed + 1;
    runtime->AddQuery(heavy, heavy_deploy);

    {
      ScopedSpan span(log, "spe.runtime.Start");
      runtime->Start();
    }
    driver = std::make_unique<osctl::NativeRuntimeDriver>(*runtime);
    core::SpeDriver* bound_driver = driver.get();
    core::OsAdapter* backend = &linux_os;
    std::unique_ptr<core::SchedulingPolicy> policy =
        std::make_unique<core::QueueSizePolicy>();
    std::unique_ptr<core::Translator> translator =
        std::make_unique<core::NiceTranslator>();
    if (log != nullptr) {
      traced_driver = std::make_unique<TracingDriver>(*driver, *log);
      traced_driver->before_poll = [this] {
        tick_span = span_log->Begin("tick");
      };
      traced_os = std::make_unique<TracingOsAdapter>(linux_os, *log);
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
    binding.period = Millis(250);
    binding.drivers = {bound_driver};
    runner->AddQuery(std::move(binding));
    runner->SetTickObserver([this](const core::RunnerTickInfo& info) {
      ++ticks;
      errors += info.delta.errors;
      const SimTime due = run_start + static_cast<SimTime>(ticks) * Millis(250);
      lateness_us.push_back(static_cast<double>(info.now - due) / 1e3);
      if (tick_span >= 0) {
        span_log->End(tick_span);
        const Span& s = span_log->spans()[static_cast<std::size_t>(tick_span)];
        tick_us.push_back(static_cast<double>(s.dur_ns) / 1e3);
        tick_span = -1;
      }
    });
    setup_s = static_cast<double>(NowNs() - start) / 1e9;
  }

  ~NativeStack() { runtime->Stop(/*drain=*/false); }
  NativeStack(const NativeStack&) = delete;
  NativeStack& operator=(const NativeStack&) = delete;

  // Runs the control loop for `seconds`, then stops the sources and lets
  // every buffered tuple drain to the egress.
  void Run(double seconds) {
    for (const auto& op : runtime->ops()) busy0.push_back(op->busy_ns());
    run_start = executor.Now();
    const SimTime until = run_start + static_cast<SimTime>(seconds * 1e9);
    runner->Start(until);
    executor.Run(until);
    const auto window_ns = static_cast<double>(executor.Now() - run_start);
    for (std::size_t i = 0; i < runtime->ops().size(); ++i) {
      busy_share_max = std::max(
          busy_share_max,
          static_cast<double>(runtime->ops()[i]->busy_ns() - busy0[i]) /
              window_ns);
    }
    ScopedSpan span(span_log, "spe.runtime.Stop");
    runtime->Stop(/*drain=*/true);
  }

  EgressLog light_log;
  EgressLog heavy_log;
  osctl::LinuxNiceController nice;
  osctl::CgroupController cgroups;
  osctl::LinuxOsAdapter linux_os;
  osctl::NativeControlExecutor executor;
  SpanLog* span_log;
  std::unique_ptr<spe::NativeRuntime> runtime;
  std::unique_ptr<osctl::NativeRuntimeDriver> driver;
  std::unique_ptr<TracingDriver> traced_driver;
  std::unique_ptr<TracingOsAdapter> traced_os;
  std::unique_ptr<core::LachesisRunner> runner;

  double setup_s = 0;
  SimTime run_start = 0;
  std::vector<std::uint64_t> busy0;
  double busy_share_max = 0;
  std::uint64_t ticks = 0;
  std::uint64_t errors = 0;
  int tick_span = -1;
  std::vector<double> tick_us;      // traced only
  std::vector<double> lateness_us;  // wake lateness per tick
};

void CheckDelivery(const NativeStack& s, Result& r) {
  const spe::NativeRuntime& rt = *s.runtime;
  const std::uint64_t light_src = rt.SourceEmitted(0);
  const std::uint64_t heavy_src = rt.SourceEmitted(1);
  const std::uint64_t light_expected = (light_src + 1) / 2;  // even keys
  r.attempted += light_src + heavy_src;
  r.failed += (light_expected - std::min(light_expected, s.light_log.delivered)) +
              (heavy_src - std::min(heavy_src, s.heavy_log.delivered));
  r.Check(rt.TotalIngested(0) == light_src && rt.TotalIngested(1) == heavy_src,
          "native: a source tuple was not ingested");
  r.Check(s.light_log.delivered == light_expected,
          "native: light egress != even keys emitted (" +
              std::to_string(s.light_log.delivered) + " vs " +
              std::to_string(light_expected) + ")");
  r.Check(s.heavy_log.delivered == heavy_src,
          "native: heavy egress != ingested (" +
              std::to_string(s.heavy_log.delivered) + " vs " +
              std::to_string(heavy_src) + ")");
  r.Check(s.light_log.in_order && s.heavy_log.in_order,
          "native: keys out of order at an egress");
  r.Check(!s.light_log.latency_us.empty() && !s.heavy_log.latency_us.empty(),
          "native: no tuple was timed (run shorter than the warm-up?)");
}

std::vector<double> Widen(const std::vector<float>& a,
                          const std::vector<float>& b = {}) {
  std::vector<double> out(a.begin(), a.end());
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

struct WindowedLatency {
  std::vector<double> p50_ms;  // one value per window
  std::vector<double> p90_ms;
};

// Pools both queries' latencies by window and appends each window's p50
// and p90 to `out`.
void AddWindows(const EgressLog& a, const EgressLog& b, WindowedLatency& out) {
  std::vector<std::vector<double>> windows;
  for (const EgressLog* log : {&a, &b}) {
    for (std::size_t i = 0; i < log->latency_us.size(); ++i) {
      const std::uint32_t w = log->window[i];
      if (w >= windows.size()) windows.resize(w + 1);
      windows[w].push_back(static_cast<double>(log->latency_us[i]) / 1e3);
    }
  }
  for (std::vector<double>& w : windows) {
    if (w.empty()) continue;
    std::sort(w.begin(), w.end());
    out.p50_ms.push_back(SortedQuantile(w, 0.5));
    out.p90_ms.push_back(SortedQuantile(w, 0.9));
  }
}

}  // namespace

Result RunNative(const Options& options) {
  Result r;
  if (!options.trace) {
    const int segments =
        std::max(1, static_cast<int>(options.seconds / kSegmentS));
    const double segment_s = options.seconds / segments;
    std::vector<double> setup_s;
    WindowedLatency e2e;
    std::uint64_t errors = 0;
    std::string segment_p50 = "[";
    for (int i = 0; i < segments; ++i) {
      for (int rep = 0; rep < kSetupRepsPerSegment; ++rep) {
        setup_s.push_back(
            NativeStack(options.seed, segment_s, nullptr).setup_s);
      }
      NativeStack stack(options.seed + static_cast<std::uint64_t>(i) * 2,
                        segment_s, nullptr);
      stack.Run(segment_s);
      CheckDelivery(stack, r);
      const std::size_t first = e2e.p50_ms.size();
      AddWindows(stack.light_log, stack.heavy_log, e2e);
      std::vector<double> mine(e2e.p50_ms.begin() + first, e2e.p50_ms.end());
      segment_p50 += (i ? ", " : "") + std::to_string(Quantile(mine, 0.5));
      errors += stack.errors;
    }
    r.AddSamples("setup_s", "s", setup_s);
    r.AddValue("rss_mb", "MB", PeakRssMb());
    r.AddInfo("latency_of",
              "\"a tuple, from its due time to its egress; median over 1 s "
              "windows of each window's quantile\"");
    r.AddSamples("latency_p50_ms", "ms", e2e.p50_ms);
    r.AddSamples("latency_p90_ms", "ms", e2e.p90_ms);
    r.AddInfo("segment_p50_ms", segment_p50 + "]");
    r.AddInfo("backend_op_errors", std::to_string(errors));
    return r;
  }

  // Traced run: half the time untraced (the spe-layer counters and the
  // overhead reference), half with the control plane wrapped in decorators.
  const double half = options.seconds / 2;
  NativeStack plain(options.seed, half, nullptr);
  plain.Run(half);
  CheckDelivery(plain, r);

  SpanLog log;
  NativeStack traced(options.seed, half, &log);
  traced.Run(half);
  CheckDelivery(traced, r);

  std::vector<double> plain_e2e =
      Widen(plain.light_log.latency_us, plain.heavy_log.latency_us);
  std::vector<double> traced_e2e =
      Widen(traced.light_log.latency_us, traced.heavy_log.latency_us);
  const double plain_p50 = Quantile(plain_e2e, 0.5);  // sorts plain_e2e
  const double traced_p50 = Quantile(traced_e2e, 0.5);

  std::vector<double> light = Widen(plain.light_log.latency_us);
  std::vector<double> heavy = Widen(plain.heavy_log.latency_us);
  std::vector<double> source_late =
      Widen(plain.light_log.lateness_us, plain.heavy_log.lateness_us);
  std::sort(light.begin(), light.end());
  std::sort(heavy.begin(), heavy.end());
  r.AddValue("native.e2e_p99_us", "us", SortedQuantile(plain_e2e, 0.99));
  r.AddValue("native.light.p50_us", "us", SortedQuantile(light, 0.5));
  r.AddValue("native.light.p99_us", "us", SortedQuantile(light, 0.99));
  r.AddValue("native.heavy.p50_us", "us", SortedQuantile(heavy, 0.5));
  r.AddValue("native.heavy.p99_us", "us", SortedQuantile(heavy, 0.99));

  std::uint64_t parks = 0;
  std::uint64_t high_water = 0;
  for (const auto& op : plain.runtime->ops()) {
    parks += op->input().consumer_sleeps() + op->input().producer_sleeps();
    high_water = std::max(high_water, op->input().high_water());
  }
  const double tuples = static_cast<double>(plain.runtime->TotalIngested(0) +
                                            plain.runtime->TotalIngested(1));
  r.AddValue("spe.ring.parks_per_tuple", "ratio",
             static_cast<double>(parks) / tuples);
  r.AddValue("spe.source.lateness_p99_us", "us", Quantile(source_late, 0.99));
  r.AddValue("spe.ring.high_water_max", "count",
             static_cast<double>(high_water));
  r.AddValue("spe.op.busy_share_max", "ratio", plain.busy_share_max);

  std::vector<double> poll_us, set_nice_us;
  for (const int i : log.Named("driver.Poll")) {
    poll_us.push_back(
        static_cast<double>(log.spans()[static_cast<std::size_t>(i)].dur_ns) /
        1e3);
  }
  for (const int i : log.Named("backend.SetNice")) {
    const Span& s = log.spans()[static_cast<std::size_t>(i)];
    set_nice_us.push_back(static_cast<double>(s.dur_ns) / 1e3 /
                          static_cast<double>(s.calls));
  }
  r.AddSamples("osctl.driver.poll_us", "us", poll_us);
  if (set_nice_us.empty()) set_nice_us.push_back(0);
  r.AddSamples("osctl.backend.set_nice_us", "us", set_nice_us);
  r.AddValue("osctl.backend.errors", "count",
             static_cast<double>(traced.traced_os->errors()));
  r.AddSamples("core.native.tick_us", "us", traced.tick_us);
  r.AddSamples("core.native.wake_lateness_us", "us", traced.lateness_us);
  r.AddValue("trace.overhead_pct", "%", (traced_p50 / plain_p50 - 1) * 100);
  r.AddInfo("untraced_e2e_p50_us", std::to_string(plain_p50));
  r.AddInfo("traced_e2e_p50_us", std::to_string(traced_p50));
  if (!options.trace_path.empty()) {
    r.Check(log.WriteChromeTrace(options.trace_path),
            "cannot write " + options.trace_path);
  }
  return r;
}

}  // namespace perfbench
