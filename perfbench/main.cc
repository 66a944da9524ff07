// lachesis_perfbench: the repository benchmark's driver binary.
//
//   lachesis_perfbench --workload tick_steady|tick_churn|fleet|native
//                      --seed N --seconds S [--trace 0|1] [--trace-out PATH]
//
// Runs one workload for about S seconds and prints one JSON object on the
// last line of stdout: correctness, operations attempted and failed, every
// metric with its median, quartiles and sample count, and the host facts
// (hw_cores, build type, seed, nice privilege). Exits 1 when a correctness
// check fails, 2 on bad arguments. perfbench/run.py builds this binary and
// turns its output into the benchmark's result line; perfbench/README.md
// documents the workloads and metrics.
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>

#include "osctl/nice.h"
#include "report.h"

namespace perfbench {

double Quantile(std::vector<double>& values, double q) {
  std::sort(values.begin(), values.end());
  return SortedQuantile(values, q);
}

double SortedQuantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

void Result::AddSamples(const std::string& name, const std::string& unit,
                        std::vector<double> samples) {
  Metric m;
  m.name = name;
  m.unit = unit;
  m.samples = samples.size();
  m.value = Quantile(samples, 0.5);
  m.q1 = SortedQuantile(samples, 0.25);
  m.q3 = SortedQuantile(samples, 0.75);
  metrics.push_back(m);
}

void Result::AddValue(const std::string& name, const std::string& unit,
                      double value) {
  Metric m;
  m.name = name;
  m.unit = unit;
  m.value = value;
  m.q1 = value;
  m.q3 = value;
  metrics.push_back(m);
}

void AddLatency(Result& r, const std::string& what, std::vector<double> ms) {
  r.AddInfo("latency_of", "\"" + what + "\"");
  r.AddSamples("latency_p50_ms", "ms", ms);  // sorts its own copy
  std::sort(ms.begin(), ms.end());
  r.AddValue("latency_p90_ms", "ms", SortedQuantile(ms, 0.9));
  r.metrics.back().samples = ms.size();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

// Whether this process may raise a thread's priority (lower its nice), as
// the native workload's LinuxOsAdapter does. Probed on a throwaway thread.
bool CanLowerNice() {
  bool ok = false;
  std::thread probe([&ok] {
    lachesis::osctl::LinuxNiceController nice;
    ok = nice.SetNice(static_cast<long>(syscall(SYS_gettid)), -1);
  });
  probe.join();
  return ok;
}

void PrintJson(const Options& options, const Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
              r.check_failures.empty() ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  std::printf("\"metrics\": {");
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\", \"q1\": %.9g, "
                "\"q3\": %.9g, \"samples\": %zu}",
                i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str(), m.q1,
                m.q3, m.samples);
  }
  std::printf("}, \"check_failures\": [");
  for (std::size_t i = 0; i < r.check_failures.size(); ++i) {
    std::printf("%s\"%s\"", i ? ", " : "", r.check_failures[i].c_str());
  }
  std::printf("], \"info\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %g, \"trace\": %s, \"hw_cores\": %u, "
              "\"build_type\": \"%s\", \"nice_can_lower\": %s",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? "true" : "false",
              std::max(1u, std::thread::hardware_concurrency()),
              PERFBENCH_BUILD_TYPE, CanLowerNice() ? "true" : "false");
  for (const auto& [key, value] : r.info) {
    std::printf(", \"%s\": %s", key.c_str(), value.c_str());
  }
  std::printf("}}\n");
}

void ParseArgs(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--trace-out") {
      options.trace_path = value;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  try {
    ParseArgs(argc, argv, options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: bad arguments: %s\n", e.what());
    return 2;
  }
  if (!(options.seconds > 0)) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }

  Result result;
  try {
    if (options.workload == "tick_steady") {
      result = RunTick(options, /*churn=*/false);
    } else if (options.workload == "tick_churn") {
      result = RunTick(options, /*churn=*/true);
    } else if (options.workload == "fleet") {
      result = RunFleetWorkload(options);
    } else if (options.workload == "native") {
      result = RunNative(options);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  PrintJson(options, result);
  for (const std::string& failure : result.check_failures) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", failure.c_str());
  }
  return result.check_failures.empty() ? 0 : 1;
}
