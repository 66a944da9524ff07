// Result of one benchmark run, and the helpers every workload shares.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  // Where a traced run writes its Chrome trace (empty: not written).
  std::string trace_path;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;  // the median when the metric has samples
  double q1 = 0;
  double q3 = 0;
  std::size_t samples = 1;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;  // empty == correct
  std::vector<Metric> metrics;
  // Extra facts about the run, as (key, JSON value) pairs.
  std::vector<std::pair<std::string, std::string>> info;

  void Check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
  // Median and quartiles of `samples`.
  void AddSamples(const std::string& name, const std::string& unit,
                  std::vector<double> samples);
  void AddValue(const std::string& name, const std::string& unit,
                double value);
  void AddInfo(const std::string& key, const std::string& json_value) {
    info.emplace_back(key, json_value);
  }
};

// The end-to-end latency metrics every workload reports: median and 90th
// percentile of `ms`, the durations of the workload's unit of work, which
// `what` names in the detail line.
void AddLatency(Result& r, const std::string& what, std::vector<double> ms);

// Linear-interpolated quantile, q in [0, 1]; sorts `values` in place.
double Quantile(std::vector<double>& values, double q);
// Quantile of already sorted values.
double SortedQuantile(const std::vector<double>& sorted, double q);

// Heap allocations made so far by the calling thread (alloc_count.cc).
std::uint64_t ThreadAllocations();

// Peak resident set size of this process, MiB.
double PeakRssMb();

// Calls `step` until `seconds` of wall time have passed, and at least 3
// times.
template <typename Step>
void RunFor(double seconds, Step step) {
  const std::int64_t begin = NowNs();
  const auto budget = static_cast<std::int64_t>(seconds * 1e9);
  for (int n = 0; n < 3 || NowNs() - begin < budget; ++n) step();
}

Result RunTick(const Options& options, bool churn);
Result RunFleetWorkload(const Options& options);
Result RunNative(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
