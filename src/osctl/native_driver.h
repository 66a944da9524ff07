// SpeDriver for a real, unmodified engine process on this host.
//
// Mirrors what the paper's drivers do against Storm/Flink/Liebre:
//  - the ENTITY GRAPH comes from public OS surfaces: the engine's threads
//    are enumerated via /proc and matched to operators by thread-name
//    patterns (engines name their executor threads after components);
//  - RAW METRICS come from the metric store the engine already reports to.
//    Here that is a Graphite-plaintext file ("<series> <value> <timestamp>"
//    lines, the graphite line protocol) that a scraper/exporter appends to;
//    Poll() tails it into an in-memory TimeSeriesStore.
//
// The driver is configured with a NativeSpeConfig describing the queries:
// logical topology, per-operator thread-name patterns and metric series
// names. Nothing about the engine is modified (goal G2).
#ifndef LACHESIS_OSCTL_NATIVE_DRIVER_H_
#define LACHESIS_OSCTL_NATIVE_DRIVER_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/store_driver.h"
#include "tsdb/tsdb.h"

namespace lachesis::osctl {

struct NativeOperatorConfig {
  std::string name;            // logical operator name
  std::string thread_pattern;  // substring matched against /proc comm values
  // Series prefix in the metric file; "<prefix>.<metric>" is looked up with
  // the MetricName() suffixes (queue_size, tuples_in_total, ...).
  std::string series_prefix;
  bool is_ingress = false;
  bool is_egress = false;
};

struct NativeQueryConfig {
  std::string name;
  long pid = -1;  // engine process
  std::vector<NativeOperatorConfig> operators;
  std::vector<std::pair<int, int>> edges;  // logical DAG
};

struct NativeSpeConfig {
  std::string name = "native";
  std::string proc_root = "/proc";
  std::string metrics_file;  // graphite line-protocol file
  // Metrics the engine's exporter actually publishes (drives Provides()).
  std::set<core::MetricId> provided;
  std::vector<NativeQueryConfig> queries;
};

class NativeSpeDriver final : public core::StoreBackedDriver {
 public:
  // `delta_window` is the counter-delta window; pass the scheduling period.
  explicit NativeSpeDriver(NativeSpeConfig config,
                           SimDuration delta_window = Seconds(1));

  // Re-scans /proc and ingests new lines of the metrics file; the control
  // loop calls it at the start of every period this driver participates in.
  void Poll(SimTime now) override;

  std::vector<core::EntityInfo> Entities() override;
  const core::LogicalTopology& Topology(QueryId query) override;

  [[nodiscard]] const tsdb::TimeSeriesStore& store() const { return store_; }

 private:
  NativeSpeConfig config_;
  std::vector<core::LogicalTopology> topologies_;
  tsdb::TimeSeriesStore store_;
  std::streamoff metrics_offset_ = 0;
  // (query idx, operator idx) -> resolved tid (-1 while unresolved).
  std::map<std::pair<std::size_t, std::size_t>, long> tids_;
};

}  // namespace lachesis::osctl

#endif  // LACHESIS_OSCTL_NATIVE_DRIVER_H_
