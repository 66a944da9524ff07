// Control-plane self-metrics: the control plane watching itself.
//
// The runner snapshots its own counters (ticks, delta-layer op outcomes,
// breaker/degradation state, recorder health) into a SelfMetricsSnapshot;
// this module renders that snapshot in Prometheus textfile exposition
// format and keeps the authoritative catalog of every metric's name, type,
// unit and meaning. docs/OBSERVABILITY.md documents the same catalog, and a
// tier-1 test pins the two to each other -- adding a metric without
// documenting it (or documenting one that no longer exists) fails CI.
#ifndef LACHESIS_OBS_SELF_METRICS_H_
#define LACHESIS_OBS_SELF_METRICS_H_

#include <string>
#include <string_view>
#include <vector>

namespace lachesis::obs {

struct MetricDef {
  const char* name;
  const char* type;  // "counter" | "gauge"
  const char* unit;  // "1", "seconds", "entries", ...
  const char* help;  // one-line meaning, mirrored in docs/OBSERVABILITY.md
};

// The full catalog. Order here is exposition order in the textfile.
inline constexpr MetricDef kSelfMetricCatalog[] = {
    {"lachesis_ticks_total", "counter", "1",
     "Control-loop ticks executed since start."},
    {"lachesis_idle_ticks_total", "counter", "1",
     "Ticks in which no policy was due (pure wake-and-sleep)."},
    {"lachesis_tick_overruns_total", "counter", "1",
     "Wakeups dispatched a whole wake interval late (e.g. after a tick that "
     "overran); the missed period is skipped, not caught up."},
    {"lachesis_policies_run_total", "counter", "1",
     "Policy evaluations across all bindings and ticks."},
    {"lachesis_schedules_applied_total", "counter", "1",
     "Translator Apply() invocations (one per policy run that produced a "
     "schedule)."},
    {"lachesis_ops_applied_total", "counter", "1",
     "OS operations that reached the backend and succeeded."},
    {"lachesis_ops_skipped_total", "counter", "1",
     "OS operations elided by the delta layer (value already in place)."},
    {"lachesis_ops_errors_total", "counter", "1",
     "OS operations that reached the backend and failed."},
    {"lachesis_ops_suppressed_total", "counter", "1",
     "OS operations withheld by backoff or an open circuit breaker."},
    {"lachesis_open_breakers", "gauge", "1",
     "Op classes whose circuit breaker is currently open."},
    {"lachesis_breaker_opens_total", "counter", "1",
     "Breaker open transitions summed over all op classes since start."},
    {"lachesis_degraded_bindings", "gauge", "1",
     "Policy bindings currently running a fallback translator (rung > 0)."},
    {"lachesis_attached_queries", "gauge", "1",
     "Policy bindings currently attached and enabled."},
    {"lachesis_wake_interval_seconds", "gauge", "seconds",
     "GCD of binding periods: how often the control loop wakes."},
    {"lachesis_tracked_backoff_targets", "gauge", "entries",
     "Targets with live per-target backoff state in the health tracker."},
    {"lachesis_reconcile_seeded_entries", "gauge", "entries",
     "Delta-cache entries seeded by the most recent backend reconcile."},
    {"lachesis_adopted_cgroups", "gauge", "entries",
     "Pre-existing cgroups adopted by the most recent backend reconcile."},
    {"lachesis_obs_events_recorded_total", "counter", "1",
     "Observability events recorded into the provenance ring."},
    {"lachesis_obs_events_dropped_total", "counter", "1",
     "Observability events evicted from the ring before export."},
};
inline constexpr int kSelfMetricCount =
    static_cast<int>(sizeof(kSelfMetricCatalog) / sizeof(MetricDef));

struct MetricValue {
  std::string name;
  double value = 0.0;
};
using SelfMetricsSnapshot = std::vector<MetricValue>;

// nullptr when the name is not in the catalog.
[[nodiscard]] const MetricDef* FindMetricDef(std::string_view name);

// Renders "# HELP ... / # TYPE ... / name value" stanzas in catalog order.
// Values not present in the snapshot are omitted; values whose names are
// not in the catalog are rendered last with a "# HELP ... (uncataloged)"
// marker so they are visible rather than silently dropped.
[[nodiscard]] std::string RenderPrometheusTextfile(
    const SelfMetricsSnapshot& snapshot);

// Returns human-readable discrepancies between the snapshot and the
// catalog: snapshot names missing from the catalog and catalog entries the
// snapshot never reported. Empty means the two agree exactly -- the
// self-metrics test asserts this against a live runner.
[[nodiscard]] std::vector<std::string> CatalogDiff(
    const SelfMetricsSnapshot& snapshot);

// Atomic write (tmp + rename) for node_exporter textfile collection.
bool WritePrometheusTextfile(const SelfMetricsSnapshot& snapshot,
                             const std::string& path);

// Bridges a snapshot into any sink with an `append(name, value)` shape --
// e.g. a tsdb::TimeSeriesStore series per metric. obs deliberately does not
// link the tsdb layer; the caller owns the store.
template <typename AppendFn>
void PublishSelfMetrics(const SelfMetricsSnapshot& snapshot,
                        AppendFn&& append) {
  for (const MetricValue& m : snapshot) append(m.name, m.value);
}

}  // namespace lachesis::obs

#endif  // LACHESIS_OBS_SELF_METRICS_H_
