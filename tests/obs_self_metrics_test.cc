// Self-metrics: the catalog is authoritative and triple-pinned -- the
// runner's snapshot must report exactly the cataloged names, the Prometheus
// textfile render must follow exposition format, and docs/OBSERVABILITY.md
// must document every metric (and nothing that does not exist).
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/policies.h"
#include "core/runner.h"
#include "core/sim_executor.h"
#include "core/translators.h"
#include "obs/self_metrics.h"
#include "sim/simulator.h"
#include "tests/fake_driver.h"
#include "tsdb/tsdb.h"

namespace lachesis::core {
namespace {

using testing::FakeDriver;
using testing::RecordingOsAdapter;

#ifndef LACHESIS_SOURCE_DIR
#error "build must define LACHESIS_SOURCE_DIR"
#endif
constexpr const char kObservabilityDoc[] =
    LACHESIS_SOURCE_DIR "/docs/OBSERVABILITY.md";

// A short sim run so counters are nonzero and state is realistic.
obs::SelfMetricsSnapshot LiveSnapshot() {
  sim::Simulator sim;
  SimControlExecutor executor(sim);
  RecordingOsAdapter os;
  LachesisRunner runner(executor, os, /*seed=*/5);
  FakeDriver driver;
  const EntityInfo e = driver.AddEntity(QueryId(0), {0});
  driver.Provide(MetricId::kQueueSize);
  driver.SetValue(MetricId::kQueueSize, e.id, 9.0);
  PolicyBinding binding;
  binding.policy = std::make_unique<QueueSizePolicy>();
  binding.translator = std::make_unique<NiceTranslator>();
  binding.period = Seconds(1);
  binding.drivers = {&driver};
  runner.AddQuery(std::move(binding));
  runner.ReconcileWithBackend();
  runner.Start(Seconds(5));
  sim.RunUntil(Seconds(5));
  return runner.CollectSelfMetrics();
}

TEST(SelfMetricsTest, RunnerSnapshotMatchesCatalogExactly) {
  const obs::SelfMetricsSnapshot snapshot = LiveSnapshot();
  const std::vector<std::string> diff = obs::CatalogDiff(snapshot);
  std::string joined;
  for (const std::string& d : diff) joined += "\n  " + d;
  EXPECT_TRUE(diff.empty())
      << "snapshot and catalog disagree (update obs/self_metrics.h AND "
         "LachesisRunner::CollectSelfMetrics AND docs/OBSERVABILITY.md "
         "together):"
      << joined;
  EXPECT_EQ(static_cast<int>(snapshot.size()), obs::kSelfMetricCount);
}

TEST(SelfMetricsTest, LiveCountersAreNonTrivial) {
  const obs::SelfMetricsSnapshot snapshot = LiveSnapshot();
  double ticks = -1, applied = -1, attached = -1, recorded = -1;
  for (const obs::MetricValue& m : snapshot) {
    if (m.name == "lachesis_ticks_total") ticks = m.value;
    if (m.name == "lachesis_ops_applied_total") applied = m.value;
    if (m.name == "lachesis_attached_queries") attached = m.value;
    if (m.name == "lachesis_obs_events_recorded_total") recorded = m.value;
  }
  EXPECT_GE(ticks, 4.0);
  EXPECT_GT(applied, 0.0);
  EXPECT_EQ(attached, 1.0);
  EXPECT_GT(recorded, 0.0);
}

TEST(SelfMetricsTest, FindMetricDefResolvesCatalogOnly) {
  ASSERT_NE(obs::FindMetricDef("lachesis_ticks_total"), nullptr);
  EXPECT_STREQ(obs::FindMetricDef("lachesis_ticks_total")->type, "counter");
  EXPECT_STREQ(obs::FindMetricDef("lachesis_open_breakers")->type, "gauge");
  EXPECT_EQ(obs::FindMetricDef("lachesis_no_such_metric"), nullptr);
}

TEST(SelfMetricsTest, TextfileRenderFollowsExpositionFormat) {
  const std::string text = obs::RenderPrometheusTextfile(LiveSnapshot());
  // Every cataloged metric gets HELP + TYPE + a sample, in catalog order.
  std::size_t pos = 0;
  for (const obs::MetricDef& def : obs::kSelfMetricCatalog) {
    const std::string help = std::string("# HELP ") + def.name + " ";
    const std::string type =
        std::string("# TYPE ") + def.name + " " + def.type + "\n";
    const std::size_t at = text.find(help, pos);
    ASSERT_NE(at, std::string::npos) << "missing stanza for " << def.name;
    EXPECT_NE(text.find(type, at), std::string::npos)
        << "missing TYPE line for " << def.name;
    EXPECT_NE(text.find(std::string(def.name) + " ", at), std::string::npos)
        << "missing sample line for " << def.name;
    pos = at;  // enforces catalog order
  }
  EXPECT_EQ(text.find("uncataloged"), std::string::npos);
  EXPECT_EQ(text.back(), '\n');
}

TEST(SelfMetricsTest, UncatalogedValuesAreRenderedWithMarker) {
  obs::SelfMetricsSnapshot snapshot = {{"lachesis_ticks_total", 3.0},
                                       {"lachesis_mystery_metric", 1.5}};
  const std::string text = obs::RenderPrometheusTextfile(snapshot);
  EXPECT_NE(text.find("lachesis_mystery_metric 1.5"), std::string::npos);
  EXPECT_NE(text.find("(uncataloged)"), std::string::npos);
  // Uncataloged stanzas come after every cataloged one.
  EXPECT_GT(text.find("lachesis_mystery_metric"),
            text.find("lachesis_ticks_total"));
}

TEST(SelfMetricsTest, WriteTextfileIsAtomicAndReadable) {
  const std::string path = ::testing::TempDir() + "/lachesis_selfmetrics.prom";
  const obs::SelfMetricsSnapshot snapshot = LiveSnapshot();
  ASSERT_TRUE(obs::WritePrometheusTextfile(snapshot, path));
  std::ifstream in(path);
  std::ostringstream read;
  read << in.rdbuf();
  EXPECT_EQ(read.str(), obs::RenderPrometheusTextfile(snapshot));
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
  EXPECT_FALSE(obs::WritePrometheusTextfile(snapshot, "/nonexistent-dir/x"));
}

TEST(SelfMetricsTest, PublishBridgesIntoTimeSeriesStore) {
  tsdb::TimeSeriesStore store;
  const obs::SelfMetricsSnapshot snapshot = LiveSnapshot();
  obs::PublishSelfMetrics(snapshot, [&store](const std::string& name,
                                             double value) {
    store.Append(store.Intern("self." + name), Seconds(5), value);
  });
  EXPECT_EQ(store.series_count(), snapshot.size());
  const auto latest = store.Latest(store.Find("self.lachesis_ticks_total"));
  ASSERT_TRUE(latest.has_value());
  EXPECT_GE(latest->value, 4.0);
  EXPECT_EQ(latest->time, Seconds(5));
}

// The documentation pin: docs/OBSERVABILITY.md must name every cataloged
// metric inside its marked catalog section, and that section must not
// document metrics that are no longer in the catalog.
TEST(SelfMetricsTest, ObservabilityDocCoversCatalogExactly) {
  std::ifstream in(kObservabilityDoc);
  ASSERT_TRUE(in) << "missing " << kObservabilityDoc;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string full = buf.str();

  // The doc fences its catalog between these markers so prose elsewhere can
  // mention library/file names without tripping the staleness check.
  const std::string begin_marker = "<!-- self-metrics-catalog:begin -->";
  const std::string end_marker = "<!-- self-metrics-catalog:end -->";
  const std::size_t begin = full.find(begin_marker);
  const std::size_t end = full.find(end_marker);
  ASSERT_NE(begin, std::string::npos)
      << kObservabilityDoc << " lost its " << begin_marker << " marker";
  ASSERT_NE(end, std::string::npos);
  ASSERT_LT(begin, end);
  const std::string doc = full.substr(begin, end - begin);

  std::set<std::string> documented;
  // Collect every `lachesis_*` identifier mentioned in the section.
  static const std::string kAllowed =
      "abcdefghijklmnopqrstuvwxyz0123456789_";
  for (std::size_t at = doc.find("lachesis_"); at != std::string::npos;
       at = doc.find("lachesis_", at + 1)) {
    std::size_t scan = at;
    while (scan < doc.size() &&
           kAllowed.find(doc[scan]) != std::string::npos) {
      ++scan;
    }
    documented.insert(doc.substr(at, scan - at));
  }

  std::set<std::string> cataloged;
  for (const obs::MetricDef& def : obs::kSelfMetricCatalog) {
    cataloged.insert(def.name);
    EXPECT_TRUE(documented.count(def.name))
        << "docs/OBSERVABILITY.md does not document " << def.name;
  }
  for (const std::string& name : documented) {
    EXPECT_TRUE(cataloged.count(name))
        << "docs/OBSERVABILITY.md mentions '" << name
        << "' which is not in the self-metrics catalog "
           "(obs/self_metrics.h)";
  }
}

}  // namespace
}  // namespace lachesis::core
