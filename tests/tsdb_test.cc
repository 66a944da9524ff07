#include "tsdb/tsdb.h"

#include <gtest/gtest.h>

namespace lachesis::tsdb {
namespace {

TEST(TsdbTest, LatestOfMissingSeriesIsEmpty) {
  TimeSeriesStore store;
  EXPECT_EQ(store.Find("nope"), 0u);
  EXPECT_FALSE(store.Latest(store.Find("nope")).has_value());
  EXPECT_FALSE(store.Delta(store.Find("nope"), Seconds(1)).has_value());
}

TEST(TsdbTest, LatestReturnsNewestSample) {
  TimeSeriesStore store;
  const SeriesId s = store.Intern("s");
  store.Append(s, Seconds(1), 10);
  store.Append(s, Seconds(2), 20);
  const auto latest = store.Latest(s);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->time, Seconds(2));
  EXPECT_DOUBLE_EQ(latest->value, 20);
}

TEST(TsdbTest, DeltaOverWindow) {
  TimeSeriesStore store;
  const SeriesId counter = store.Intern("counter");
  for (int t = 0; t <= 10; ++t) {
    store.Append(counter, Seconds(t), 100.0 * t);
  }
  // Newest sample at least 3 s older than t=10 is t=7: delta = 300.
  const auto delta = store.Delta(counter, Seconds(3));
  ASSERT_TRUE(delta.has_value());
  EXPECT_DOUBLE_EQ(*delta, 300.0);
}

TEST(TsdbTest, DeltaNeedsTwoSamples) {
  TimeSeriesStore store;
  const SeriesId s = store.Intern("s");
  store.Append(s, Seconds(1), 5);
  EXPECT_FALSE(store.Delta(s, Seconds(1)).has_value());
}

TEST(TsdbTest, DeltaFallsBackToOldestSample) {
  TimeSeriesStore store;
  const SeriesId s = store.Intern("s");
  store.Append(s, Seconds(1), 10);
  store.Append(s, Seconds(1) + Millis(100), 17);
  // Window larger than the history: uses the oldest sample.
  const auto delta = store.Delta(s, Seconds(60));
  ASSERT_TRUE(delta.has_value());
  EXPECT_DOUBLE_EQ(*delta, 7.0);
}

TEST(TsdbTest, HistoryIsBounded) {
  TimeSeriesStore store(/*max_samples=*/5);
  const SeriesId s = store.Intern("s");
  for (int t = 0; t < 100; ++t) store.Append(s, Seconds(t), t);
  // Oldest retained sample is t=95; a huge window clamps to it.
  const auto delta = store.Delta(s, Seconds(1000));
  ASSERT_TRUE(delta.has_value());
  EXPECT_DOUBLE_EQ(*delta, 4.0);
}

TEST(TsdbTest, WrappedRingReadsInTimeOrder) {
  // Every wrap position: the ring's oldest slot moves on each append past
  // capacity, and reads must still see samples oldest-to-newest.
  TimeSeriesStore store(/*max_samples=*/4);
  const SeriesId s = store.Intern("s");
  for (int t = 0; t < 13; ++t) {
    store.Append(s, Seconds(t), 10.0 * t);
    EXPECT_DOUBLE_EQ(store.Latest(s)->value, 10.0 * t);
    if (t == 0) continue;
    EXPECT_DOUBLE_EQ(*store.Delta(s, Seconds(1)), 10.0);
    const int oldest = t < 4 ? 0 : t - 3;
    EXPECT_DOUBLE_EQ(*store.Delta(s, Seconds(100)), 10.0 * (t - oldest));
  }
}

TEST(TsdbTest, SeriesAreIndependent) {
  TimeSeriesStore store;
  store.Append(store.Intern("a"), Seconds(1), 1);
  store.Append(store.Intern("b"), Seconds(1), 2);
  EXPECT_DOUBLE_EQ(store.Latest(store.Find("a"))->value, 1);
  EXPECT_DOUBLE_EQ(store.Latest(store.Find("b"))->value, 2);
  EXPECT_EQ(store.series_count(), 2u);
}

TEST(TsdbTest, SeriesResolvedBeforeFirstSampleSeesLaterAppends) {
  // A reader may resolve a series before any writer has appended to it
  // (a fetch before the first scrape): it reads empty, then finds the data.
  TimeSeriesStore store;
  const SeriesId early = store.Intern("op.queue_size");
  EXPECT_FALSE(store.Latest(early).has_value());
  store.Append(store.Intern("op.queue_size"), Seconds(1), 7);
  EXPECT_EQ(store.Find("op.queue_size"), early);
  EXPECT_DOUBLE_EQ(store.Latest(early)->value, 7);
}

TEST(TsdbTest, SeriesCacheBuildsEachNameOnce) {
  TimeSeriesStore store;
  SeriesCache cache;
  int built = 0;
  const auto name = [&] {
    ++built;
    return std::string("op.tuples_in");
  };
  const SeriesId first = cache.Resolve(store, /*owner=*/3, /*metric=*/1, name);
  EXPECT_EQ(cache.Resolve(store, 3, 1, name), first);
  EXPECT_EQ(built, 1);
  EXPECT_EQ(store.Find("op.tuples_in"), first);
  EXPECT_NE(cache.Resolve(store, 3, 2, [] { return "op.tuples_out"; }), first);
}

}  // namespace
}  // namespace lachesis::tsdb
