// A Graphite-like time-series store (paper §6.1).
//
// All evaluated SPEs report their metrics to Graphite, which Lachesis then
// queries; the store's one-second resolution is what bounds Lachesis'
// scheduling period in the paper. The store keeps a bounded history per
// series and supports the two reads drivers need: the latest sample and a
// windowed delta (for rates / per-tuple costs from cumulative counters).
// Series are interned ids; each is a ring that grows to `max_samples` and
// then overwrites in place, so a full series appends without allocating.
#ifndef LACHESIS_TSDB_TSDB_H_
#define LACHESIS_TSDB_TSDB_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "common/hash_index.h"
#include "common/sim_time.h"

namespace lachesis::tsdb {

struct Sample {
  SimTime time;
  double value;
};

// Dense series id; 0 names no series and always reads empty.
using SeriesId = std::uint32_t;

class TimeSeriesStore {
 public:
  // Retains at most `max_samples` points per series (ring semantics).
  explicit TimeSeriesStore(std::size_t max_samples = 600)
      : max_samples_(std::max<std::size_t>(max_samples, 1)), series_(1) {}

  // Id of `name`, creating an empty series on first sight.
  SeriesId Intern(std::string_view name) {
    const SeriesId id = names_.Intern(name);
    if (id >= series_.size()) series_.resize(id + 1);
    return id;
  }

  // Id of an existing series, 0 when `name` was never interned.
  [[nodiscard]] SeriesId Find(std::string_view name) const {
    return names_.Lookup(name);
  }

  void Append(SeriesId id, SimTime time, double value) {
    assert(id != 0 && id < series_.size());
    Ring& ring = series_[id];
    if (ring.samples.size() < max_samples_) {
      if (ring.samples.size() == ring.samples.capacity()) {
        ring.samples.reserve(
            std::min(std::max<std::size_t>(ring.samples.size() * 2, 8),
                     max_samples_));
      }
      ring.samples.push_back({time, value});
      return;
    }
    ring.samples[ring.oldest] = {time, value};
    ring.oldest = (ring.oldest + 1) % ring.samples.size();
  }

  [[nodiscard]] std::optional<Sample> Latest(SeriesId id) const {
    const Ring& ring = series_[id];
    if (ring.samples.empty()) return std::nullopt;
    return ring.At(ring.samples.size() - 1);
  }

  // Difference between the newest sample and the newest sample at least
  // `window` older; nullopt when fewer than two samples exist. Useful for
  // turning cumulative counters into windowed deltas.
  [[nodiscard]] std::optional<double> Delta(SeriesId id,
                                            SimDuration window) const {
    const Ring& ring = series_[id];
    const std::size_t n = ring.samples.size();
    if (n < 2) return std::nullopt;
    const Sample& last = ring.At(n - 1);
    for (std::size_t i = n - 1; i-- > 0;) {
      const Sample& s = ring.At(i);
      if (last.time - s.time >= window) return last.value - s.value;
    }
    // No sample old enough: fall back to the oldest available.
    return last.value - ring.At(0).value;
  }

  // Series known to the store, including ones resolved but not yet written.
  [[nodiscard]] std::size_t series_count() const { return series_.size() - 1; }

 private:
  struct Ring {
    std::vector<Sample> samples;
    std::size_t oldest = 0;  // index of the oldest sample once full
    [[nodiscard]] const Sample& At(std::size_t i) const {  // i-th oldest
      return samples[(oldest + i) % samples.size()];
    }
  };

  std::size_t max_samples_;
  StringInterner names_;
  std::vector<Ring> series_;  // indexed by SeriesId; [0] stays empty
};

// Resolves (owner, metric) pairs to series ids once; an owner (operator id
// or address) must name one series prefix for the cache's lifetime.
class SeriesCache {
 public:
  template <typename NameFn>
  SeriesId Resolve(TimeSeriesStore& store, std::uint64_t owner,
                   std::uint32_t metric, NameFn&& name) {
    const Key key{owner, metric, 0};
    if (const SeriesId* id = ids_.Find(key)) return *id;
    return ids_.Insert(key, store.Intern(name()));
  }

 private:
  struct Key {
    std::uint64_t owner;
    std::uint32_t metric;
    std::uint32_t pad;  // keeps the key padding-free for PodHash
    bool operator==(const Key&) const = default;
  };
  FlatMap<Key, SeriesId> ids_;
};

}  // namespace lachesis::tsdb

#endif  // LACHESIS_TSDB_TSDB_H_
