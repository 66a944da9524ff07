#include "core/normalize.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

namespace lachesis::core {

namespace {
constexpr double kLog125 = 0.22314355131420976;  // log(1.25)

// Replaces non-finite policy outputs (a misbehaving metric source) with the
// nearest finite extreme so they cannot poison the normalization: NaN and
// -inf collapse to the finite minimum, +inf to the finite maximum.
void SanitizeFinite(std::span<double> values) {
  double finite_min = std::numeric_limits<double>::infinity();
  double finite_max = -std::numeric_limits<double>::infinity();
  for (const double v : values) {
    if (std::isfinite(v)) {
      finite_min = std::min(finite_min, v);
      finite_max = std::max(finite_max, v);
    }
  }
  if (!std::isfinite(finite_min)) {  // nothing finite at all
    std::fill(values.begin(), values.end(), 0.0);
    return;
  }
  for (double& v : values) {
    if (std::isfinite(v)) continue;
    v = v > 0 ? finite_max    // +inf
              : finite_min;   // -inf or NaN
  }
}

// Smallest positive value in `values`, or fallback when none exists.
double SmallestPositive(std::span<const double> values, double fallback) {
  double smallest = std::numeric_limits<double>::infinity();
  for (const double v : values) {
    if (v > 0) smallest = std::min(smallest, v);
  }
  return std::isfinite(smallest) ? smallest : fallback;
}
}  // namespace

void MinMaxNormalizeInPlace(std::span<double> values, double lo, double hi) {
  if (values.empty()) return;
  SanitizeFinite(values);
  const auto [min_it, max_it] = std::minmax_element(values.begin(), values.end());
  const double min = *min_it;
  const double max = *max_it;
  if (max - min <= 0) {
    std::fill(values.begin(), values.end(), (lo + hi) / 2);
    return;
  }
  for (double& v : values) v = lo + (hi - lo) * (v - min) / (max - min);
}

std::vector<double> MinMaxNormalize(const std::vector<double>& raw_values,
                                    double lo, double hi) {
  std::vector<double> result = raw_values;
  MinMaxNormalizeInPlace(result, lo, hi);
  return result;
}

std::vector<double> LogMinMaxNormalize(const std::vector<double>& raw_values,
                                       double lo, double hi) {
  std::vector<double> logs = raw_values;
  SanitizeFinite(logs);
  const double floor_value = SmallestPositive(logs, 1.0);
  for (double& v : logs) v = std::log(std::max(v, floor_value));
  MinMaxNormalizeInPlace(logs, lo, hi);
  return logs;
}

void PrioritiesToNiceInPlace(std::span<double> priorities, int nice_max,
                             std::span<int> out) {
  if (priorities.empty()) return;
  SanitizeFinite(priorities);
  const double floor_value = SmallestPositive(priorities, 1.0);
  double p_max = floor_value;
  for (const double p : priorities) p_max = std::max(p_max, p);

  // F(x) = n_max + (log(p_max) - log(x)) / log(1.25)
  const double log_p_max = std::log(p_max);
  double worst = static_cast<double>(nice_max);
  for (double& p : priorities) {
    const double x = std::max(p, floor_value);
    p = static_cast<double>(nice_max) + (log_p_max - std::log(x)) / kLog125;
    worst = std::max(worst, p);
  }
  // If the ratio p_max/p_min does not fit in the nice range, compress with a
  // min-max pass (paper §5.3).
  if (worst > 19.0) {
    MinMaxNormalizeInPlace(priorities, static_cast<double>(nice_max), 19.0);
  }
  for (std::size_t i = 0; i < priorities.size(); ++i) {
    out[i] = std::clamp(static_cast<int>(std::lround(priorities[i])), -20, 19);
  }
}

std::vector<int> PrioritiesToNice(const std::vector<double>& raw_priorities,
                                  int nice_max) {
  std::vector<int> result(raw_priorities.size());
  std::vector<double> scratch = raw_priorities;
  PrioritiesToNiceInPlace(scratch, nice_max, result);
  return result;
}

std::vector<std::uint64_t> PrioritiesToShares(
    const std::vector<double>& normalized, std::uint64_t min_shares,
    std::uint64_t max_shares) {
  std::vector<std::uint64_t> result(normalized.size());
  const double log_min = std::log(static_cast<double>(min_shares));
  const double log_max = std::log(static_cast<double>(max_shares));
  for (std::size_t i = 0; i < normalized.size(); ++i) {
    const double f =
        std::isfinite(normalized[i]) ? std::clamp(normalized[i], 0.0, 1.0) : 0.0;
    const double shares = std::exp(log_min + f * (log_max - log_min));
    result[i] = static_cast<std::uint64_t>(std::lround(
        std::clamp(shares, static_cast<double>(min_shares),
                   static_cast<double>(max_shares))));
  }
  return result;
}

}  // namespace lachesis::core
