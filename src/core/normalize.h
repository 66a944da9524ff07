// Priority normalization (paper §5.3).
//
// Policies emit real-valued priorities; OS mechanisms expect discrete values
// in fixed ranges (nice in [-20,19], cpu.shares in [2, 262144]). The
// normalization functions here hide that mismatch from policies (G1).
#ifndef LACHESIS_CORE_NORMALIZE_H_
#define LACHESIS_CORE_NORMALIZE_H_

#include <cstdint>
#include <span>
#include <vector>

namespace lachesis::core {

// Min-max normalizes `values` into [lo, hi] (linear). Constant inputs map to
// the midpoint.
std::vector<double> MinMaxNormalize(const std::vector<double>& values,
                                    double lo, double hi);

// Min-max on the logarithms (for logarithmically spaced priorities, e.g.
// HR). Non-positive values are clamped to the smallest positive input (or 1)
// before taking logs.
std::vector<double> LogMinMaxNormalize(const std::vector<double>& values,
                                       double lo, double hi);

// The paper's nice mapping: given priorities p_i, anchors the maximum at
// nice n_max and spaces the rest by the kernel's 1.25x-per-step rule:
//   F(x) = n_max + (log(p_max) - log(x)) / log(1.25).
// When the resulting range exceeds the nice interval, an additional min-max
// pass compresses it into [n_max, 19].
std::vector<int> PrioritiesToNice(const std::vector<double>& priorities,
                                  int nice_max = -20);

// In-place forms for callers that keep scratch buffers across ticks (the
// translators): same results, bit for bit, without allocating.
void MinMaxNormalizeInPlace(std::span<double> values, double lo, double hi);
// PrioritiesToNice into `out` (same size as `priorities`); `priorities` is
// overwritten with the unrounded nice values.
void PrioritiesToNiceInPlace(std::span<double> priorities, int nice_max,
                             std::span<int> out);

// Maps normalized priorities to cpu.shares: priority 0 -> min_shares,
// priority 1 -> max_shares, geometric interpolation (shares are weights, so
// equal ratios mean equal relative boosts). The default 32:1 span is strong
// enough to redirect CPU to backlogged groups but does not starve
// unprioritized ones for a whole scheduling period (which would make
// second-stale priorities oscillate).
std::vector<std::uint64_t> PrioritiesToShares(
    const std::vector<double>& normalized, std::uint64_t min_shares = 256,
    std::uint64_t max_shares = 8192);

}  // namespace lachesis::core

#endif  // LACHESIS_CORE_NORMALIZE_H_
