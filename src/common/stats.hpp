#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/contracts.hpp"

namespace easydram {

/// Thrown by statistics helpers on invalid input (e.g. a non-positive
/// sample fed to geomean). Unlike ContractViolation this is an expected,
/// catchable condition: benches can report "n/a" instead of dying.
class StatsError : public std::invalid_argument {
 public:
  explicit StatsError(const std::string& what) : std::invalid_argument(what) {}
};

/// Streaming summary of a series of samples: count, mean, min, max.
class Summary {
 public:
  void add(double x);

  std::size_t count() const { return count_; }
  double mean() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return sum_; }

 private:
  std::size_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// What geomean does with a non-positive sample (for which log() is
/// undefined): throw a StatsError, or skip the sample and average the rest.
enum class GeomeanPolicy {
  kThrow,
  kSkipNonPositive,
};

// Empty-input policy, uniform across the free aggregation functions: an
// empty span throws StatsError. A statistic of nothing is not 0.0, and the
// old silent-zero behaviour let an accidentally empty sweep masquerade as
// a measured result. (Summary, the *streaming* accumulator, keeps its
// explicit count() so callers branch on emptiness themselves.)

/// Geometric mean of positive samples. Under kSkipNonPositive, non-positive
/// samples are skipped and 0 is returned when nothing (or nothing positive)
/// remains; under kThrow, an empty span or any non-positive sample throws.
double geomean(std::span<const double> xs,
               GeomeanPolicy policy = GeomeanPolicy::kThrow);

/// Arithmetic mean. Throws StatsError for an empty span.
double mean(std::span<const double> xs);

/// Sample standard deviation (n-1 denominator). Throws StatsError for an
/// empty span; returns 0 for a single sample (the undefined n-1 case is
/// pinned to 0 so single-repetition runs report a spread of "none").
double stddev(std::span<const double> xs);

/// Percentile in [0, 100] by linear interpolation between closest ranks.
/// Throws StatsError for an empty span; the single element for a
/// one-element span.
double percentile(std::span<const double> xs, double pct);

/// The `pct` percentile (in [0, 100]) of `n` ascending values by linear
/// interpolation between closest ranks, where `nth(k)` is the k-th smallest
/// value (k < n). The one home of the interpolation formula: percentile()
/// reads a sorted copy, CountHistogram::percentile walks its counts.
/// Precondition: n > 0.
template <class NthSmallest>
double percentile_of_sorted(std::size_t n, double pct, NthSmallest nth) {
  EASYDRAM_EXPECTS(n > 0 && pct >= 0.0 && pct <= 100.0);
  if (n == 1) return nth(0);
  const double rank = pct / 100.0 * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, n - 1);
  const double frac = rank - static_cast<double>(lo);
  const double at_lo = nth(lo);
  return at_lo + (nth(hi) - at_lo) * frac;
}

/// Median (50th percentile).
double p50(std::span<const double> xs);

/// 95th percentile.
double p95(std::span<const double> xs);

/// Exact histogram of integer samples: one count per value, so its memory
/// grows with the range of values seen, not with the sample count. Values
/// in [0, kDenseLimit) are counted in an array indexed by value and grown
/// to the largest one seen (at most 128 KiB); any other value gets an entry
/// of its own. mean() and percentile() equal the free mean() and
/// percentile() over the expanded samples converted to double, bit for
/// bit, while every partial sum of the ascending samples stays below 2^53
/// in magnitude (up to there a sum of integral doubles is exact).
class CountHistogram {
 public:
  /// Values below this (and not negative) are counted in the array.
  static constexpr std::int64_t kDenseLimit = 1 << 14;

  /// One array increment for an in-range value: the system adds one
  /// sample per completed request.
  void add(std::int64_t value) {
    if (value >= 0 && value < kDenseLimit) {
      const auto i = static_cast<std::size_t>(value);
      if (i >= dense_.size()) dense_.resize(i + 1, 0);
      ++dense_[i];
    } else {
      ++sparse_[value];
    }
    ++count_;
    sum_ += value;
  }

  /// Samples added.
  std::size_t count() const { return count_; }
  /// (value, number of samples with that value), ascending by value, one
  /// entry per distinct value.
  std::vector<std::pair<std::int64_t, std::size_t>> sorted_counts() const;
  /// Arithmetic mean. Throws StatsError when empty.
  double mean() const;
  /// Percentile in [0, 100], as percentile() computes it over the sorted
  /// samples. Throws StatsError when empty.
  double percentile(double pct) const;

 private:
  std::vector<std::size_t> dense_;  ///< Count of value i at index i.
  std::map<std::int64_t, std::size_t> sparse_;  ///< Every other value.
  std::size_t count_ = 0;
  std::int64_t sum_ = 0;
};

/// Fixed-bucket histogram over [lo, hi); finite samples outside are clamped
/// into the first/last bucket, non-finite samples are rejected (counted in
/// rejected(), excluded from total()). Used by characterization studies and
/// tests.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double x);
  std::size_t bucket_count() const { return counts_.size(); }
  std::size_t count_at(std::size_t bucket) const { return counts_.at(bucket); }
  std::size_t total() const { return total_; }
  std::size_t rejected() const { return rejected_; }
  double bucket_low(std::size_t bucket) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
  std::size_t rejected_ = 0;
};

}  // namespace easydram
