#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"

namespace easydram {

void Summary::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  sum_ += x;
  ++count_;
}

double Summary::mean() const { return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_); }

double geomean(std::span<const double> xs, GeomeanPolicy policy) {
  if (xs.empty() && policy == GeomeanPolicy::kThrow) {
    throw StatsError("geomean: empty input");
  }
  double log_sum = 0.0;
  std::size_t used = 0;
  for (double x : xs) {
    if (!(x > 0.0)) {  // Also catches NaN (all comparisons false).
      if (policy == GeomeanPolicy::kThrow) {
        throw StatsError("geomean: non-positive sample " + std::to_string(x));
      }
      continue;
    }
    log_sum += std::log(x);
    ++used;
  }
  if (used == 0) return 0.0;
  return std::exp(log_sum / static_cast<double>(used));
}

double mean(std::span<const double> xs) {
  if (xs.empty()) throw StatsError("mean: empty input");
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) {
  if (xs.empty()) throw StatsError("stddev: empty input");
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double sq = 0.0;
  for (double x : xs) sq += (x - m) * (x - m);
  return std::sqrt(sq / static_cast<double>(xs.size() - 1));
}

double percentile(std::span<const double> xs, double pct) {
  if (xs.empty()) throw StatsError("percentile: empty input");
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  return percentile_of_sorted(sorted.size(), pct,
                              [&sorted](std::size_t k) { return sorted[k]; });
}

double p50(std::span<const double> xs) { return percentile(xs, 50.0); }

double p95(std::span<const double> xs) { return percentile(xs, 95.0); }

std::vector<std::pair<std::int64_t, std::size_t>> CountHistogram::sorted_counts() const {
  std::vector<std::pair<std::int64_t, std::size_t>> out;
  // Negative values, then the array, then values at or above its limit.
  const auto non_negative = sparse_.lower_bound(0);
  out.insert(out.end(), sparse_.begin(), non_negative);
  for (std::size_t v = 0; v < dense_.size(); ++v) {
    if (dense_[v] != 0) out.emplace_back(static_cast<std::int64_t>(v), dense_[v]);
  }
  out.insert(out.end(), non_negative, sparse_.end());
  return out;
}

double CountHistogram::mean() const {
  if (count_ == 0) throw StatsError("mean: empty input");
  return static_cast<double>(sum_) / static_cast<double>(count_);
}

double CountHistogram::percentile(double pct) const {
  if (count_ == 0) throw StatsError("percentile: empty input");
  const auto sorted = sorted_counts();
  return percentile_of_sorted(count_, pct, [&sorted](std::size_t k) {
    std::size_t through = 0;  // Samples at or below the current value.
    for (const auto& [value, n] : sorted) {
      through += n;
      if (k < through) return static_cast<double>(value);
    }
    return static_cast<double>(sorted.back().first);  // Unreachable: k < count_.
  });
}

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), counts_(buckets, 0) {
  EASYDRAM_EXPECTS(hi > lo);
  EASYDRAM_EXPECTS(buckets > 0);
}

void Histogram::add(double x) {
  if (!std::isfinite(x)) {
    ++rejected_;
    return;
  }
  const double span = hi_ - lo_;
  // Clamp in double space before the integer cast: converting a value whose
  // truncation does not fit std::ptrdiff_t is undefined behaviour.
  double pos = (x - lo_) / span * static_cast<double>(counts_.size());
  pos = std::clamp(pos, 0.0, static_cast<double>(counts_.size() - 1));
  ++counts_[static_cast<std::size_t>(pos)];
  ++total_;
}

double Histogram::bucket_low(std::size_t bucket) const {
  EASYDRAM_EXPECTS(bucket < counts_.size());
  return lo_ + (hi_ - lo_) * static_cast<double>(bucket) / static_cast<double>(counts_.size());
}

}  // namespace easydram
