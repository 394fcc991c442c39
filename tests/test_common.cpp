#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace easydram {
namespace {

using namespace easydram::literals;

TEST(Contracts, ExpectsThrowsWithLocation) {
  try {
    EASYDRAM_EXPECTS(1 == 2);
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Contracts, EnsuresThrows) {
  EXPECT_THROW(EASYDRAM_ENSURES(false), ContractViolation);
  EXPECT_NO_THROW(EASYDRAM_ENSURES(true));
}

TEST(Units, LiteralsAndArithmetic) {
  EXPECT_EQ((1_ns).count, 1000);
  EXPECT_EQ((2_us).count, 2'000'000);
  EXPECT_EQ((1_ms).count, 1'000'000'000);
  EXPECT_EQ((3_ns + 500_ps).count, 3500);
  EXPECT_EQ((3_ns - 500_ps).count, 2500);
  EXPECT_EQ(((1_ns) * 7).count, 7000);
  EXPECT_LT(1_ns, 2_ns);
  EXPECT_DOUBLE_EQ((1500_ps).nanoseconds(), 1.5);
}

TEST(Units, FrequencyPeriod) {
  EXPECT_EQ(Frequency::megahertz(100).period().count, 10'000);
  EXPECT_EQ(Frequency::gigahertz(1).period().count, 1000);
}

TEST(Units, CyclesToPsRoundTrip) {
  const Frequency f = Frequency::megahertz(100);
  EXPECT_EQ(f.cycles_to_ps(1).count, 10'000);
  EXPECT_EQ(f.cycles_to_ps(123).count, 1'230'000);
  EXPECT_EQ(f.ps_to_cycles_floor(Picoseconds{19'999}), 1);
  EXPECT_EQ(f.ps_to_cycles_ceil(Picoseconds{19'999}), 2);
  EXPECT_EQ(f.ps_to_cycles_ceil(Picoseconds{20'000}), 2);
}

TEST(Units, NonDivisibleFrequencyRoundsDeterministically) {
  const Frequency f{1'430'000'000};  // 1.43 GHz: period ~699.3 ps.
  const std::int64_t cycles = 1'000'000;
  const Picoseconds t = f.cycles_to_ps(cycles);
  EXPECT_NEAR(static_cast<double>(t.count), 1e6 * 1e12 / 1.43e9, 1.0);
  // Round-trip may lose at most one cycle to ps rounding.
  EXPECT_NEAR(static_cast<double>(f.ps_to_cycles_floor(t)),
              static_cast<double>(cycles), 1.0);
}

struct FreqCase {
  std::int64_t hertz;
  std::int64_t cycles;
};

class FrequencyProperty : public ::testing::TestWithParam<FreqCase> {};

TEST_P(FrequencyProperty, CeilNeverBelowFloorAndCoversDuration) {
  const auto [hz, cycles] = GetParam();
  const Frequency f{hz};
  const Picoseconds t = f.cycles_to_ps(cycles);
  EXPECT_GE(f.ps_to_cycles_ceil(t), f.ps_to_cycles_floor(t));
  // Ceil covers the duration: converting back does not lose time.
  EXPECT_GE(f.cycles_to_ps(f.ps_to_cycles_ceil(t)) + Picoseconds{1}, t);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FrequencyProperty,
    ::testing::Values(FreqCase{50'000'000, 1}, FreqCase{50'000'000, 999},
                      FreqCase{100'000'000, 12345}, FreqCase{666'666'666, 7},
                      FreqCase{1'000'000'000, 1'000'000},
                      FreqCase{1'430'000'000, 33'333},
                      FreqCase{3'200'000'000, 500'000'001}));

TEST(Rng, SplitMix64IsDeterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, HashMixDiffersByKey) {
  EXPECT_NE(hash_mix(1, 2, 3), hash_mix(1, 2, 4));
  EXPECT_NE(hash_mix(1, 2, 3), hash_mix(2, 2, 3));
  EXPECT_EQ(hash_mix(7, 8, 9), hash_mix(7, 8, 9));
}

TEST(Rng, UnitDoubleInRange) {
  SplitMix64 sm(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = to_unit_double(sm.next());
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, XoshiroNextBelowIsBounded) {
  Xoshiro256ss rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, XoshiroUniformish) {
  Xoshiro256ss rng(1234);
  int buckets[10] = {};
  const int n = 100'000;
  for (int i = 0; i < n; ++i) ++buckets[rng.next_below(10)];
  for (int b : buckets) {
    EXPECT_NEAR(static_cast<double>(b), n / 10.0, n / 10.0 * 0.1);
  }
}

TEST(Stats, SummaryTracksMinMaxMean) {
  Summary s;
  s.add(1.0);
  s.add(3.0);
  s.add(2.0);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

TEST(Stats, GeomeanOfPowers) {
  const double xs[] = {1.0, 4.0, 16.0};
  EXPECT_NEAR(geomean(xs), 4.0, 1e-9);
}

TEST(Stats, GeomeanRejectsNonPositive) {
  const double xs[] = {1.0, 0.0};
  EXPECT_THROW(geomean(xs), StatsError);
  const double all_zero[] = {0.0, 0.0};
  EXPECT_THROW(geomean(all_zero), StatsError);
}

TEST(Stats, GeomeanSkipPolicyAveragesPositives) {
  const double xs[] = {0.0, 4.0, -1.0, 16.0};
  EXPECT_NEAR(geomean(xs, GeomeanPolicy::kSkipNonPositive), 8.0, 1e-9);
  const double all_zero[] = {0.0, 0.0};
  EXPECT_DOUBLE_EQ(geomean(all_zero, GeomeanPolicy::kSkipNonPositive), 0.0);
  // The skip policy also tolerates emptiness (nothing remains -> 0).
  EXPECT_DOUBLE_EQ(geomean({}, GeomeanPolicy::kSkipNonPositive), 0.0);
}

// Unified empty-input policy: a statistic of no samples is an error, not a
// silent 0.0 (matching geomean's existing strict default). Scenarios never
// hit this (every sweep has >= 1 repetition); benches report "n/a" instead.
TEST(Stats, EmptyInputThrowsAcrossTheFamily) {
  EXPECT_THROW(mean({}), StatsError);
  EXPECT_THROW(stddev({}), StatsError);
  EXPECT_THROW(percentile({}, 50.0), StatsError);
  EXPECT_THROW(p50({}), StatsError);
  EXPECT_THROW(p95({}), StatsError);
  EXPECT_THROW(geomean({}), StatsError);
  // The streaming Summary keeps its branchable count() contract instead.
  EXPECT_DOUBLE_EQ(Summary{}.mean(), 0.0);
}

TEST(Stats, StddevSmallSpans) {
  const double one[] = {42.0};
  EXPECT_DOUBLE_EQ(stddev(one), 0.0);
  const double xs[] = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_NEAR(stddev(xs), 2.138089935, 1e-6);  // Sample (n-1) stddev.
}

TEST(Stats, PercentileSmallSpans) {
  const double one[] = {7.0};
  EXPECT_DOUBLE_EQ(p50(one), 7.0);
  EXPECT_DOUBLE_EQ(p95(one), 7.0);
  const double xs[] = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(p50(xs), 2.5);
  EXPECT_NEAR(percentile(xs, 100.0), 4.0, 1e-12);
  EXPECT_NEAR(p95(xs), 3.85, 1e-9);
}

// CountHistogram keeps one count per distinct value; its reductions must be
// the ones mean()/percentile() compute over the expanded, sorted samples,
// bit for bit. Multisets of every size class: one element, two elements,
// heavy duplication (values from a narrow range) and wide spreads.
TEST(Stats, CountHistogramMatchesExpandedSamplesExactly) {
  Xoshiro256ss rng(0xC0FFEE);
  const std::size_t sizes[] = {1, 2, 3, 7, 100, 1000, 4097};
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = sizes[trial % std::size(sizes)];
    // Narrow ranges force duplicates; wide ones make most values distinct
    // and reach past the dense array; a negative base adds values below it.
    const std::uint64_t range = trial % 2 == 0 ? 1 + rng.next_below(20)
                                               : 1 + rng.next_below(5'000'000);
    const std::int64_t base = static_cast<std::int64_t>(rng.next_below(1000)) -
                              (trial % 4 == 1 ? 20'000 : 0);
    CountHistogram h;
    std::vector<double> xs;
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t v = base + static_cast<std::int64_t>(rng.next_below(range));
      h.add(v);
      xs.push_back(static_cast<double>(v));
    }
    std::sort(xs.begin(), xs.end());
    ASSERT_EQ(h.count(), n);
    std::size_t summed = 0;
    std::int64_t previous = std::numeric_limits<std::int64_t>::min();
    for (const auto& [value, count] : h.sorted_counts()) {
      EXPECT_GT(value, previous);  // Ascending, one entry per value.
      EXPECT_GT(count, 0u);
      previous = value;
      summed += count;
    }
    EXPECT_EQ(summed, n);
    EXPECT_EQ(h.mean(), mean(xs)) << "trial " << trial;
    for (const double pct : {0.0, 50.0, 95.0, 99.0, 100.0}) {
      EXPECT_EQ(h.percentile(pct), percentile(xs, pct))
          << "trial " << trial << " pct " << pct;
    }
  }
}

TEST(Stats, CountHistogramOrdersValuesAcrossTheDenseLimit) {
  constexpr std::int64_t kLimit = CountHistogram::kDenseLimit;
  CountHistogram h;
  for (const std::int64_t v : {kLimit, kLimit - 1, std::int64_t{0}, std::int64_t{-1}, kLimit,
                               std::int64_t{5}, std::int64_t{-1}}) {
    h.add(v);
  }
  const std::vector<std::pair<std::int64_t, std::size_t>> expected = {
      {-1, 2}, {0, 1}, {5, 1}, {kLimit - 1, 1}, {kLimit, 2}};
  EXPECT_EQ(h.sorted_counts(), expected);
  EXPECT_EQ(h.percentile(0.0), -1.0);
  EXPECT_EQ(h.percentile(100.0), static_cast<double>(kLimit));
}

TEST(Stats, CountHistogramEmptyAndSingleValue) {
  CountHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_THROW(h.mean(), StatsError);
  EXPECT_THROW(h.percentile(50.0), StatsError);
  h.add(42);
  h.add(42);
  h.add(42);
  EXPECT_EQ(h.count(), 3u);
  ASSERT_EQ(h.sorted_counts().size(), 1u);
  EXPECT_EQ(h.sorted_counts().front(), std::make_pair(std::int64_t{42}, std::size_t{3}));
  EXPECT_EQ(h.mean(), 42.0);
  EXPECT_EQ(h.percentile(99.0), 42.0);
}

TEST(Stats, HistogramBucketsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.5);
  h.add(-3.0);   // clamps into bucket 0
  h.add(100.0);  // clamps into bucket 9
  EXPECT_EQ(h.count_at(0), 2u);
  EXPECT_EQ(h.count_at(9), 2u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.bucket_low(5), 5.0);
}

TEST(Stats, HistogramRejectsNonFiniteAndHugeSamples) {
  Histogram h(0.0, 10.0, 10);
  h.add(std::numeric_limits<double>::quiet_NaN());
  h.add(std::numeric_limits<double>::infinity());
  h.add(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.rejected(), 3u);
  // Finite but far outside any integer range: must clamp, not overflow
  // (casting the unclamped bucket index to an integer type was UB).
  h.add(1e308);
  h.add(-1e308);
  EXPECT_EQ(h.count_at(9), 1u);
  EXPECT_EQ(h.count_at(0), 1u);
  EXPECT_EQ(h.total(), 2u);
  EXPECT_EQ(h.rejected(), 3u);
}

TEST(Table, PrintsAlignedColumns) {
  TextTable t;
  t.set_header({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "2.5"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Table, FmtFixed) {
  EXPECT_EQ(fmt_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_fixed(2.0, 0), "2");
}

}  // namespace
}  // namespace easydram
