#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "cli/scenario.hpp"
#include "common/contracts.hpp"
#include "common/divisor.hpp"
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

// --------------------------------------------------------------------------
// Exact division by invariant integers
// --------------------------------------------------------------------------

constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();

/// A random 64-bit value with a random bit width, so small and large
/// magnitudes are both common.
std::uint64_t random_width(SplitMix64& rng) {
  const std::uint64_t v = rng.next();
  return v >> (rng.next() % 64);
}

TEST(ConstDivisor, MatchesHardwareDivisionAndRemainder) {
  // The remainder callers derive, n - divide(n) * d, is checked against %.
  std::vector<std::uint64_t> divisors = {1, 2, 3, 143, 286, 10'000, 100'000,
                                         1'000'000'000'000, 1ull << 63, kU64Max,
                                         kU64Max - 1, (1ull << 63) + 1};
  for (int k = 0; k < 64; ++k) divisors.push_back(1ull << k);
  SplitMix64 rng(2024);
  for (int i = 0; i < 300; ++i) divisors.push_back(std::max<std::uint64_t>(1, random_width(rng)));
  for (const std::uint64_t d : divisors) {
    const ConstDivisor cd(d);
    ASSERT_EQ(cd.divisor(), d);
    std::vector<std::uint64_t> dividends = {0, 1, d - 1, d, d + 1, kU64Max, kU64Max - 1};
    for (std::uint64_t k = 2; k < 5; ++k) {
      if (d <= kU64Max / k) dividends.push_back(k * d - 1);
    }
    for (int i = 0; i < 300; ++i) dividends.push_back(random_width(rng));
    for (const std::uint64_t n : dividends) {
      ASSERT_EQ(cd.divide(n), n / d) << n << " / " << d;
      ASSERT_EQ(n - cd.divide(n) * d, n % d) << n << " % " << d;
    }
  }
}

TEST(ConstDivisor, IsConstexprAndRejectsZero) {
  static_assert(ConstDivisor{7}.divide(50) == 7);
  static_assert(ConstDivisor{kU64Max}.divide(kU64Max) == 1);
  static_assert(ConstDivisor{}.divide(kU64Max) == kU64Max);
  EXPECT_THROW(ConstDivisor{0}, ContractViolation);
}

/// The converters' defining 128-bit formulas, the reference every fast path
/// must match bit for bit.
std::int64_t ref_cycles_to_ps(std::int64_t hz, std::int64_t c) {
  const __int128 num = static_cast<__int128>(c) * 1'000'000'000'000;
  return static_cast<std::int64_t>((num + hz / 2) / hz);
}
std::int64_t ref_ps_to_cycles_floor(std::int64_t hz, std::int64_t t) {
  return static_cast<std::int64_t>(static_cast<__int128>(t) * hz / 1'000'000'000'000);
}
std::int64_t ref_ps_to_cycles_ceil(std::int64_t hz, std::int64_t t) {
  const __int128 den = 1'000'000'000'000;
  return static_cast<std::int64_t>((static_cast<__int128>(t) * hz + den - 1) / den);
}

/// Operands for one clock: fixed edge values, random magnitudes of both
/// signs, and the neighbourhood of each converter's 64-bit bound.
std::vector<std::int64_t> converter_operands(std::int64_t hz, SplitMix64& rng) {
  constexpr std::int64_t kI64Max = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kI64Min = std::numeric_limits<std::int64_t>::min();
  std::vector<std::int64_t> ops = {0, 1, 2, 3, 999, 1000, 1001, kI64Max,
                                   kI64Max - 1, -1, -2, -999, kI64Min, kI64Min + 1};
  for (int i = 0; i < 200; ++i) {
    const auto v = static_cast<std::int64_t>(random_width(rng) >> 1);
    ops.push_back(v);
    ops.push_back(-v);
  }
  const std::uint64_t g = std::gcd(std::uint64_t{1'000'000'000'000},
                                   static_cast<std::uint64_t>(hz));
  const std::uint64_t a = static_cast<std::uint64_t>(hz) / g;
  const std::uint64_t b = 1'000'000'000'000 / g;
  for (const std::uint64_t bound : {(kU64Max - a) / (2 * b), kU64Max / a,
                                    (kU64Max - (b - 1)) / a}) {
    for (std::int64_t k = -2; k <= 2; ++k) {
      const __int128 v = static_cast<__int128>(bound) + k;
      if (v >= 0 && v <= kI64Max) ops.push_back(static_cast<std::int64_t>(v));
    }
  }
  return ops;
}

TEST(Units, ConvertersMatchThe128BitReferenceExactly) {
  std::vector<std::int64_t> clocks = {50'000'000,    100'000'000,   666'666'666,
                                      1'000'000'000, 1'430'000'000, 3'200'000'000,
                                      1,             3,             999'999'937,
                                      1'000'000'000'000, 1'000'000'000'001,
                                      std::numeric_limits<std::int64_t>::max()};
  SplitMix64 rng(77);
  for (int i = 0; i < 60; ++i) {
    clocks.push_back(static_cast<std::int64_t>(1 + (random_width(rng) >> 20)));
  }
  for (const std::int64_t hz : clocks) {
    const Frequency f{hz};
    for (const std::int64_t v : converter_operands(hz, rng)) {
      ASSERT_EQ(f.cycles_to_ps(v).count, ref_cycles_to_ps(hz, v)) << hz << " Hz, " << v;
      if (v < 0) {
        // Truncation is no floor or ceiling below zero: negative times
        // are rejected rather than mis-rounded.
        EXPECT_THROW(f.ps_to_cycles_floor(Picoseconds{v}), ContractViolation)
            << hz << " Hz, " << v;
        EXPECT_THROW(f.ps_to_cycles_ceil(Picoseconds{v}), ContractViolation)
            << hz << " Hz, " << v;
        continue;
      }
      ASSERT_EQ(f.ps_to_cycles_floor(Picoseconds{v}), ref_ps_to_cycles_floor(hz, v))
          << hz << " Hz, " << v;
      ASSERT_EQ(f.ps_to_cycles_ceil(Picoseconds{v}), ref_ps_to_cycles_ceil(hz, v))
          << hz << " Hz, " << v;
    }
  }
}

TEST(Units, FrequencyStaysConstexprAndComparesByHertz) {
  static_assert(Frequency::megahertz(100).cycles_to_ps(3).count == 30'000);
  static_assert(Frequency{1'430'000'000}.cycles_to_ps(1).count == 699);
  static_assert(Frequency::gigahertz(1).ps_to_cycles_ceil(Picoseconds{1001}) == 2);
  static_assert(Frequency::megahertz(1000) == Frequency::gigahertz(1));
  static_assert(Frequency::megahertz(50) < Frequency::megahertz(100));
  // A frequency that is not positive still rejects every conversion.
  EXPECT_THROW(Frequency{}.cycles_to_ps(0), ContractViolation);
  EXPECT_THROW(Frequency{}.ps_to_cycles_floor(Picoseconds{0}), ContractViolation);
  EXPECT_THROW(Frequency{-5}.ps_to_cycles_ceil(Picoseconds{1}), ContractViolation);
}

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

/// {"rows": [{"name": "chase", "count": 42, "mean": 3.14159,
///            "lat": {"p95": 7.5}, "streams": [{"p95": 12}, {"p95": 30}],
///            "ok": true}],
///  "total": 2.5}
cli::Json render_fixture() {
  cli::Json row = cli::Json::object();
  row["name"] = "chase";
  row["count"] = 42;
  row["mean"] = 3.14159;
  row["lat"]["p95"] = 7.5;
  cli::Json streams = cli::Json::array();
  for (const double p95 : {12.0, 30.0}) {
    cli::Json st = cli::Json::object();
    st["p95"] = p95;
    streams.push_back(std::move(st));
  }
  row["streams"] = std::move(streams);
  row["ok"] = true;
  cli::Json doc = cli::Json::object();
  doc["rows"].push_back(std::move(row));
  doc["total"] = 2.5;
  return doc;
}

TEST(JsonRead, ConstFindAtAndText) {
  const cli::Json doc = render_fixture();
  const cli::Json* rows = doc.find("rows");
  ASSERT_NE(rows, nullptr);
  EXPECT_EQ(doc.find("absent"), nullptr);
  EXPECT_EQ(rows->find("name"), nullptr);  // Not an object.
  ASSERT_NE(rows->at(0), nullptr);
  EXPECT_EQ(rows->at(1), nullptr);         // Out of range.
  EXPECT_EQ(doc.at(0), nullptr);           // Not an array.

  const cli::Json& row = *rows->at(0);
  EXPECT_EQ(row.find("name")->text(2), "chase");
  EXPECT_EQ(row.find("count")->text(2), "42");
  EXPECT_EQ(row.find("mean")->text(3), "3.142");
  EXPECT_EQ(row.find("mean")->text(0), "3");
  EXPECT_EQ(row.find("ok")->text(2), "true");
  EXPECT_EQ(cli::Json().text(2), "null");
  EXPECT_THROW((void)row.find("lat")->text(2), ContractViolation);
}

TEST(JsonWrite, Uint64AboveInt64MaxStaysUnsigned) {
  // Seeds span the full uint64 range; none may print negative.
  const std::uint64_t past = std::uint64_t{1} << 63;
  cli::Json doc = cli::Json::object();
  doc["max"] = kU64Max;
  doc["past"] = past;
  doc["small"] = std::uint64_t{7};
  EXPECT_EQ(doc.dump_string(),
            "{\n  \"max\": 18446744073709551615,\n"
            "  \"past\": 9223372036854775808,\n  \"small\": 7\n}\n");
  EXPECT_EQ(doc.find("max")->text(0), "18446744073709551615");
  EXPECT_EQ(doc.find("past")->text(3), "9223372036854775808");
  // Signed values still print signed.
  EXPECT_EQ(cli::Json(std::int64_t{-1}).text(0), "-1");
}

TEST(Render, ResolvesNestedPathsAndArrayIndices) {
  const cli::Json doc = render_fixture();
  EXPECT_EQ(cli::resolve(doc, ""), &doc);
  ASSERT_NE(cli::resolve(doc, "rows.0.lat.p95"), nullptr);
  EXPECT_EQ(cli::resolve(doc, "rows.0.lat.p95")->text(1), "7.5");
  EXPECT_EQ(cli::resolve(doc, "rows.0.streams.1.p95")->text(0), "30");
  EXPECT_EQ(cli::resolve(doc, "rows.1.name"), nullptr);
  EXPECT_EQ(cli::resolve(doc, "rows.x.name"), nullptr);
  EXPECT_EQ(cli::resolve(doc, "rows.0.lat.p50"), nullptr);
}

TEST(Render, PrintsEachColumnAtItsDigits) {
  const cli::TableSpec spec{"rows",
                            {{"name", "Name"},
                             {"count", "Count"},
                             {"mean", "Mean", 3},
                             {"lat.p95", "p95", 1},
                             {"streams.0.p95", "s0 p95"},
                             {"ok", "OK"}},
                            "Title"};
  std::ostringstream os;
  EXPECT_TRUE(cli::print_table(os, spec, render_fixture()).empty());
  const std::string out = os.str();
  EXPECT_EQ(out.rfind("Title\nName", 0), 0u) << out;
  for (const char* cell : {"chase", "42", "3.142", "7.5", "12.00", "true"}) {
    EXPECT_NE(out.find(cell), std::string::npos) << cell << " in\n" << out;
  }
  // An object rows path is one row; the empty path is the payload itself.
  std::ostringstream one;
  EXPECT_TRUE(
      cli::print_table(one, {"", {{"total", "Total", 1}}}, render_fixture())
          .empty());
  EXPECT_NE(one.str().find("2.5"), std::string::npos);
}

TEST(Render, ReportsUnresolvedPathsAsFailures) {
  std::ostringstream os;
  EXPECT_EQ(cli::print_table(
                os, {"rows", {{"name", "Name"}, {"nope", "Nope"}, {"lat", "Lat"}}},
                render_fixture()),
            (std::vector<std::string>{"rows:nope", "rows:lat"}));
  EXPECT_NE(os.str().find("chase  -"), std::string::npos) << os.str();
  EXPECT_EQ(cli::print_table(os, {"absent", {{"name", "Name"}}},
                             render_fixture()),
            std::vector<std::string>{"absent"});
}

TEST(Render, PrintScenarioPrintsBannerTablesAndClaim) {
  const cli::Scenario s{"fixture", "A fixture", "Nowhere", nullptr,
                        {{"rows", {{"count", "Count"}}},
                         {"rows", {{"missing", "Missing"}}}},
                        "Expected shape: flat."};
  cli::Json doc = cli::Json::object();
  doc["results"] = render_fixture();
  std::ostringstream os;
  EXPECT_EQ(cli::print_scenario(os, s, doc),
            std::vector<std::string>{"rows:missing"});
  const std::string out = os.str();
  const std::size_t banner = out.find("=== A fixture ===");
  const std::size_t table = out.find("Count");
  const std::size_t claim = out.find("Expected shape: flat.");
  ASSERT_NE(claim, std::string::npos) << out;
  EXPECT_LT(banner, table);
  EXPECT_LT(table, claim);
  EXPECT_EQ(cli::print_scenario(os, s, cli::Json::object()),
            std::vector<std::string>{"results"});
}

struct SweepCell {
  std::uint64_t seed = 0;
  std::size_t point = 0;
  std::thread::id thread;
};

TEST(Sweep, CellsAreRepMajorWithPerRepSeedsAtAnyThreadCount) {
  for (const int threads : {1, 3, 8}) {
    cli::RunOptions opts;
    opts.iters = 2;
    opts.threads = threads;
    const auto s = cli::sweep(opts, 5, [](std::uint64_t seed, std::size_t p) {
      return SweepCell{seed, p, std::this_thread::get_id()};
    });
    ASSERT_EQ(s.reps(), 2);
    std::set<std::thread::id> ids;
    for (int r = 0; r < 2; ++r) {
      ASSERT_EQ(s.rep(r).size(), 5u);
      for (std::size_t p = 0; p < 5; ++p) {
        EXPECT_EQ(s.rep(r)[p].seed, cli::rep_seed(opts, r)) << threads;
        EXPECT_EQ(s.rep(r)[p].point, p) << threads;
        ids.insert(s.rep(r)[p].thread);
      }
    }
    EXPECT_LE(ids.size(), static_cast<std::size_t>(std::min(threads, 10)));
    if (threads == 1) {
      EXPECT_EQ(*ids.begin(), std::this_thread::get_id());  // Inline.
    }
    EXPECT_NE(cli::rep_seed(opts, 0), cli::rep_seed(opts, 1));

    // per_rep_json folds each rep's own span, in rep order.
    auto fold = [](std::span<const SweepCell> c) {
      return static_cast<double>(c.back().seed % 1000 + c.back().point);
    };
    const std::vector<double> expected{
        static_cast<double>(cli::rep_seed(opts, 0) % 1000 + 4),
        static_cast<double>(cli::rep_seed(opts, 1) % 1000 + 4)};
    EXPECT_EQ(cli::per_rep_json(s, fold).dump_string(),
              cli::rep_metric_json(expected).dump_string());
  }
}

TEST(Sweep, RethrowsTheLowestIndexExceptionAfterEveryTaskRan) {
  for (const int threads : {1, 3, 8}) {
    cli::RunOptions opts;
    opts.iters = 2;
    opts.threads = threads;
    std::atomic<int> ran{0};
    try {
      cli::sweep(opts, 5, [&](std::uint64_t seed, std::size_t p) {
        ran.fetch_add(1);
        // Task 7 (rep 1, point 2) throws too; task 3 has the lower index.
        if (seed != opts.seed && p == 2) throw std::runtime_error("task 7");
        if (seed == opts.seed && p == 3) throw std::runtime_error("task 3");
        return static_cast<int>(p);
      });
      FAIL() << "expected a rethrown task exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 3") << threads;
    }
    EXPECT_EQ(ran.load(), 10) << threads;
  }
}

}  // namespace
}  // namespace easydram
