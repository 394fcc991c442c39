#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>

#include "dram/variation.hpp"

namespace easydram::dram {
namespace {

using namespace easydram::literals;

class VariationTest : public ::testing::Test {
 protected:
  Geometry geo_;
  VariationConfig cfg_;
  VariationModel model_{geo_, cfg_};
};

TEST_F(VariationTest, Deterministic) {
  const VariationModel other(geo_, cfg_);
  for (std::uint32_t row = 0; row < 512; row += 13) {
    EXPECT_EQ(model_.row_min_trcd(0, row), other.row_min_trcd(0, row));
    EXPECT_EQ(model_.line_min_trcd(1, row, row % 128),
              other.line_min_trcd(1, row, row % 128));
  }
}

TEST_F(VariationTest, DifferentSeedsDiffer) {
  VariationConfig c2 = cfg_;
  c2.seed ^= 0x1234567;
  const VariationModel other(geo_, c2);
  int differing = 0;
  for (std::uint32_t row = 0; row < 256; ++row) {
    if (model_.row_min_trcd(0, row) != other.row_min_trcd(0, row)) ++differing;
  }
  EXPECT_GT(differing, 200);
}

TEST_F(VariationTest, AllRowsBelowNominal) {
  // The paper observes every row works below the nominal 13.5 ns.
  for (std::uint32_t bank = 0; bank < geo_.num_banks(); ++bank) {
    for (std::uint32_t row = 0; row < 4096; row += 7) {
      const Picoseconds v = model_.row_min_trcd(bank, row);
      EXPECT_LT(v, 13500_ps);
      EXPECT_GE(v, cfg_.min_trcd);
      EXPECT_LE(v, cfg_.max_trcd);
    }
  }
}

TEST_F(VariationTest, StrongFractionMatchesPaper) {
  // Fig. 12: 84.5 % of lines are strong (reliable at <= 9.0 ns). Accept a
  // few percent of calibration slack.
  std::int64_t strong = 0, total = 0;
  for (std::uint32_t bank = 0; bank < geo_.num_banks(); ++bank) {
    for (std::uint32_t row = 0; row < 4096; ++row) {
      ++total;
      if (model_.row_min_trcd(bank, row) <= 9000_ps) ++strong;
    }
  }
  const double fraction = static_cast<double>(strong) / static_cast<double>(total);
  EXPECT_NEAR(fraction, 0.845, 0.04);
}

TEST_F(VariationTest, WeakRowsAreSpatiallyClustered) {
  // A weak row's neighbour is much more likely to be weak than the base
  // rate (the paper: "weak cache lines are clustered").
  std::int64_t weak = 0, total = 0, weak_neighbour = 0, weak_pairs = 0;
  for (std::uint32_t bank = 0; bank < 2; ++bank) {
    for (std::uint32_t row = 0; row + 1 < 4096; ++row) {
      const bool w0 = model_.row_min_trcd(bank, row) > 9000_ps;
      const bool w1 = model_.row_min_trcd(bank, row + 1) > 9000_ps;
      ++total;
      if (w0) {
        ++weak;
        ++weak_pairs;
        if (w1) ++weak_neighbour;
      }
    }
  }
  ASSERT_GT(weak, 0);
  const double base_rate = static_cast<double>(weak) / static_cast<double>(total);
  const double cond_rate =
      static_cast<double>(weak_neighbour) / static_cast<double>(weak_pairs);
  EXPECT_GT(cond_rate, 2.0 * base_rate);
}

TEST_F(VariationTest, LineNeverExceedsRowValueAndAnchorsExist) {
  for (std::uint32_t row = 0; row < 64; ++row) {
    const Picoseconds row_v = model_.row_min_trcd(3, row);
    Picoseconds max_line{0};
    for (std::uint32_t col = 0; col < geo_.cols_per_row(); ++col) {
      const Picoseconds line_v = model_.line_min_trcd(3, row, col);
      EXPECT_LE(line_v, row_v);
      max_line = std::max(max_line, line_v);
    }
    // The weakest line carries exactly the row value.
    EXPECT_EQ(max_line, row_v);
  }
}

// The device skips the per-line lookup on reads opened at least
// line_min_trcd_ceiling(), so no line may sit above it: every bank, a
// stride of rows, every column, under the default field and under
// configurations that move the bound (negative jitter, an inverted span,
// a flat shape).
TEST_F(VariationTest, LineMinTrcdNeverExceedsCeiling) {
  VariationConfig negative_jitter;
  negative_jitter.line_jitter = Picoseconds{-700};
  VariationConfig inverted;
  inverted.min_trcd = 11_ns;
  inverted.max_trcd = 9_ns;
  VariationConfig flat;
  flat.shape = 0.0;
  for (const VariationConfig& cfg : {cfg_, negative_jitter, inverted, flat}) {
    const VariationModel model(geo_, cfg);
    const Picoseconds ceiling = model.line_min_trcd_ceiling();
    Picoseconds highest{0};
    for (std::uint32_t bank = 0; bank < geo_.banks_per_channel(); ++bank) {
      for (std::uint32_t row = 0; row < geo_.rows_per_bank; row += 257) {
        for (std::uint32_t col = 0; col < geo_.cols_per_row(); ++col) {
          const Picoseconds t = model.line_min_trcd(bank, row, col);
          ASSERT_LE(t, ceiling) << "bank " << bank << " row " << row << " col " << col;
          highest = std::max(highest, t);
        }
      }
    }
    // The bound is not loose by more than the field's own resolution.
    EXPECT_GT(highest + Picoseconds{1000}, ceiling);
  }
  EXPECT_EQ(model_.line_min_trcd_ceiling(), cfg_.max_trcd);
  EXPECT_EQ(VariationModel(geo_, negative_jitter).line_min_trcd_ceiling(),
            cfg_.max_trcd + Picoseconds{700});
  EXPECT_EQ(VariationModel(geo_, inverted).line_min_trcd_ceiling(), 11_ns);
  // A negative shape lifts pow() above 1 and voids the bound: every read
  // then looks its line up.
  VariationConfig negative_shape;
  negative_shape.shape = -1.0;
  EXPECT_EQ(VariationModel(geo_, negative_shape).line_min_trcd_ceiling(),
            Picoseconds{std::numeric_limits<std::int64_t>::max()});
}

TEST_F(VariationTest, RowCloneRequiresSameSubarray) {
  for (std::uint32_t row = 0; row < 512; row += 31) {
    EXPECT_FALSE(model_.rowclone_pair_ok(0, row, row + 512));
    EXPECT_FALSE(model_.rowclone_pair_ok(0, row, row + 1024));
  }
}

TEST_F(VariationTest, RowCloneSelfAlwaysOk) {
  EXPECT_TRUE(model_.rowclone_pair_ok(0, 7, 7));
}

TEST_F(VariationTest, RowCloneSuccessRateNearConfig) {
  std::int64_t ok = 0, total = 0;
  for (std::uint32_t bank = 0; bank < 4; ++bank) {
    for (std::uint32_t src = 0; src < 500; ++src) {
      const std::uint32_t dst = src + 1 < 512 ? src + 1 : src - 1;
      ++total;
      if (model_.rowclone_pair_ok(bank, src, dst)) ++ok;
    }
  }
  const double rate = static_cast<double>(ok) / static_cast<double>(total);
  EXPECT_NEAR(rate, cfg_.rowclone_pair_success, 0.05);
}

TEST_F(VariationTest, RowClonePairDecisionIsStable) {
  for (int rep = 0; rep < 3; ++rep) {
    EXPECT_EQ(model_.rowclone_pair_ok(1, 10, 20), model_.rowclone_pair_ok(1, 10, 20));
  }
}

struct ShapeCase {
  double shape;
  double min_expected_strong;
  double max_expected_strong;
};

class ShapeSweep : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(ShapeSweep, ShapeControlsStrongFraction) {
  const auto param = GetParam();
  Geometry geo;
  VariationConfig cfg;
  cfg.shape = param.shape;
  const VariationModel model(geo, cfg);
  std::int64_t strong = 0, total = 0;
  for (std::uint32_t bank = 0; bank < 4; ++bank) {
    for (std::uint32_t row = 0; row < 4096; ++row) {
      ++total;
      if (model.row_min_trcd(bank, row) <= Picoseconds{9000}) ++strong;
    }
  }
  const double fraction = static_cast<double>(strong) / static_cast<double>(total);
  EXPECT_GE(fraction, param.min_expected_strong);
  EXPECT_LE(fraction, param.max_expected_strong);
}

INSTANTIATE_TEST_SUITE_P(Shapes, ShapeSweep,
                         ::testing::Values(ShapeCase{1.0, 0.1, 0.7},
                                           ShapeCase{3.05, 0.78, 0.92},
                                           ShapeCase{8.0, 0.92, 1.0}));

}  // namespace
}  // namespace easydram::dram
