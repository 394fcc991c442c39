#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <vector>

#include "dram/device.hpp"

namespace easydram::dram {
namespace {

using namespace easydram::literals;

class DeviceTest : public ::testing::Test {
 protected:
  DeviceTest() : dev_(Geometry{}, ddr4_1333(), strong_variation()) {}

  /// Variation config where every row tolerates very low tRCD and every
  /// intra-subarray pair clones, so behaviour tests are deterministic.
  static VariationConfig strong_variation() {
    VariationConfig v;
    v.min_trcd = Picoseconds{1000};
    v.max_trcd = Picoseconds{1001};
    v.rowclone_pair_success = 1.0;
    return v;
  }

  std::array<std::uint8_t, 64> pattern(std::uint8_t seed) const {
    std::array<std::uint8_t, 64> p{};
    for (std::size_t i = 0; i < 64; ++i) p[i] = static_cast<std::uint8_t>(seed + i);
    return p;
  }

  DramDevice dev_;
  const TimingParams t_ = ddr4_1333();
};

TEST_F(DeviceTest, GeometryDefaultsMatchPaperCaseStudy) {
  const Geometry g;
  EXPECT_EQ(g.num_banks(), 16u);
  EXPECT_EQ(g.rows_per_bank, 32768u);
  EXPECT_EQ(g.row_bytes, 8192u);
  EXPECT_EQ(g.cols_per_row(), 128u);
  EXPECT_EQ(g.subarrays_per_bank(), 64u);
  EXPECT_EQ(g.capacity_bytes(), 16ull * 32768 * 8192);
}

TEST_F(DeviceTest, TimingPresetSanity) {
  EXPECT_EQ(t_.tRCD, 13500_ps);
  EXPECT_EQ(t_.tRC, t_.tRAS + t_.tRP);
  EXPECT_GT(t_.tRFC, t_.tRP);
  EXPECT_GT(t_.tREFI, t_.tRFC);
}

TEST_F(DeviceTest, ActivateOpensRow) {
  EXPECT_FALSE(dev_.open_row(3).has_value());
  const IssueResult r = dev_.issue(Command::kAct, {3, 77, 0}, 0_ns);
  EXPECT_EQ(r.violations, kNone);
  ASSERT_TRUE(dev_.open_row(3).has_value());
  EXPECT_EQ(*dev_.open_row(3), 77u);
}

TEST_F(DeviceTest, WriteThenReadReturnsData) {
  const auto p = pattern(0x40);
  dev_.issue(Command::kAct, {0, 5, 0}, 0_ns);
  dev_.issue(Command::kWrite, {0, 5, 9}, 20_ns, p);
  const IssueResult r = dev_.issue(Command::kRead, {0, 5, 9}, 60_ns);
  EXPECT_TRUE(r.has_data);
  EXPECT_TRUE(r.data_reliable);
  EXPECT_EQ(std::memcmp(r.data.data(), p.data(), 64), 0);
}

TEST_F(DeviceTest, UnwrittenCellsReadZero) {
  dev_.issue(Command::kAct, {1, 100, 0}, 0_ns);
  const IssueResult r = dev_.issue(Command::kRead, {1, 100, 3}, 20_ns);
  for (const std::uint8_t b : r.data) EXPECT_EQ(b, 0);
}

TEST_F(DeviceTest, EarlyReadFlagsTrcdViolation) {
  dev_.issue(Command::kAct, {0, 1, 0}, 0_ns);
  const IssueResult r = dev_.issue(Command::kRead, {0, 1, 0}, 5_ns);
  EXPECT_TRUE(r.violations & kTrcd);
  // Rows in this fixture tolerate ~1 ns, so 5 ns is still reliable.
  EXPECT_TRUE(r.data_reliable);
}

TEST_F(DeviceTest, ReadBelowCellStrengthCorruptsDataAndCells) {
  VariationConfig weak;
  weak.min_trcd = 9_ns;
  weak.max_trcd = Picoseconds{9001};
  DramDevice dev(Geometry{}, t_, weak);
  const auto p = pattern(0x11);
  dev.issue(Command::kAct, {0, 1, 0}, 0_ns);
  dev.issue(Command::kWrite, {0, 1, 0}, 20_ns, p);
  dev.issue(Command::kPre, {0, 0, 0}, 60_ns);
  // Re-open and read far below the 9 ns minimum.
  dev.issue(Command::kAct, {0, 1, 0}, 100_ns);
  const IssueResult r = dev.issue(Command::kRead, {0, 1, 0}, 102_ns);
  EXPECT_FALSE(r.data_reliable);
  EXPECT_NE(std::memcmp(r.data.data(), p.data(), 64), 0);
  // The corrupted value was restored into the cells: a later nominal read
  // sees the corruption too.
  const IssueResult r2 =
      dev.issue(Command::kRead, {0, 1, 0}, Picoseconds{102'000} + t_.tRCD);
  EXPECT_NE(std::memcmp(r2.data.data(), p.data(), 64), 0);
}

TEST_F(DeviceTest, ReadAtOrAboveCellStrengthIsReliable) {
  VariationConfig weak;
  weak.min_trcd = 9_ns;
  weak.max_trcd = Picoseconds{9001};
  weak.line_jitter = Picoseconds{0};
  DramDevice dev(Geometry{}, t_, weak);
  const auto p = pattern(0x22);
  dev.issue(Command::kAct, {0, 1, 0}, 0_ns);
  dev.issue(Command::kWrite, {0, 1, 0}, 20_ns, p);
  dev.issue(Command::kPre, {0, 0, 0}, 60_ns);
  dev.issue(Command::kAct, {0, 1, 0}, 100_ns);
  const IssueResult r = dev.issue(Command::kRead, {0, 1, 0}, 100_ns + Picoseconds{9001});
  EXPECT_TRUE(r.data_reliable);
  EXPECT_EQ(std::memcmp(r.data.data(), p.data(), 64), 0);
}

TEST_F(DeviceTest, RowClonePatternCopiesRow) {
  const auto p = pattern(0x7);
  // Rows 10 and 11 share subarray 0 of bank 2.
  dev_.issue(Command::kAct, {2, 10, 0}, 0_ns);
  for (std::uint32_t c = 0; c < 4; ++c) {
    dev_.issue(Command::kWrite, {2, 10, c}, Picoseconds{20'000 + 8000 * c}, p);
  }
  dev_.issue(Command::kPre, {2, 0, 0}, 100_ns);

  // ACT(src) -> early PRE -> early ACT(dst).
  dev_.issue(Command::kAct, {2, 10, 0}, 200_ns);
  dev_.issue(Command::kPre, {2, 0, 0}, 203_ns);
  const IssueResult act2 = dev_.issue(Command::kAct, {2, 11, 0}, 206_ns);
  EXPECT_TRUE(act2.rowclone_attempted);
  EXPECT_TRUE(act2.rowclone_success);

  // Destination row now holds the source data.
  const IssueResult r = dev_.issue(Command::kRead, {2, 11, 2}, 206_ns + t_.tRCD);
  EXPECT_EQ(std::memcmp(r.data.data(), p.data(), 64), 0);
}

TEST_F(DeviceTest, RowCloneAcrossSubarraysFails) {
  // Rows 10 and 600 are in different subarrays (512 rows each).
  dev_.issue(Command::kAct, {2, 10, 0}, 0_ns);
  dev_.issue(Command::kPre, {2, 0, 0}, 3_ns);
  const IssueResult act2 = dev_.issue(Command::kAct, {2, 600, 0}, 6_ns);
  EXPECT_TRUE(act2.rowclone_attempted);
  EXPECT_FALSE(act2.rowclone_success);
}

TEST_F(DeviceTest, SlowPreActSequenceIsNotRowClone) {
  dev_.issue(Command::kAct, {2, 10, 0}, 0_ns);
  dev_.issue(Command::kPre, {2, 0, 0}, 50_ns);  // after tRAS: normal.
  const IssueResult act2 = dev_.issue(Command::kAct, {2, 11, 0}, 80_ns);
  EXPECT_FALSE(act2.rowclone_attempted);
}

TEST_F(DeviceTest, EarlyPreThenSlowActIsNotRowClone) {
  dev_.issue(Command::kAct, {2, 10, 0}, 0_ns);
  dev_.issue(Command::kPre, {2, 0, 0}, 3_ns);           // early
  const IssueResult act2 = dev_.issue(Command::kAct, {2, 11, 0}, 100_ns);  // late
  EXPECT_FALSE(act2.rowclone_attempted);
}

TEST_F(DeviceTest, EarliestLegalReadHonorsTrcd) {
  dev_.issue(Command::kAct, {4, 9, 0}, 10_ns);
  const Picoseconds earliest = dev_.earliest_legal(Command::kRead, {4, 9, 0});
  EXPECT_EQ(earliest, 10_ns + t_.tRCD);
}

TEST_F(DeviceTest, EarliestLegalActHonorsTrpAndTrc) {
  dev_.issue(Command::kAct, {4, 9, 0}, 0_ns);
  dev_.issue(Command::kPre, {4, 0, 0}, t_.tRAS);
  const Picoseconds earliest = dev_.earliest_legal(Command::kAct, {4, 9, 0});
  EXPECT_GE(earliest, t_.tRAS + t_.tRP);
  EXPECT_GE(earliest, t_.tRC);
}

TEST_F(DeviceTest, FourActivateWindowEnforced) {
  // Issue 4 ACTs to different bank groups back to back (legal spacing).
  Picoseconds t{0};
  for (std::uint32_t bg = 0; bg < 4; ++bg) {
    dev_.issue(Command::kAct, {bg * 4, 1, 0}, t);
    t += t_.tRRD_S;
  }
  const Picoseconds fifth = dev_.earliest_legal(Command::kAct, {1, 1, 0});
  EXPECT_GE(fifth, t_.tFAW);  // First ACT at 0 + tFAW.
}

TEST_F(DeviceTest, ViolatingTfawIsFlagged) {
  Picoseconds t{0};
  for (std::uint32_t bg = 0; bg < 4; ++bg) {
    dev_.issue(Command::kAct, {bg * 4, 1, 0}, t);
    t += t_.tRRD_S;
  }
  const IssueResult r = dev_.issue(Command::kAct, {1, 1, 0}, t);
  EXPECT_TRUE(r.violations & kTfaw);
}

TEST_F(DeviceTest, ReadClosedBankIsGarbage) {
  const IssueResult r = dev_.issue(Command::kRead, {0, 0, 0}, 0_ns);
  EXPECT_TRUE(r.violations & kBankNotActive);
  EXPECT_FALSE(r.data_reliable);
}

TEST_F(DeviceTest, WriteToClosedBankIsDropped) {
  const auto p = pattern(0x55);
  const IssueResult w = dev_.issue(Command::kWrite, {0, 7, 0}, 0_ns, p);
  EXPECT_TRUE(w.violations & kBankNotActive);
  std::array<std::uint8_t, 64> out{};
  dev_.backdoor_read({0, 7, 0}, out);
  for (const std::uint8_t b : out) EXPECT_EQ(b, 0);
}

TEST_F(DeviceTest, RefreshRequiresIdleBanks) {
  dev_.issue(Command::kAct, {0, 1, 0}, 0_ns);
  const IssueResult r = dev_.issue(Command::kRef, {}, 10_ns);
  EXPECT_TRUE(r.violations & kRefreshNotIdle);
}

TEST_F(DeviceTest, RefreshBookkeeping) {
  EXPECT_EQ(dev_.refreshes_issued(), 0);
  EXPECT_EQ(dev_.refreshes_due(t_.tREFI * 3 + 1_ns), 3);
  dev_.issue(Command::kRef, {}, 0_ns);
  EXPECT_EQ(dev_.refreshes_issued(), 1);
  // ACT during tRFC is flagged.
  const IssueResult r = dev_.issue(Command::kAct, {0, 1, 0}, 100_ns);
  EXPECT_TRUE(r.violations & kTrfc);
}

TEST_F(DeviceTest, ColumnCommandsDuringTrfcAreFlagged) {
  // Regression: RD/WR used to sail through the tRFC window unflagged —
  // only ACT consulted ref_busy_until. Force a row open during the window
  // (itself a violation) and probe both column commands.
  dev_.issue(Command::kRef, {}, 0_ns);
  const IssueResult act = dev_.issue(Command::kAct, {0, 1, 0}, 10_ns);
  EXPECT_TRUE(act.violations & kTrfc);
  const IssueResult rd = dev_.issue(Command::kRead, {0, 1, 0}, 30_ns);
  EXPECT_TRUE(rd.violations & kTrfc);
  const IssueResult wr =
      dev_.issue(Command::kWrite, {0, 1, 1}, 50_ns, pattern(0x12));
  EXPECT_TRUE(wr.violations & kTrfc);
  // After the window closes, the open row serves columns violation-free.
  const IssueResult late = dev_.issue(Command::kRead, {0, 1, 2}, t_.tRFC + 1000_ns);
  EXPECT_EQ(late.violations, kNone);
}

TEST_F(DeviceTest, EarliestLegalColumnRespectsTrfc) {
  dev_.issue(Command::kRef, {}, 0_ns);
  dev_.issue(Command::kAct, {0, 1, 0}, 10_ns);  // Violating open, on purpose.
  EXPECT_GE(dev_.earliest_legal(Command::kRead, {0, 1, 0}), t_.tRFC);
  EXPECT_GE(dev_.earliest_legal(Command::kWrite, {0, 1, 0}), t_.tRFC);
}

TEST_F(DeviceTest, RefreshClosesOpenBanksExplicitly) {
  // Regression: an ACT straddling a refresh. kRef used to flag
  // kRefreshNotIdle but leave the bank open, so the model kept serving the
  // pre-refresh row through a window that destroys it on a real chip.
  dev_.issue(Command::kAct, {3, 77, 0}, 0_ns);
  const IssueResult ref = dev_.issue(Command::kRef, {}, 10_ns);
  EXPECT_TRUE(ref.violations & kRefreshNotIdle);
  EXPECT_FALSE(dev_.open_row(3).has_value()) << "REF must close every bank";
  // Every bank exits the window precharged and immediately activatable:
  // earliest ACT is exactly the end of tRFC, not tRP beyond it.
  EXPECT_EQ(dev_.earliest_legal(Command::kAct, {3, 78, 0}),
            Picoseconds{10000} + t_.tRFC);
  const IssueResult act = dev_.issue(Command::kAct, {3, 78, 0},
                                     Picoseconds{10000} + t_.tRFC);
  EXPECT_EQ(act.violations, kNone);
}

TEST_F(DeviceTest, RefreshResetsTfawWindow) {
  // Four rapid ACTs fill the tFAW window; a refresh's internal activation
  // burst supersedes them, so a (violating) ACT right after the REF must
  // not inherit a stale kTfaw flag.
  Picoseconds t = 0_ns;
  for (std::uint32_t bg = 0; bg < 4; ++bg) {
    dev_.issue(Command::kAct, {bg * 4, 1, 0}, t);
    t += t_.tRRD_S;
  }
  dev_.issue(Command::kPreAll, {}, t + t_.tRAS);
  const Picoseconds ref_at = t + t_.tRAS + t_.tRP;
  dev_.issue(Command::kRef, {}, ref_at);
  const IssueResult r = dev_.issue(Command::kAct, {1, 1, 0}, ref_at + 10_ns);
  EXPECT_TRUE(r.violations & kTrfc) << "still inside the refresh window";
  EXPECT_FALSE(r.violations & kTfaw) << "pre-refresh ACT window leaked";
}

TEST_F(DeviceTest, RefreshClearsPendingRowClonePattern) {
  // ACT -> early PRE primes the RowClone detector; a refresh in between
  // destroys the row buffer, so the post-refresh ACT is a plain activate.
  dev_.issue(Command::kAct, {0, 5, 0}, 0_ns);
  dev_.issue(Command::kPre, {0, 0, 0}, 3_ns);  // Early: gap << tRAS/2.
  dev_.issue(Command::kRef, {}, 6_ns);
  const IssueResult act = dev_.issue(Command::kAct, {0, 9, 0}, 9_ns);
  EXPECT_FALSE(act.rowclone_attempted);
}

TEST_F(DeviceTest, PreAllClosesEverything) {
  dev_.issue(Command::kAct, {0, 1, 0}, 0_ns);
  dev_.issue(Command::kAct, {5, 2, 0}, 10_ns);
  dev_.issue(Command::kPreAll, {}, 100_ns);
  EXPECT_FALSE(dev_.open_row(0).has_value());
  EXPECT_FALSE(dev_.open_row(5).has_value());
}

TEST_F(DeviceTest, BackdoorRoundTrip) {
  const auto p = pattern(0x99);
  dev_.backdoor_write({7, 1234, 56}, p);
  std::array<std::uint8_t, 64> out{};
  dev_.backdoor_read({7, 1234, 56}, out);
  EXPECT_EQ(std::memcmp(out.data(), p.data(), 64), 0);
}

/// A line whose first two bytes encode `i`, so 4096 lines stay distinct.
std::array<std::uint8_t, 64> numbered_line(std::uint32_t i) {
  std::array<std::uint8_t, 64> p{};
  for (std::size_t b = 0; b < 64; ++b) p[b] = static_cast<std::uint8_t>(i * 31 + b);
  p[0] = static_cast<std::uint8_t>(i);
  p[1] = static_cast<std::uint8_t>(i >> 8);
  return p;
}

/// The i-th of 4096 one-line addresses: distinct rows spread over all 16
/// banks, columns varying with i.
DramAddress sparse_address(std::uint32_t i) {
  return {i % 16, (i / 16) * 97 % 32768, i % 128};
}

bool reads_zero(const DramDevice& dev, const DramAddress& a) {
  std::array<std::uint8_t, 64> out{};
  out.fill(0xFF);
  dev.backdoor_read(a, out);
  for (const std::uint8_t b : out) {
    if (b != 0) return false;
  }
  return true;
}

TEST_F(DeviceTest, SparseLineWritesAcrossBanksReadBackExactly) {
  for (std::uint32_t i = 0; i < 4096; ++i) {
    dev_.backdoor_write(sparse_address(i), numbered_line(i));
  }
  for (std::uint32_t i = 0; i < 4096; ++i) {
    const DramAddress a = sparse_address(i);
    std::array<std::uint8_t, 64> out{};
    dev_.backdoor_read(a, out);
    ASSERT_EQ(out, numbered_line(i)) << "line " << i;
    // Neighbours in the row and the next row were never written.
    EXPECT_TRUE(reads_zero(dev_, {a.bank, a.row, (a.col + 1) % 128}));
    EXPECT_TRUE(reads_zero(dev_, {a.bank, a.row, (a.col + 127) % 128}));
    EXPECT_TRUE(reads_zero(dev_, {a.bank, a.row + 1, a.col}));
  }
}

TEST_F(DeviceTest, StoredLinesScaleWithLinesWrittenNotRowsTouched) {
  EXPECT_EQ(dev_.stored_lines(), 0u);
  for (std::uint32_t i = 0; i < 4096; ++i) {
    dev_.backdoor_write(sparse_address(i), numbered_line(i));
  }
  EXPECT_EQ(dev_.stored_lines(), 4096u);  // Not 4096 rows x 128 lines.
  // Reads never materialize; rewrites reuse the stored line.
  for (std::uint32_t i = 0; i < 4096; ++i) {
    EXPECT_TRUE(reads_zero(dev_, {sparse_address(i).bank, 32767, 0}));
    dev_.backdoor_write(sparse_address(i), numbered_line(i + 1));
  }
  EXPECT_EQ(dev_.stored_lines(), 4096u);
}

TEST_F(DeviceTest, RowCloneMaterializesDestinationLinesMidCopy) {
  // Filler rows in other banks: 62 full rows plus one 64-line row. With
  // the full source row that is 64 records and 8128 lines, 64 short of a
  // third 256 KiB block, so the copy's first destination line grows the
  // row index and its 65th starts a new block.
  for (std::uint32_t f = 0; f < 63; ++f) {
    const std::uint32_t cols = f < 62 ? 128 : 64;
    for (std::uint32_t c = 0; c < cols; ++c) {
      dev_.backdoor_write({4 + f % 8, 1000 + f, c}, numbered_line(f * 128 + c));
    }
  }
  const std::uint32_t src = 20;
  const std::uint32_t dst = 21;  // Same subarray as src.
  for (std::uint32_t c = 0; c < 128; ++c) {
    dev_.backdoor_write({3, src, c}, numbered_line(9000 + c));
  }
  ASSERT_EQ(dev_.stored_lines(), 8128u);

  dev_.issue(Command::kAct, {3, src, 0}, 0_ns);
  dev_.issue(Command::kPre, {3, 0, 0}, 3_ns);
  const IssueResult act = dev_.issue(Command::kAct, {3, dst, 0}, 6_ns);
  ASSERT_TRUE(act.rowclone_success);
  EXPECT_EQ(dev_.stored_lines(), 8128u + 128u);

  std::array<std::uint8_t, 64> out{};
  for (std::uint32_t c = 0; c < 128; ++c) {
    dev_.backdoor_read({3, dst, c}, out);
    ASSERT_EQ(out, numbered_line(9000 + c)) << "destination col " << c;
    dev_.backdoor_read({3, src, c}, out);
    ASSERT_EQ(out, numbered_line(9000 + c)) << "source col " << c;
  }
  for (std::uint32_t f = 0; f < 63; ++f) {
    dev_.backdoor_read({4 + f % 8, 1000 + f, 63}, out);
    EXPECT_EQ(out, numbered_line(f * 128 + 63)) << "filler row " << f;
  }

  // Cloning a never-written row clears the destination.
  dev_.issue(Command::kPre, {3, 0, 0}, 100_ns);
  dev_.issue(Command::kAct, {3, 22, 0}, 200_ns);
  dev_.issue(Command::kPre, {3, 0, 0}, 203_ns);
  ASSERT_TRUE(dev_.issue(Command::kAct, {3, dst, 0}, 206_ns).rowclone_success);
  for (std::uint32_t c = 0; c < 128; ++c) {
    EXPECT_TRUE(reads_zero(dev_, {3, dst, c})) << "col " << c;
  }
}

TEST_F(DeviceTest, ReducedTrcdReadCorruptsNeverWrittenLine) {
  VariationConfig weak;
  weak.min_trcd = 9_ns;
  weak.max_trcd = Picoseconds{9001};
  DramDevice dev(Geometry{}, t_, weak);
  dev.issue(Command::kAct, {6, 300, 0}, 0_ns);
  const IssueResult bad = dev.issue(Command::kRead, {6, 300, 17}, 2_ns);
  EXPECT_FALSE(bad.data_reliable);
  const std::array<std::uint8_t, 64> zeros{};
  EXPECT_NE(bad.data, zeros);
  EXPECT_EQ(dev.stored_lines(), 1u);
  // The corruption was restored into the cells: a nominal read returns it.
  const IssueResult good = dev.issue(Command::kRead, {6, 300, 17}, 2_ns + t_.tRCD);
  EXPECT_TRUE(good.data_reliable);
  EXPECT_EQ(good.data, bad.data);
  EXPECT_TRUE(reads_zero(dev, {6, 300, 18}));
}

TEST_F(DeviceTest, BackdoorWriteRowReadsBackPerColumn) {
  std::vector<std::uint8_t> row(8192);
  for (std::size_t i = 0; i < row.size(); ++i) {
    row[i] = static_cast<std::uint8_t>(i * 7 + i / 64);
  }
  dev_.backdoor_write_row(9, 4321, row);
  EXPECT_EQ(dev_.stored_lines(), 128u);
  std::array<std::uint8_t, 64> out{};
  for (std::uint32_t c = 0; c < 128; ++c) {
    dev_.backdoor_read({9, 4321, c}, out);
    EXPECT_EQ(std::memcmp(out.data(), row.data() + c * 64, 64), 0) << "col " << c;
  }
}

TEST_F(DeviceTest, TfawWindowWrapsAcrossNineActivates) {
  // Distinct banks rotating over the bank groups, each issued a varying
  // delay past its earliest legal time so the window entries differ.
  std::vector<Picoseconds> acts;
  for (std::uint32_t k = 0; k < 9; ++k) {
    const DramAddress a{(k % 4) * 4 + k / 4, 1, 0};
    const Picoseconds earliest = dev_.earliest_legal(Command::kAct, a);
    if (k >= 1) {
      Picoseconds bound = acts[k - 1] + t_.tRRD_S;
      if (k >= 4) bound = std::max(bound, acts[k - 4] + t_.tFAW);
      EXPECT_EQ(earliest, bound) << "ACT " << k;
    }
    const Picoseconds at = earliest + Picoseconds{(k % 3) * 2500};
    EXPECT_EQ(dev_.issue(Command::kAct, a, at).violations, kNone) << "ACT " << k;
    acts.push_back(at);
  }
}

TEST_F(DeviceTest, TimeMustBeMonotonic) {
  dev_.issue(Command::kAct, {0, 1, 0}, 100_ns);
  EXPECT_THROW(dev_.issue(Command::kPre, {0, 0, 0}, 50_ns), ContractViolation);
}

TEST_F(DeviceTest, EarliestLegalRejectsAddressesOutsideTheGeometry) {
  const DramAddress bad_rank{0, 1, 0, 0, 1};  // Single-rank device.
  EXPECT_THROW(dev_.earliest_legal(Command::kAct, bad_rank), ContractViolation);
  EXPECT_THROW(dev_.earliest_legal(Command::kRef, bad_rank), ContractViolation);
  const DramAddress bad_bank{16, 1, 0};
  EXPECT_THROW(dev_.earliest_legal(Command::kRead, bad_bank), ContractViolation);
  EXPECT_THROW(dev_.earliest_legal(Command::kPre, bad_bank), ContractViolation);
  // REF and PREA address the whole rank and ignore the bank coordinate.
  EXPECT_EQ(dev_.earliest_legal(Command::kRef, bad_bank), dev_.now());
  EXPECT_EQ(dev_.earliest_legal(Command::kPreAll, bad_bank), dev_.now());
}

TEST_F(DeviceTest, CommandCountsTracked) {
  dev_.issue(Command::kAct, {0, 1, 0}, 0_ns);
  dev_.issue(Command::kRead, {0, 1, 0}, 20_ns);
  dev_.issue(Command::kRead, {0, 1, 1}, 30_ns);
  EXPECT_EQ(dev_.commands_issued(Command::kAct), 1);
  EXPECT_EQ(dev_.commands_issued(Command::kRead), 2);
  EXPECT_EQ(dev_.commands_issued(Command::kWrite), 0);
}

/// Property sweep: for every command kind, issuing at earliest_legal never
/// reports a timing violation (state violations aside).
class LegalIssueProperty : public ::testing::TestWithParam<TimingParams> {};

TEST_P(LegalIssueProperty, EarliestLegalIsViolationFree) {
  VariationConfig v;
  v.min_trcd = Picoseconds{1000};
  v.max_trcd = Picoseconds{1001};
  DramDevice dev(Geometry{}, GetParam(), v);
  const std::array<std::uint8_t, 64> zeros{};

  // A mixed command workload across banks, always issued at earliest_legal.
  std::uint32_t violations = 0;
  for (int step = 0; step < 300; ++step) {
    const std::uint32_t bank = static_cast<std::uint32_t>(step * 7 % 16);
    const std::uint32_t row = static_cast<std::uint32_t>(step % 64);
    const std::uint32_t col = static_cast<std::uint32_t>(step % 128);
    const auto open = dev.open_row(bank);
    if (!open) {
      const Picoseconds at = dev.earliest_legal(Command::kAct, {bank, row, 0});
      violations |= dev.issue(Command::kAct, {bank, row, 0}, at).violations;
    } else if (step % 5 == 4) {
      const Picoseconds at = dev.earliest_legal(Command::kPre, {bank, 0, 0});
      violations |= dev.issue(Command::kPre, {bank, 0, 0}, at).violations;
    } else if (step % 2 == 0) {
      const DramAddress a{bank, *open, col};
      const Picoseconds at = dev.earliest_legal(Command::kRead, a);
      violations |= dev.issue(Command::kRead, a, at).violations;
    } else {
      const DramAddress a{bank, *open, col};
      const Picoseconds at = dev.earliest_legal(Command::kWrite, a);
      violations |= dev.issue(Command::kWrite, a, at, zeros).violations;
    }
  }
  EXPECT_EQ(violations, kNone);
}

INSTANTIATE_TEST_SUITE_P(Speeds, LegalIssueProperty,
                         ::testing::Values(ddr4_1333(), ddr4_2400()));

}  // namespace
}  // namespace easydram::dram
