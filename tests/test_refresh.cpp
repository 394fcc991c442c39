#include <gtest/gtest.h>

#include <vector>

#include "smc/easyapi.hpp"
#include "smc/mitigation/graphene.hpp"
#include "smc/refresh_policy.hpp"
#include "smc/retention_profiler.hpp"
#include "sys/system.hpp"
#include "tile/tile.hpp"
#include "timescale/timekeeper.hpp"

// Retention-aware refresh tests: the per-row retention model, the stripe
// profiler/binning, the RAIDR skip schedule, the device's refresh-slot
// bookkeeping under skipped REFs (round-robin alignment, hammer
// victim-counter resets, per-rank independence), the EasyApi pacing loop
// with a policy installed, and the retention-violation ground truth.

namespace easydram {
namespace {

using namespace easydram::literals;

dram::Geometry small_window_geometry(std::uint32_t ranks = 1) {
  dram::Geometry geo;
  geo.ranks_per_channel = ranks;
  geo.refresh_window_refs = 64;  // Stripe = 512 rows of every bank.
  return geo;
}

dram::VariationConfig compressed_retention(std::uint64_t seed = 0x5AFA2125) {
  dram::VariationConfig v;
  v.seed = seed;
  // Match the time-compressed 64-slot window (~499 us round at tREFI).
  v.retention_base = 560_us;
  v.retention_p_weakest = 1e-5;
  v.retention_p_weak = 4e-5;
  return v;
}

// --------------------------------------------------------------------------
// Retention model
// --------------------------------------------------------------------------

TEST(RetentionModel, DeterministicAndBounded) {
  const dram::Geometry geo;
  const dram::VariationConfig cfg;
  const dram::VariationModel a(geo, cfg), b(geo, cfg);
  for (std::uint32_t row = 0; row < 2000; ++row) {
    const Picoseconds r = a.row_retention(3, row);
    EXPECT_EQ(r, b.row_retention(3, row));
    EXPECT_GE(r, cfg.retention_base);
    EXPECT_LT(r, cfg.retention_base * 16);
  }
}

TEST(RetentionModel, ClassFractionsTrackConfiguredProbabilities) {
  const dram::Geometry geo;
  dram::VariationConfig cfg;
  cfg.retention_p_weakest = 0.01;
  cfg.retention_p_weak = 0.05;
  const dram::VariationModel m(geo, cfg);
  std::int64_t weakest = 0, weak = 0, n = 0;
  for (std::uint32_t bank = 0; bank < 4; ++bank) {
    for (std::uint32_t row = 0; row < 8192; ++row, ++n) {
      const Picoseconds r = m.row_retention(bank, row);
      if (r < cfg.retention_base * 2) {
        ++weakest;
      } else if (r < cfg.retention_base * 4) {
        ++weak;
      }
    }
  }
  const double f1 = static_cast<double>(weakest) / static_cast<double>(n);
  const double f2 = static_cast<double>(weak) / static_cast<double>(n);
  EXPECT_NEAR(f1, 0.01, 0.003);
  EXPECT_NEAR(f2, 0.05, 0.007);
}

TEST(RetentionModel, SeedChangesTheField) {
  const dram::Geometry geo;
  dram::VariationConfig a_cfg, b_cfg;
  b_cfg.seed = a_cfg.seed + 1;
  const dram::VariationModel a(geo, a_cfg), b(geo, b_cfg);
  int diffs = 0;
  for (std::uint32_t row = 0; row < 512; ++row) {
    diffs += a.row_retention(0, row) != b.row_retention(0, row);
  }
  EXPECT_GT(diffs, 400);
}

// --------------------------------------------------------------------------
// Profiler and binning
// --------------------------------------------------------------------------

TEST(RetentionProfiler, ExhaustiveBinningNeverExceedsRetention) {
  const dram::Geometry geo = small_window_geometry();
  dram::DramDevice dev(geo, dram::ddr4_1333(), compressed_retention());
  smc::RaidrBinStats stats{};
  const smc::RaidrBinning b =
      smc::profile_retention_bins(dev, {}, &stats);
  ASSERT_EQ(b.window_refs, geo.refresh_window_refs);
  ASSERT_EQ(b.ranks, 1u);
  ASSERT_EQ(b.multipliers.size(), geo.refresh_window_refs);
  EXPECT_EQ(stats.stripes_total, 64);
  EXPECT_EQ(stats.stripes_x1 + stats.stripes_x2 + stats.stripes_x4, 64);
  EXPECT_EQ(stats.rows_profiled,
            static_cast<std::int64_t>(geo.refresh_window_refs) *
                geo.refresh_stripe_rows() * geo.num_banks());

  const Picoseconds window{dev.timing().tREFI.count *
                           static_cast<std::int64_t>(geo.refresh_window_refs)};
  dev.set_retention_tracking(true);  // Enables stripe_min_retention.
  for (std::uint32_t s = 0; s < geo.refresh_window_refs; ++s) {
    // The safety contract: every stripe's refresh interval fits its
    // weakest row's retention.
    EXPECT_LE(window.count * b.multiplier(0, s),
              dev.stripe_min_retention(0, s).count)
        << "stripe " << s;
  }
}

TEST(RetentionProfiler, SparseSamplingOnlyEverOverbins) {
  const dram::Geometry geo = small_window_geometry();
  dram::DramDevice dev(geo, dram::ddr4_1333(), compressed_retention());
  const smc::RaidrBinning exact = smc::profile_retention_bins(dev, {});
  smc::RetentionProfilerOptions sparse;
  sparse.sample_stride = 64;
  const smc::RaidrBinning coarse = smc::profile_retention_bins(dev, sparse);
  bool any_overbinned = false;
  for (std::uint32_t s = 0; s < geo.refresh_window_refs; ++s) {
    // Sampling fewer rows can only miss weak rows, never invent them.
    EXPECT_GE(coarse.multiplier(0, s), exact.multiplier(0, s));
    any_overbinned = any_overbinned || coarse.multiplier(0, s) > exact.multiplier(0, s);
  }
  EXPECT_TRUE(any_overbinned);  // This seed has weak stripes to miss.
}

TEST(RetentionProfiler, GuardBandPushesBoundaryStripesDown) {
  const dram::Geometry geo = small_window_geometry();
  dram::DramDevice dev(geo, dram::ddr4_1333(), compressed_retention());
  const smc::RaidrBinStats plain = summarize_binning(
      smc::profile_retention_bins(dev, {}));
  smc::RetentionProfilerOptions guarded;
  guarded.guard_band = 300_us;  // More than half a compressed window.
  const smc::RaidrBinStats safe = summarize_binning(
      smc::profile_retention_bins(dev, guarded));
  EXPECT_GE(safe.issue_fraction, plain.issue_fraction);
  EXPECT_GE(safe.stripes_x1 + safe.stripes_x2,
            plain.stripes_x1 + plain.stripes_x2);
}

TEST(RaidrPolicy, ScheduleIssuesEachStripeOncePerItsInterval) {
  smc::RaidrBinning b;
  b.window_refs = 8;
  b.ranks = 1;
  b.multipliers = {1, 2, 4, 4, 1, 2, 4, 2};
  smc::RaidrRefreshPolicy policy(b);
  for (std::uint32_t stripe = 0; stripe < b.window_refs; ++stripe) {
    const std::uint32_t m = b.multiplier(0, stripe);
    int issued = 0;
    std::int64_t first_round = -1, last_round = -1;
    for (std::int64_t round = 0; round < 16; ++round) {
      if (policy.should_issue(0, round * b.window_refs + stripe)) {
        ++issued;
        if (first_round < 0) {
          first_round = round;
        } else {
          // Exactly m rounds between consecutive REFs of one stripe.
          EXPECT_EQ(round - last_round, m) << "stripe " << stripe;
        }
        last_round = round;
      }
    }
    EXPECT_EQ(issued, 16 / static_cast<int>(m));
    // Phase-spread start: the first REF lands in round stripe mod m, i.e.
    // within the first m rounds — the power-on retention budget holds.
    EXPECT_EQ(first_round, stripe % m) << "stripe " << stripe;
  }
}

TEST(RaidrPolicy, PhaseSpreadSkipsFromRoundZero) {
  smc::RaidrBinning b;
  b.window_refs = 64;
  b.ranks = 1;
  b.multipliers.assign(64, 4);  // All-strong chip.
  smc::RaidrRefreshPolicy policy(b);
  int issued = 0;
  for (std::int64_t slot = 0; slot < 64; ++slot) {
    issued += policy.should_issue(0, slot);
  }
  EXPECT_EQ(issued, 16);  // Steady-state rate already in round 0.
}

// --------------------------------------------------------------------------
// Device slot bookkeeping under skipped REFs
// --------------------------------------------------------------------------

/// Issues one REF to `rank` at the earliest legal time.
void issue_ref(dram::DramDevice& dev, std::uint32_t rank = 0) {
  dram::DramAddress a{0, 0, 0};
  a.rank = rank;
  dev.issue(dram::Command::kRef, a, dev.earliest_legal(dram::Command::kRef, a));
}

TEST(DeviceRefreshSlots, SkipAdvancesSlotsButNotIssued) {
  dram::DramDevice dev(dram::Geometry{}, dram::ddr4_1333(),
                       dram::VariationConfig{});
  EXPECT_EQ(dev.refresh_slots(), 0);
  dev.skip_refresh();
  dev.skip_refresh();
  EXPECT_EQ(dev.refresh_slots(), 2);
  EXPECT_EQ(dev.refreshes_issued(), 0);
  issue_ref(dev);
  EXPECT_EQ(dev.refresh_slots(), 3);
  EXPECT_EQ(dev.refreshes_issued(), 1);
}

TEST(DeviceRefreshSlots, SlotsArePerRank) {
  dram::Geometry geo;
  geo.ranks_per_channel = 2;
  dram::DramDevice dev(geo, dram::ddr4_1333(), dram::VariationConfig{});
  dev.skip_refresh(1);
  issue_ref(dev, 1);
  EXPECT_EQ(dev.refresh_slots(0), 0);
  EXPECT_EQ(dev.refreshes_issued(0), 0);
  EXPECT_EQ(dev.refresh_slots(1), 2);
  EXPECT_EQ(dev.refreshes_issued(1), 1);
}

/// Hammer a victim's neighbors so the victim accumulates a disturbance
/// count. `row` must be subarray-interior.
void disturb(dram::DramDevice& dev, std::uint32_t row, int times,
             std::uint32_t rank = 0) {
  for (int i = 0; i < times; ++i) {
    for (const std::uint32_t agg : {row - 1, row + 1}) {
      dram::DramAddress a{0, agg, 0};
      a.rank = rank;
      dev.issue(dram::Command::kAct, a,
                dev.earliest_legal(dram::Command::kAct, a));
      dev.issue(dram::Command::kPre, a,
                dev.earliest_legal(dram::Command::kPre, a));
    }
  }
}

TEST(DeviceRefreshSlots, SkippedStripeKeepsVictimCounters) {
  const dram::Geometry geo = small_window_geometry();
  dram::DramDevice dev(geo, dram::ddr4_1333(), dram::VariationConfig{});
  dev.set_hammer_tracking(true);
  // Victim row 1030 sits in stripe 1030/512 = 2 of the 64-slot window.
  const std::uint32_t victim = 1030;
  const std::uint32_t stripe = geo.refresh_stripe_of_row(victim);
  ASSERT_EQ(stripe, 2u);
  disturb(dev, victim, 5);
  ASSERT_EQ(dev.hammer_count(0, victim), 10);

  // Skip the victim's slot: REFs for slots 0 and 1 issue, slot 2 skips,
  // slot 3 issues. The victim's counter must survive.
  issue_ref(dev);
  issue_ref(dev);
  dev.skip_refresh();
  issue_ref(dev);
  EXPECT_EQ(dev.hammer_count(0, victim), 10);

  // Next round (the window has 64 slots): walk slots up to the victim's
  // stripe and issue it this time — the counter resets, proving the
  // round-robin stayed aligned through the earlier skip.
  while (dev.refresh_slots() % geo.refresh_window_refs != stripe) {
    dev.skip_refresh();
  }
  issue_ref(dev);
  EXPECT_EQ(dev.hammer_count(0, victim), 0);
}

TEST(DeviceRefreshSlots, SkipOnOneRankLeavesOtherRanksAligned) {
  const dram::Geometry geo = small_window_geometry(/*ranks=*/2);
  dram::DramDevice dev(geo, dram::ddr4_1333(), dram::VariationConfig{});
  dev.set_hammer_tracking(true);
  const std::uint32_t victim = 700;  // Stripe 1.
  ASSERT_EQ(geo.refresh_stripe_of_row(victim), 1u);
  disturb(dev, victim, 3, /*rank=*/0);
  disturb(dev, victim, 3, /*rank=*/1);

  // Rank 0 skips slot 0 then issues slot 1 (the victim's stripe): reset.
  dev.skip_refresh(0);
  issue_ref(dev, 0);
  // Rank 1 issues slot 0 then skips slot 1: its victim keeps its count.
  issue_ref(dev, 1);
  dev.skip_refresh(1);

  EXPECT_EQ(dev.hammer_count(0, victim, 0), 0);
  EXPECT_EQ(dev.hammer_count(0, victim, 1), 6);
}

// --------------------------------------------------------------------------
// Retention-violation ground truth
// --------------------------------------------------------------------------

TEST(RetentionTracking, AllRowsScheduleNeverViolates) {
  const dram::Geometry geo = small_window_geometry();
  dram::DramDevice dev(geo, dram::ddr4_1333(), compressed_retention());
  dev.set_retention_tracking(true);
  for (int slot = 0; slot < 3 * 64; ++slot) issue_ref(dev);
  EXPECT_EQ(dev.retention_violations(), 0);
  EXPECT_EQ(dev.max_retention_overshoot().count, 0);
}

TEST(RetentionTracking, OverSkippedStripeViolatesByTheSlotGap) {
  const dram::Geometry geo = small_window_geometry();
  dram::DramDevice dev(geo, dram::ddr4_1333(), compressed_retention());
  dev.set_retention_tracking(true);
  const dram::TimingParams t = dram::ddr4_1333();
  // Skip every slot for 40 rounds, then issue stripe 0's REF: the gap is
  // 41 windows (the power-on convention grants one), far beyond any
  // modeled retention (< 16 x 560 us ~ 18 windows).
  for (int i = 0; i < 40 * 64; ++i) dev.skip_refresh();
  issue_ref(dev);
  EXPECT_EQ(dev.retention_violations(), 1);
  const Picoseconds gap{41 * 64 * t.tREFI.count};
  const Picoseconds overshoot = dev.max_retention_overshoot();
  EXPECT_GT(overshoot.count, 0);
  EXPECT_EQ(overshoot, gap - dev.stripe_min_retention(0, 0));
}

// --------------------------------------------------------------------------
// EasyApi pacing with a policy installed
// --------------------------------------------------------------------------

/// Standalone SMC harness (mirrors tests/test_memsys.cpp) with a
/// configurable refresh policy.
struct Harness {
  explicit Harness(const dram::Geometry& g,
                   const dram::VariationConfig& v = dram::VariationConfig{})
      : geo(g),
        device(geo, dram::ddr4_1333(), v),
        tile(tile::TileConfig{}),
        mapper(geo),
        keeper(timescale::SystemMode::kTimeScaling,
               timescale::DomainConfig{Frequency::megahertz(100),
                                       Frequency::gigahertz(1)},
               Frequency::megahertz(100), Cycles{24}),
        api(tile, device, mapper, keeper, 0) {}

  void advance_emulated_past_slots(std::int64_t slots) {
    const dram::TimingParams t = dram::ddr4_1333();
    const std::int64_t target_ns =
        (slots * t.tREFI.count + t.tRFC.count + 1000) / 1000;
    const std::int64_t now = keeper.counters().mc();
    ASSERT_GE(target_ns, now);
    keeper.counters().advance_mc(target_ns - now);
  }

  dram::Geometry geo;
  dram::DramDevice device;
  tile::EasyTile tile;
  smc::LinearMapper mapper;
  timescale::TimeKeeper keeper;
  smc::EasyApi api;
};

class SkipEverything final : public smc::RefreshPolicy {
 public:
  bool should_issue(std::uint32_t, std::int64_t) override { return false; }
};

class SkipOddSlots final : public smc::RefreshPolicy {
 public:
  bool should_issue(std::uint32_t, std::int64_t slot) override {
    return slot % 2 == 0;
  }
};

TEST(ApiRefreshPacing, SkippedSlotsConsumePacingWithoutIssuing) {
  Harness h(dram::Geometry{});
  SkipEverything policy;
  h.api.set_refresh_policy(&policy);
  h.advance_emulated_past_slots(5);
  h.api.refresh_if_due();
  EXPECT_EQ(h.device.refresh_slots(), 5);
  EXPECT_EQ(h.device.refreshes_issued(), 0);
  EXPECT_EQ(h.api.stats().refreshes_issued, 0);
  EXPECT_EQ(h.api.stats().refreshes_skipped, 5);
  EXPECT_EQ(h.api.stats().dram_busy.count, 0);  // Skips charge nothing.

  // Once caught up, calling again owes nothing.
  h.api.refresh_if_due();
  EXPECT_EQ(h.api.stats().refreshes_skipped, 5);
}

TEST(ApiRefreshPacing, MixedScheduleSplitsSlotsExactly) {
  Harness h(dram::Geometry{});
  SkipOddSlots policy;
  h.api.set_refresh_policy(&policy);
  h.advance_emulated_past_slots(8);
  h.api.refresh_if_due();
  EXPECT_EQ(h.device.refresh_slots(), 8);
  EXPECT_EQ(h.device.refreshes_issued(), 4);
  EXPECT_EQ(h.api.stats().refreshes_issued, 4);
  EXPECT_EQ(h.api.stats().refreshes_skipped, 4);
}

TEST(ApiRefreshPacing, PolicyConsultedPerRank) {
  dram::Geometry geo;
  geo.ranks_per_channel = 2;
  Harness h(geo);
  // Rank 1 skips everything, rank 0 issues everything.
  class Rank1Skips final : public smc::RefreshPolicy {
   public:
    bool should_issue(std::uint32_t rank, std::int64_t) override {
      return rank == 0;
    }
  } policy;
  h.api.set_refresh_policy(&policy);
  h.advance_emulated_past_slots(3);
  h.api.refresh_if_due();
  EXPECT_EQ(h.device.refreshes_issued(0), 3);
  EXPECT_EQ(h.device.refreshes_issued(1), 0);
  EXPECT_EQ(h.device.refresh_slots(1), 3);
}

TEST(ApiRefreshPacing, NullAndAllRowsPoliciesMatchBitForBit) {
  Harness null_h(dram::Geometry{});
  Harness all_h(dram::Geometry{});
  smc::AllRowsRefreshPolicy all_rows;
  all_h.api.set_refresh_policy(&all_rows);
  null_h.advance_emulated_past_slots(7);
  all_h.advance_emulated_past_slots(7);
  null_h.api.refresh_if_due();
  all_h.api.refresh_if_due();
  EXPECT_EQ(null_h.device.refreshes_issued(), all_h.device.refreshes_issued());
  EXPECT_EQ(null_h.device.refresh_slots(), all_h.device.refresh_slots());
  EXPECT_EQ(null_h.api.stats().refreshes_skipped, 0);
  EXPECT_EQ(all_h.api.stats().refreshes_skipped, 0);
  EXPECT_EQ(null_h.keeper.wall(), all_h.keeper.wall());
}

// --------------------------------------------------------------------------
// Mitigator interplay: Graphene's retention window under skipped slots
// --------------------------------------------------------------------------

TEST(GrapheneWindow, SkippedSlotsCountTowardTheWindowReset) {
  // 64-slot window geometry: the window must follow the geometry, and a
  // skipping policy's slots must advance it like issued REFs do.
  const dram::Geometry geo = small_window_geometry();
  smc::mitigation::MitigationConfig cfg;
  cfg.kind = smc::mitigation::MitigationKind::kGraphene;
  smc::mitigation::GrapheneMitigator g(cfg, geo);

  std::vector<dram::DramAddress> victims;
  const dram::DramAddress aggressor{0, 1030, 0};
  g.on_activate(aggressor, victims);
  ASSERT_GT(g.tracked_count(0, 1030), 0);

  // A full window minus one slot — mixed issued and skipped — must not
  // reset; the slot completing the window must.
  for (std::uint32_t slot = 0; slot + 1 < geo.refresh_window_refs; ++slot) {
    if (slot % 3 == 0) {
      g.on_refresh(0);
    } else {
      g.on_refresh_skipped(0);
    }
  }
  EXPECT_GT(g.tracked_count(0, 1030), 0);
  EXPECT_EQ(g.stats().window_resets, 0);
  g.on_refresh_skipped(0);
  EXPECT_EQ(g.tracked_count(0, 1030), 0);
  EXPECT_EQ(g.stats().window_resets, 1);
}

// --------------------------------------------------------------------------
// Full system
// --------------------------------------------------------------------------

cpu::VectorTrace stress_trace(std::size_t records) {
  std::vector<cpu::TraceRecord> t;
  for (std::size_t i = 0; i < records; ++i) {
    cpu::TraceRecord r;
    r.op = cpu::Op::kLoadDependent;
    r.gap_instructions = 20000;
    r.set_addr(static_cast<std::uint64_t>(i) * 8192);
    t.push_back(r);
  }
  return cpu::VectorTrace(std::move(t));
}

TEST(SystemRaidr, SkipsRefreshesAndBalancesTheLedger) {
  sys::SystemConfig cfg = sys::jetson_nano_time_scaling();
  cfg.refresh = smc::RefreshKind::kRaidr;
  sys::EasyDramSystem sysm(cfg);
  cpu::VectorTrace trace = stress_trace(64);
  sysm.run(trace);
  const smc::ApiStats s = sysm.smc_stats();
  EXPECT_GT(s.refreshes_issued, 0);
  EXPECT_GT(s.refreshes_skipped, 0);
  // The ledger: every consumed slot was either issued or skipped.
  EXPECT_EQ(s.refreshes_issued + s.refreshes_skipped,
            sysm.refresh_slots_consumed());
  // The profiled binning is dominated by the strong bin on the default
  // chip, so most slots skip.
  EXPECT_GT(s.refreshes_skipped, s.refreshes_issued);
  const smc::RaidrBinStats bins = sysm.refresh_bin_stats();
  EXPECT_EQ(bins.stripes_total, 8192);
  EXPECT_GT(bins.stripes_x4, 6000);
  EXPECT_LT(bins.issue_fraction, 0.5);
}

TEST(SystemRaidr, AllRowsConfigSkipsNothing) {
  sys::SystemConfig cfg = sys::jetson_nano_time_scaling();
  sys::EasyDramSystem sysm(cfg);
  cpu::VectorTrace trace = stress_trace(32);
  sysm.run(trace);
  const smc::ApiStats s = sysm.smc_stats();
  EXPECT_GT(s.refreshes_issued, 0);
  EXPECT_EQ(s.refreshes_skipped, 0);
  EXPECT_EQ(s.refreshes_issued, sysm.refresh_slots_consumed());
  EXPECT_EQ(sysm.refresh_bin_stats().stripes_total, 0);
}

}  // namespace
}  // namespace easydram
