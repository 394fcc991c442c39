#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "smc/addr_map.hpp"
#include "smc/controller.hpp"
#include "smc/easyapi.hpp"
#include "smc/rowclone_alloc.hpp"
#include "sys/system.hpp"
#include "workloads/builder.hpp"

// Multi-channel / multi-rank memory-subsystem tests: the generalized
// address space, per-rank device state, channel routing, and the
// channel-scaling behaviour of the full system.

namespace easydram {
namespace {

using namespace easydram::literals;

dram::VariationConfig strong_variation() {
  dram::VariationConfig v;
  v.min_trcd = Picoseconds{1000};
  v.max_trcd = Picoseconds{1001};
  v.rowclone_pair_success = 1.0;
  return v;
}

dram::Geometry two_rank_geometry() {
  dram::Geometry geo;
  geo.ranks_per_channel = 2;
  return geo;
}

// --------------------------------------------------------------------------
// Device: per-rank bank and timing state
// --------------------------------------------------------------------------

TEST(MultiRankDevice, RanksHaveIndependentBankState) {
  const dram::Geometry geo = two_rank_geometry();
  dram::DramDevice dev(geo, dram::ddr4_1333(), strong_variation());

  dram::DramAddress r1{3, 77, 0};
  r1.rank = 1;
  dev.issue(dram::Command::kAct, r1, dev.earliest_legal(dram::Command::kAct, r1));
  EXPECT_FALSE(dev.open_row(3, 0).has_value());
  ASSERT_TRUE(dev.open_row(3, 1).has_value());
  EXPECT_EQ(*dev.open_row(3, 1), 77u);

  dram::DramAddress r0{3, 12, 0};
  dev.issue(dram::Command::kAct, r0, dev.earliest_legal(dram::Command::kAct, r0));
  EXPECT_EQ(*dev.open_row(3, 0), 12u);
  EXPECT_EQ(*dev.open_row(3, 1), 77u);  // Undisturbed.
}

TEST(MultiRankDevice, RanksHaveIndependentStorage) {
  const dram::Geometry geo = two_rank_geometry();
  dram::DramDevice dev(geo, dram::ddr4_1333(), strong_variation());

  std::array<std::uint8_t, 64> a{};
  a.fill(0xAA);
  std::array<std::uint8_t, 64> b{};
  b.fill(0xBB);
  dram::DramAddress addr0{5, 9, 3};
  dram::DramAddress addr1 = addr0;
  addr1.rank = 1;
  dev.backdoor_write(addr0, a);
  dev.backdoor_write(addr1, b);

  std::array<std::uint8_t, 64> out{};
  dev.backdoor_read(addr0, out);
  EXPECT_EQ(std::memcmp(out.data(), a.data(), 64), 0);
  dev.backdoor_read(addr1, out);
  EXPECT_EQ(std::memcmp(out.data(), b.data(), 64), 0);
}

TEST(MultiRankDevice, TfawTrackedPerRank) {
  const dram::Geometry geo = two_rank_geometry();
  dram::DramDevice dev(geo, dram::ddr4_1333(), strong_variation());
  const dram::TimingParams t = dram::ddr4_1333();

  // Four back-to-back ACTs to distinct banks of rank 0 fill its tFAW window.
  Picoseconds at{0};
  for (std::uint32_t bank = 0; bank < 4; ++bank) {
    const dram::DramAddress a{bank, 0, 0};
    at = dev.earliest_legal(dram::Command::kAct, a);
    dev.issue(dram::Command::kAct, a, at);
  }
  // A fifth ACT on rank 0 must wait for the window; the same ACT on rank 1
  // is constrained only by its own (empty) window.
  const dram::DramAddress fifth0{4, 0, 0};
  dram::DramAddress fifth1 = fifth0;
  fifth1.rank = 1;
  EXPECT_GE(dev.earliest_legal(dram::Command::kAct, fifth0),
            Picoseconds{t.tFAW});
  EXPECT_LT(dev.earliest_legal(dram::Command::kAct, fifth1),
            Picoseconds{t.tFAW});
}

TEST(MultiRankDevice, RankSwitchPaysTrtrsOnTheSharedBus) {
  const dram::Geometry geo = two_rank_geometry();
  dram::DramDevice dev(geo, dram::ddr4_1333(), strong_variation());

  // Open row 0 of bank 0 on both ranks, then read rank 0.
  for (std::uint32_t rank = 0; rank < 2; ++rank) {
    dram::DramAddress a{0, 0, 0};
    a.rank = rank;
    dev.issue(dram::Command::kAct, a, dev.earliest_legal(dram::Command::kAct, a));
  }
  dram::DramAddress rd0{0, 0, 0};
  dev.issue(dram::Command::kRead, rd0, dev.earliest_legal(dram::Command::kRead, rd0));

  // The next read on the *same* rank can start tRTRS earlier than the same
  // read on the other rank (same bank group spacing on both).
  dram::DramAddress next_same{0, 0, 1};
  dram::DramAddress next_other = next_same;
  next_other.rank = 1;
  const Picoseconds same = dev.earliest_legal(dram::Command::kRead, next_same);
  const Picoseconds other = dev.earliest_legal(dram::Command::kRead, next_other);
  EXPECT_GT(other, same);
}

TEST(MultiRankDevice, RefreshCountsPerRank) {
  const dram::Geometry geo = two_rank_geometry();
  dram::DramDevice dev(geo, dram::ddr4_1333(), strong_variation());

  dram::DramAddress ref0{};  // rank 0
  dram::DramAddress ref1{};
  ref1.rank = 1;
  dev.issue(dram::Command::kRef, ref0, dev.earliest_legal(dram::Command::kRef, ref0));
  EXPECT_EQ(dev.refreshes_issued(0), 1);
  EXPECT_EQ(dev.refreshes_issued(1), 0);
  dev.issue(dram::Command::kRef, ref1, dev.earliest_legal(dram::Command::kRef, ref1));
  EXPECT_EQ(dev.refreshes_issued(1), 1);
}

// --------------------------------------------------------------------------
// EasyApi on a multi-rank channel
// --------------------------------------------------------------------------

/// Standalone SMC harness over a configurable geometry and channel id.
struct Harness {
  explicit Harness(const dram::Geometry& g, std::uint32_t channel = 0)
      : geo(g),
        device(geo, dram::ddr4_1333(), strong_variation()),
        tile(tile::TileConfig{}),
        mapper(geo),
        keeper(timescale::SystemMode::kTimeScaling,
               timescale::DomainConfig{Frequency::megahertz(100),
                                       Frequency::gigahertz(1)},
               Frequency::megahertz(100), Cycles{24}),
        api(tile, device, mapper, keeper, channel) {}

  dram::Geometry geo;
  dram::DramDevice device;
  tile::EasyTile tile;
  smc::LinearMapper mapper;
  timescale::TimeKeeper keeper;
  smc::EasyApi api;
};

TEST(MultiRankApi, PendingRowsTrackedPerRank) {
  Harness h(two_rank_geometry());
  // Same bank index on both ranks inside ONE batch: no precharge needed,
  // the opens are independent.
  dram::DramAddress a0{2, 5, 0};
  dram::DramAddress a1{2, 9, 0};
  a1.rank = 1;
  h.api.read_sequence(a0);
  h.api.read_sequence(a1);
  const auto r = h.api.flush_commands();
  EXPECT_EQ(r.violations, dram::kNone);
  EXPECT_EQ(h.device.commands_issued(dram::Command::kPre), 0);
  EXPECT_EQ(h.device.commands_issued(dram::Command::kAct), 2);
  EXPECT_EQ(*h.device.open_row(2, 0), 5u);
  EXPECT_EQ(*h.device.open_row(2, 1), 9u);
}

TEST(MultiRankApi, RefreshCatchUpCoversEveryRank) {
  Harness h(two_rank_geometry());
  h.keeper.counters().advance_mc(100'000);  // 100 us at 1 GHz.
  h.api.refresh_if_due();
  const std::int64_t due = h.device.refreshes_due(h.keeper.emulated_now());
  EXPECT_GT(due, 0);
  EXPECT_EQ(h.device.refreshes_issued(0), due);
  EXPECT_EQ(h.device.refreshes_issued(1), due);
}

// --------------------------------------------------------------------------
// Maintenance-batch refresh pacing (easyapi.cpp refresh_rank_if_due): the
// catch-up loop must terminate (tRFC << tREFI), charge only refreshes whose
// tRFC window overlaps "now", and keep every rank converged even though a
// charged refresh on one rank advances the clock the next rank reads.
// --------------------------------------------------------------------------

/// Advances the emulated clock to `target_ns` (1 cycle == 1 ns at the
/// harness's 1 GHz emulated clock).
void advance_emulated_to_ns(Harness& h, std::int64_t target_ns) {
  const std::int64_t now = h.keeper.counters().mc();
  ASSERT_GE(target_ns, now);
  h.keeper.counters().advance_mc(target_ns - now);
}

TEST(MultiRankApi, CatchUpRefreshesRunUncharged) {
  Harness h(two_rank_geometry());
  const dram::TimingParams t = h.api.timing();
  // Land well past the 3rd tREFI *and* past its tRFC window: every owed
  // refresh would have overlapped compute, so none may charge a timeline.
  advance_emulated_to_ns(
      h, (3 * t.tREFI.count + t.tRFC.count + 100'000) / 1000);
  const Picoseconds wall_before = h.keeper.wall();
  h.api.refresh_if_due();
  EXPECT_EQ(h.device.refreshes_issued(0), 3);
  EXPECT_EQ(h.device.refreshes_issued(1), 3);
  EXPECT_EQ(h.api.stats().dram_busy.count, 0);
  EXPECT_EQ(h.keeper.wall(), wall_before);
  EXPECT_EQ(h.api.stats().refreshes_issued, 6);
}

TEST(MultiRankApi, InFlightRefreshChargesTheTimeline) {
  Harness h(two_rank_geometry());
  const dram::TimingParams t = h.api.timing();
  // Land *inside* the 3rd refresh's tRFC window: that refresh is still in
  // flight "now" and must delay current work — per rank.
  advance_emulated_to_ns(h, (3 * t.tREFI.count + t.tRFC.count / 2) / 1000);
  const Picoseconds wall_before = h.keeper.wall();
  h.api.refresh_if_due();
  // Both ranks fully caught up against the clock their own charged
  // refreshes advanced (the convergence contract of refresh_rank_if_due).
  const std::int64_t due = h.device.refreshes_due(h.keeper.emulated_now());
  EXPECT_GE(h.device.refreshes_issued(0), 3);
  EXPECT_GE(h.device.refreshes_issued(1), 3);
  EXPECT_GE(h.device.refreshes_issued(0), due);
  EXPECT_GE(h.device.refreshes_issued(1), due);
  // Rank 0's in-flight refresh charged at least its tRFC. Rank 1 may then
  // legitimately see its own window already past (rank 0's charge advanced
  // the shared clock), so only a lower bound of one charge is portable.
  EXPECT_GE(h.api.stats().dram_busy, t.tRFC);
  EXPECT_GE(h.keeper.wall(), wall_before + t.tRFC);
}

TEST(MultiRankApi, RepeatedPacingIssuesExactlyOneRefreshPerTrefiPerRank) {
  Harness h(two_rank_geometry());
  const dram::TimingParams t = h.api.timing();
  // Walk the clock one tREFI at a time (landing past each window): every
  // step owes each rank exactly one more refresh — no drift, no backlog.
  for (std::int64_t k = 1; k <= 5; ++k) {
    advance_emulated_to_ns(h, (k * t.tREFI.count + t.tRFC.count + 1000) / 1000);
    h.api.refresh_if_due();
    EXPECT_EQ(h.device.refreshes_issued(0), k);
    EXPECT_EQ(h.device.refreshes_issued(1), k);
  }
  EXPECT_EQ(h.api.stats().dram_busy.count, 0);
}

TEST(MultiRankController, CrossRankRowClonePairFallsBack) {
  const dram::Geometry geo = two_rank_geometry();
  Harness h(geo);
  smc::RowCloneMap map;
  // Record the rank-0 pair as clonable under the system-wide bank key; the
  // cross-rank request below must not alias onto it.
  map.record(geo.system_bank(dram::DramAddress{0, 0, 0}), 0, 0, true);
  smc::ControllerOptions opt;
  opt.clonable = &map;
  smc::MemoryController c(std::move(opt));

  tile::Request r;
  r.id = 1;
  r.kind = tile::RequestKind::kRowClone;
  r.paddr = 0;  // rank 0, bank 0, row 0 under the linear mapping.
  r.paddr2 = geo.rank_capacity_bytes();  // rank 1, bank 0, row 0.
  r.arrival_wall = h.keeper.wall();
  h.tile.incoming().push(std::move(r));
  for (int i = 0; i < 10000 && h.tile.outgoing().empty(); ++i) c.step(h.api);
  ASSERT_FALSE(h.tile.outgoing().empty());
  EXPECT_FALSE(h.tile.outgoing().pop().ok);  // CPU fallback, no aliasing.
}

// --------------------------------------------------------------------------
// EasyApi's open-row array: after every flush it must equal the device's
// open rows, for every (rank, bank), whatever the batch did.
// --------------------------------------------------------------------------

/// Asserts that `api`'s effective open rows (the array its bank view
/// reads) equal `device`'s for every bank of every rank.
void expect_open_rows_match(const smc::EasyApi& api,
                            const dram::DramDevice& device,
                            const std::string& where) {
  const smc::BankStateView view = api.bank_view();
  for (std::uint32_t rank = 0; rank < device.num_ranks(); ++rank) {
    for (std::uint32_t bank = 0; bank < device.geometry().num_banks(); ++bank) {
      ASSERT_EQ(api.open_row(bank, rank), device.open_row(bank, rank))
          << where << ": rank " << rank << " bank " << bank;
      ASSERT_EQ(view.open_row(bank, rank), device.open_row(bank, rank))
          << where << ": rank " << rank << " bank " << bank;
    }
  }
}

TEST(OpenRowArray, MatchesDeviceAfterEveryDirectFlush) {
  Harness h(two_rank_geometry());
  SplitMix64 rng(11);
  const std::array<std::uint8_t, 64> data{};
  expect_open_rows_match(h.api, h.device, "construction");
  for (int step = 0; step < 300; ++step) {
    // A batch of random sequences, including REF and precharge-all over
    // whatever rows the batch left open, which close a whole rank.
    const int n = 1 + static_cast<int>(rng.next() % 6);
    for (int i = 0; i < n; ++i) {
      dram::DramAddress a{static_cast<std::uint32_t>(rng.next() % 4),
                          static_cast<std::uint32_t>(rng.next() % 4), 0};
      a.rank = static_cast<std::uint32_t>(rng.next() % 2);
      switch (rng.next() % 8) {
        case 0:
          h.api.ddr_refresh(a.rank);
          break;
        case 1:
          h.api.ddr_exact(dram::Command::kPreAll, a, h.device.timing().tRP);
          break;
        case 2:
          h.api.rowclone(a.bank, a.row, a.row + 8, a.rank);
          break;
        case 3:
          h.api.close_row(a.bank, a.rank);
          break;
        case 4:
          h.api.write_sequence(a, data);
          break;
        default:
          h.api.read_sequence(a);
          break;
      }
    }
    h.api.flush_commands();
    expect_open_rows_match(h.api, h.device, "step " + std::to_string(step));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(OpenRowArray, MatchesDeviceAcrossControllerPaths) {
  // A 2-rank channel driven through reads and writes, refresh catch-up,
  // RowClone, PARA victim refreshes and ECC retries. Every controller step
  // ends in a flush, so the array is compared after each one.
  const dram::Geometry geo = two_rank_geometry();
  Harness h(geo);

  smc::EccConfig ecc;
  ecc.enabled = true;
  smc::ErrorPolicy ep(geo, ecc);
  h.api.set_error_policy(&ep);

  // Lines live in rows 0-3 of banks 0-3, columns 0-3, on both ranks;
  // RowClone copies rows 0-3 to rows 8-11, which demand traffic never
  // touches.
  std::vector<std::uint64_t> lines;
  smc::RowCloneMap map;
  for (std::uint32_t rank = 0; rank < 2; ++rank) {
    for (std::uint32_t bank = 0; bank < 4; ++bank) {
      for (std::uint32_t row = 0; row < 4; ++row) {
        dram::DramAddress a{bank, row, 0};
        a.rank = rank;
        map.record(geo.system_bank(a), row, row + 8, true);
        for (std::uint32_t col = 0; col < 4; ++col) {
          a.col = col;
          lines.push_back(h.mapper.to_physical(a));
        }
      }
    }
  }

  // Double-bit upsets on a few lines: each decodes uncorrectable once and
  // is re-read.
  dram::FaultConfig faults;
  faults.enabled = true;
  for (std::uint32_t i = 0; i < 8; ++i) {
    const dram::DramAddress a = h.mapper.to_dram(lines[i * 13 % lines.size()]);
    faults.plan.transient.push_back({Picoseconds{0}, geo.flat_bank(a.rank, a.bank),
                                     a.row, a.col, 0, 0x3});
  }
  h.device.install_fault_model(faults);

  smc::mitigation::MitigationConfig para;
  para.kind = smc::mitigation::MitigationKind::kPara;
  para.para_probability = 0.25;
  const auto mitigator = smc::mitigation::make_mitigator(para, geo, 0);
  smc::ControllerOptions opt;
  opt.clonable = &map;
  opt.mitigator = mitigator.get();
  smc::MemoryController c(std::move(opt));
  h.api.set_act_sink(&c);

  SplitMix64 rng(5);
  std::uint64_t next_id = 1;
  std::size_t outstanding = 0;
  const auto push = [&](tile::Request r) {
    r.id = next_id++;
    r.arrival_wall = h.keeper.wall();
    h.tile.incoming().push(std::move(r));
    ++outstanding;
  };
  const auto run = [&](const std::string& phase) {
    for (int i = 0; i < 10000 && outstanding > 0; ++i) {
      c.step(h.api);
      while (!h.tile.outgoing().empty()) {
        h.tile.outgoing().pop();
        --outstanding;
      }
      expect_open_rows_match(h.api, h.device,
                             phase + " step " + std::to_string(i));
      if (::testing::Test::HasFatalFailure()) return;
    }
    ASSERT_EQ(outstanding, 0u) << phase;
  };

  // Write every line first, so the reads below decode against check bits.
  for (std::size_t i = 0; i < lines.size(); ++i) {
    tile::Request w;
    w.kind = tile::RequestKind::kWrite;
    w.paddr = lines[i];
    w.wdata.fill(static_cast<std::uint8_t>(i));
    push(std::move(w));
    if (h.tile.incoming().full() || i + 1 == lines.size()) run("writes");
    if (::testing::Test::HasFatalFailure()) return;
  }

  for (int round = 0; round < 60; ++round) {
    // Jump the emulated clock now and then: the next step catches up on
    // the refreshes that fell due, over whatever rows are open.
    if (round % 4 == 3) h.keeper.counters().advance_mc(20'000);
    const int n = 1 + static_cast<int>(rng.next() % 12);
    for (int i = 0; i < n; ++i) {
      tile::Request r;
      r.paddr = lines[rng.next() % lines.size()];
      switch (rng.next() % 8) {
        case 0: {
          r.kind = tile::RequestKind::kRowClone;
          const dram::DramAddress src = h.mapper.to_dram(r.paddr);
          dram::DramAddress dst = src;
          dst.row += 8;
          dst.col = 0;
          r.paddr2 = h.mapper.to_physical(dst);
          break;
        }
        case 1:
        case 2:
          r.kind = tile::RequestKind::kWrite;
          r.wdata.fill(static_cast<std::uint8_t>(round));
          break;
        default:
          r.kind = tile::RequestKind::kRead;
          break;
      }
      push(std::move(r));
    }
    run("round " + std::to_string(round));
    if (::testing::Test::HasFatalFailure()) return;
  }

  // Every path the test is about actually ran.
  const smc::ApiStats& s = h.api.stats();
  EXPECT_GT(s.refreshes_issued, 0);
  EXPECT_GT(s.rowclone_successes, 0);
  EXPECT_GT(s.retries_issued, 0);
  EXPECT_GT(mitigator->stats().neighbor_refreshes, 0);
  EXPECT_EQ(s.ecc_escaped, 0);
}

TEST(MultiChannelRowClone, PairTesterRecordsUnderTheControllersKeyNamespace) {
  // The pair tester and the controller must agree on the RowCloneMap key
  // namespace (the system-wide bank index) even off channel 0.
  dram::Geometry geo;
  geo.channels = 2;
  Harness h(geo, /*channel=*/1);
  smc::RowCloneMap map;
  smc::RowClonePairTester tester(h.api, /*trials=*/2);
  ASSERT_TRUE(tester.test(/*bank=*/3, /*src_row=*/10, /*dst_row=*/11, map));

  dram::DramAddress key{3, 0, 0};
  key.channel = 1;
  EXPECT_TRUE(map.clonable(geo.system_bank(key), 10, 11));
  // The channel-0 namespace stays unclaimed: no cross-channel aliasing.
  EXPECT_FALSE(map.clonable(3, 10, 11));
}

// --------------------------------------------------------------------------
// Full system: channel routing and scaling
// --------------------------------------------------------------------------

sys::SystemConfig channels_config(std::uint32_t channels,
                                  smc::MappingKind mapping) {
  sys::SystemConfig cfg = sys::jetson_nano_time_scaling();
  cfg.variation = strong_variation();
  cfg.geometry.channels = channels;
  cfg.mapping = mapping;
  return cfg;
}

/// Requests/us of a stride-64 read burst driven straight into the backend.
double burst_throughput(const sys::SystemConfig& cfg, int n) {
  sys::EasyDramSystem sysm(cfg);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < n; ++i) {
    ids.push_back(sysm.submit_read(static_cast<std::uint64_t>(i) * 64, 100 + i));
  }
  for (const auto id : ids) sysm.wait(id);
  return static_cast<double>(n) / sysm.wall().microseconds();
}

TEST(MultiChannelSystem, ChannelInterleavedMapperRoutesRoundRobin) {
  const sys::SystemConfig cfg =
      channels_config(4, smc::MappingKind::kChannelInterleaved);
  sys::EasyDramSystem sysm(cfg);
  ASSERT_EQ(sysm.num_channels(), 4u);
  for (std::uint64_t line = 0; line < 16; ++line) {
    EXPECT_EQ(sysm.mapper().to_dram(line * 64).channel, line % 4);
  }
}

TEST(MultiChannelSystem, RequestsLandOnTheirChannel) {
  const sys::SystemConfig cfg =
      channels_config(2, smc::MappingKind::kChannelInterleaved);
  sys::EasyDramSystem sysm(cfg);
  // 8 reads alternating channels: each channel's controller must have
  // served exactly its half.
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(sysm.submit_read(static_cast<std::uint64_t>(i) * 64, 100 + i));
  }
  for (const auto id : ids) EXPECT_GT(sysm.wait(id).release_cycle, 0);
  EXPECT_EQ(sysm.api(0).stats().requests_received, 4);
  EXPECT_EQ(sysm.api(1).stats().requests_received, 4);
  EXPECT_EQ(sysm.smc_stats().requests_received, 8);
}

TEST(MultiChannelSystem, FourChannelsBeatOneOnBankParallelBurst) {
  const double one =
      burst_throughput(channels_config(1, smc::MappingKind::kChannelInterleaved), 128);
  const double four =
      burst_throughput(channels_config(4, smc::MappingKind::kChannelInterleaved), 128);
  EXPECT_GT(four, 1.5 * one);
}

TEST(MultiChannelSystem, MultiChannelRunIsDeterministic) {
  auto run_once = [] {
    sys::SystemConfig cfg = channels_config(4, smc::MappingKind::kChannelInterleaved);
    cfg.geometry.ranks_per_channel = 2;
    sys::EasyDramSystem sysm(cfg);
    workloads::TraceBuilder b;
    for (int i = 0; i < 400; ++i) {
      b.load(static_cast<std::uint64_t>(i) * 64);
      if (i % 3 == 0) b.store(static_cast<std::uint64_t>(i) * 64 + (1u << 20));
    }
    cpu::VectorTrace trace(b.take());
    const cpu::RunResult r = sysm.run(trace);
    return std::pair<std::int64_t, std::int64_t>(r.cycles, sysm.wall().count);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_GT(a.first, 0);
  EXPECT_EQ(a, b);
}

TEST(MultiChannelSystem, WeakRowCharacterizationCoversEveryChannel) {
  sys::SystemConfig cfg = sys::jetson_nano_time_scaling();
  cfg.geometry.channels = 2;
  cfg.mapping = smc::MappingKind::kChannelInterleaved;
  // Default variation (not the all-strong test chip): each channel's chip
  // is reseeded, so their weak rows differ and both must be profiled.
  sys::EasyDramSystem sysm(cfg);
  const std::vector<std::uint32_t> banks{0};
  const auto stats = sysm.characterize_and_install_weak_rows(
      banks, /*rows_per_bank=*/32, Picoseconds{9000}, 1 << 14, 4,
      /*lines_per_row=*/4);
  EXPECT_EQ(stats.rows_profiled, 2 * 32);  // Both channels, every row.
}

TEST(MultiChannelSystem, SingleChannelDefaultMatchesLegacyShape) {
  // The default configuration still reports one channel and the historical
  // accessors address it.
  sys::SystemConfig cfg = sys::jetson_nano_time_scaling();
  sys::EasyDramSystem sysm(cfg);
  EXPECT_EQ(sysm.num_channels(), 1u);
  EXPECT_EQ(&sysm.api(), &sysm.api(0));
  EXPECT_EQ(&sysm.device(), &sysm.device(0));
}

}  // namespace
}  // namespace easydram
