#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <map>
#include <tuple>
#include <vector>

#include "bender/interpreter.hpp"
#include "common/rng.hpp"
#include "smc/addr_map.hpp"
#include "sys/system.hpp"
#include "workloads/builder.hpp"

// Property-based suites: randomized (seeded, deterministic) traffic checked
// against golden models and cross-configuration invariants.

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

// --------------------------------------------------------------------------
// DRAM device vs. a trivial golden store under random legal traffic
// --------------------------------------------------------------------------

/// One command of the traffic below, kept so a sampled prefix can be
/// replayed into a fresh device.
struct IssuedCommand {
  dram::Command cmd;
  dram::DramAddress addr;
  Picoseconds at;
  std::array<std::uint8_t, 64> data;
};

/// (seed, ranks per channel).
class DeviceGoldenModel
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::uint32_t>> {};

// Random ACT/PRE/RD/WR traffic with PREA and REF interleaved, on one or two
// ranks (cross-rank bursts pay tRTRS), every command issued at
// earliest_legal: nothing is ever flagged and every read matches a golden
// store. Tightness: within the first 1500 commands, on every 25th command
// and every PREA and REF that earliest_legal holds back, a replayed twin
// issues the command one picosecond early and must flag a timing bit, so
// earliest_legal never waits longer than some nominal rule demands.
TEST_P(DeviceGoldenModel, LegalTrafficNeverCorruptsData) {
  const auto [seed, ranks] = GetParam();
  dram::Geometry geo;
  geo.ranks_per_channel = ranks;
  const dram::TimingParams timing = dram::ddr4_1333();
  dram::DramDevice dev(geo, timing, strong_variation());
  Xoshiro256ss rng(seed);

  // Golden model: (rank,bank,row,col) -> last written 64-byte value.
  std::map<std::uint64_t, std::array<std::uint8_t, 64>> golden;
  auto key = [](const dram::DramAddress& a) {
    return (static_cast<std::uint64_t>(a.rank) << 56) |
           (static_cast<std::uint64_t>(a.bank) << 40) |
           (static_cast<std::uint64_t>(a.row) << 8) | a.col;
  };

  constexpr std::uint32_t kStateBits =
      dram::kBankNotIdle | dram::kBankNotActive | dram::kRefreshNotIdle;
  constexpr std::size_t kProbeEvery = 25;
  constexpr std::size_t kProbedPrefix = 1500;  // Bounds the replay cost.
  std::vector<IssuedCommand> history;
  int probes = 0;
  std::uint32_t violations = 0;
  auto issue_legal = [&](dram::Command c, const dram::DramAddress& a,
                         const std::array<std::uint8_t, 64>& data) {
    const Picoseconds at = dev.earliest_legal(c, a);
    const bool sampled = history.size() % kProbeEvery == 0 ||
                         c == dram::Command::kPreAll || c == dram::Command::kRef;
    if (sampled && history.size() < kProbedPrefix && at > dev.now()) {
      dram::DramDevice twin(geo, timing, strong_variation());
      for (const IssuedCommand& h : history) twin.issue(h.cmd, h.addr, h.at, h.data);
      const std::uint32_t early =
          twin.issue(c, a, at - Picoseconds{1}, data).violations;
      EXPECT_NE(early & ~kStateBits, 0u)
          << dram::to_string(c) << " one ps before earliest_legal " << at.count;
      ++probes;
    }
    history.push_back({c, a, at, data});
    const dram::IssueResult r = dev.issue(c, a, at, data);
    violations |= r.violations;
    return r;
  };

  const std::array<std::uint8_t, 64> no_data{};
  for (int step = 0; step < 2000; ++step) {
    const auto rank = static_cast<std::uint32_t>(rng.next_below(ranks));
    if (const std::uint64_t r = rng.next_below(60); r < 2) {
      // Close every bank of the rank; half the time refresh it as well.
      issue_legal(dram::Command::kPreAll, {0, 0, 0, 0, rank}, no_data);
      if (r == 1) issue_legal(dram::Command::kRef, {0, 0, 0, 0, rank}, no_data);
      continue;
    }
    const dram::DramAddress a{
        static_cast<std::uint32_t>(rng.next_below(geo.num_banks())),
        static_cast<std::uint32_t>(rng.next_below(256)),
        static_cast<std::uint32_t>(rng.next_below(geo.cols_per_row())), 0, rank};

    // Open the right row legally.
    const auto open = dev.open_row(a.bank, a.rank);
    if (open && *open != a.row) {
      issue_legal(dram::Command::kPre, {a.bank, 0, 0, 0, rank}, no_data);
    }
    if (!dev.open_row(a.bank, a.rank)) issue_legal(dram::Command::kAct, a, no_data);

    if (rng.next_below(2) == 0) {
      std::array<std::uint8_t, 64> data{};
      for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
      issue_legal(dram::Command::kWrite, a, data);
      golden[key(a)] = data;
    } else {
      const dram::IssueResult r = issue_legal(dram::Command::kRead, a, no_data);
      EXPECT_TRUE(r.data_reliable);
      const auto it = golden.find(key(a));
      if (it != golden.end()) {
        EXPECT_EQ(std::memcmp(r.data.data(), it->second.data(), 64), 0)
            << "rank " << a.rank << " bank " << a.bank << " row " << a.row
            << " col " << a.col;
      } else {
        for (const std::uint8_t b : r.data) EXPECT_EQ(b, 0);
      }
    }
  }
  EXPECT_EQ(violations, dram::kNone);
  EXPECT_GT(probes, 0);
  EXPECT_GT(dev.commands_issued(dram::Command::kRef), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, DeviceGoldenModel,
    ::testing::Combine(::testing::Values(1ull, 42ull, 0xDEADBEEFull, 777ull),
                       ::testing::Values(1u, 2u)));

// --------------------------------------------------------------------------
// Bender programs against the same golden model
// --------------------------------------------------------------------------

TEST(BenderGoldenModel, FlatRowWritesMatchDirectIssue) {
  dram::Geometry geo;
  dram::DramDevice dev(geo, dram::ddr4_1333(), strong_variation());
  bender::Interpreter interp(dev);

  // Program, unrolled over rows [50, 58): ACT row; WR col 3; PRE.
  bender::Program p;
  std::array<std::uint8_t, 64> data{};
  data.fill(0x6B);
  const std::uint32_t idx = p.add_wdata(data);
  for (std::uint32_t row = 50; row < 58; ++row) {
    p.ddr(dram::Command::kAct, {4, row, 0});
    p.ddr(dram::Command::kWrite, {4, row, 3}, /*capture=*/false, idx);
    p.ddr(dram::Command::kPre, {4, 0, 0});
  }
  const auto result = interp.execute(p, 0_ns);
  EXPECT_EQ(result.violations, dram::kNone);

  for (std::uint32_t row = 50; row < 58; ++row) {
    std::array<std::uint8_t, 64> out{};
    dev.backdoor_read({4, row, 3}, out);
    EXPECT_EQ(std::memcmp(out.data(), data.data(), 64), 0) << "row " << row;
  }
}

// --------------------------------------------------------------------------
// Address-mapper invertibility across geometries
// --------------------------------------------------------------------------

/// Geometries the mapper property sweep covers: the paper default, a wide
/// multi-channel/multi-rank system, a non-default bank count, and a
/// non-power-of-two channel count (div/mod layouts must not assume powers
/// of two).
std::vector<dram::Geometry> mapper_geometries() {
  dram::Geometry def;
  dram::Geometry wide;
  wide.channels = 4;
  wide.ranks_per_channel = 2;
  dram::Geometry small_banks;
  small_banks.channels = 2;
  small_banks.ranks_per_channel = 2;
  small_banks.bank_groups = 2;
  small_banks.banks_per_group = 4;
  small_banks.rows_per_bank = 4096;
  dram::Geometry odd;
  odd.channels = 3;
  odd.ranks_per_channel = 2;
  return {def, wide, small_banks, odd};
}

class MapperInvertibility
    : public ::testing::TestWithParam<smc::MappingKind> {};

TEST_P(MapperInvertibility, RoundTripsRandomAddresses) {
  for (const dram::Geometry& geo : mapper_geometries()) {
    const auto mapper = smc::make_mapper(GetParam(), geo);
    Xoshiro256ss rng(0x9A99E5 ^ static_cast<std::uint64_t>(GetParam()));
    const std::uint64_t lines = geo.capacity_bytes() / geo.col_bytes;
    for (int i = 0; i < 2000; ++i) {
      const std::uint64_t paddr = rng.next_below(lines) * geo.col_bytes;
      const dram::DramAddress a = mapper->to_dram(paddr);
      EXPECT_TRUE(geo.contains(a))
          << mapper->name() << " paddr " << paddr << " -> channel " << a.channel
          << " rank " << a.rank << " bank " << a.bank;
      EXPECT_EQ(mapper->to_physical(a), paddr) << mapper->name();
    }
    // And the inverse direction: random coordinates survive the round trip,
    // which (with the forward check) pins the mapping as a bijection.
    for (int i = 0; i < 500; ++i) {
      dram::DramAddress a;
      a.channel = static_cast<std::uint32_t>(rng.next_below(geo.channels));
      a.rank = static_cast<std::uint32_t>(rng.next_below(geo.ranks_per_channel));
      a.bank = static_cast<std::uint32_t>(rng.next_below(geo.num_banks()));
      a.row = static_cast<std::uint32_t>(rng.next_below(geo.rows_per_bank));
      a.col = static_cast<std::uint32_t>(rng.next_below(geo.cols_per_row()));
      const std::uint64_t paddr = mapper->to_physical(a);
      EXPECT_LT(paddr, geo.capacity_bytes()) << mapper->name();
      EXPECT_EQ(mapper->to_dram(paddr), a) << mapper->name();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMappers, MapperInvertibility,
                         ::testing::Values(smc::MappingKind::kLinear,
                                           smc::MappingKind::kLineInterleaved,
                                           smc::MappingKind::kChannelInterleaved));

// --------------------------------------------------------------------------
// Cross-mode and cross-run invariants of the full system
// --------------------------------------------------------------------------

struct ModeCase {
  timescale::SystemMode mode;
  std::uint64_t seed;
};

class SystemInvariants : public ::testing::TestWithParam<ModeCase> {};

TEST_P(SystemInvariants, DeterministicAndMonotonic) {
  const auto [mode, seed] = GetParam();
  auto make_cfg = [mode] {
    sys::SystemConfig cfg;
    switch (mode) {
      case timescale::SystemMode::kTimeScaling:
        cfg = sys::jetson_nano_time_scaling();
        break;
      case timescale::SystemMode::kNoTimeScaling:
        cfg = sys::pidram_no_time_scaling();
        break;
      case timescale::SystemMode::kReference:
        cfg = sys::validation_reference();
        break;
    }
    cfg.variation = strong_variation();
    return cfg;
  };

  auto make_trace = [seed] {
    Xoshiro256ss rng(seed);
    workloads::TraceBuilder b;
    for (int i = 0; i < 800; ++i) {
      const std::uint64_t addr = rng.next_below(1 << 22) & ~63ull;
      switch (rng.next_below(4)) {
        case 0: b.load(addr); break;
        case 1: b.load_dependent(addr); break;
        case 2: b.store(addr); break;
        default: b.compute(static_cast<std::uint32_t>(rng.next_below(50))); b.load(addr);
      }
    }
    return cpu::VectorTrace(b.take());
  };

  sys::EasyDramSystem s1(make_cfg());
  auto t1 = make_trace();
  const auto r1 = s1.run(t1);

  sys::EasyDramSystem s2(make_cfg());
  auto t2 = make_trace();
  const auto r2 = s2.run(t2);

  // Determinism: identical cycle counts, instruction counts, wall clocks.
  EXPECT_EQ(r1.cycles, r2.cycles);
  EXPECT_EQ(r1.instructions, r2.instructions);
  EXPECT_EQ(s1.wall().count, s2.wall().count);

  // Sanity invariants: work happened, time moved forward, counters hang
  // together.
  EXPECT_GT(r1.cycles, 0);
  EXPECT_GT(s1.wall().count, 0);
  EXPECT_GE(s1.keeper().counters().mc(), 0);
  EXPECT_FALSE(s1.keeper().counters().critical());
  EXPECT_EQ(s1.smc_stats().requests_received, s2.smc_stats().requests_received);
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndSeeds, SystemInvariants,
    ::testing::Values(ModeCase{timescale::SystemMode::kTimeScaling, 11},
                      ModeCase{timescale::SystemMode::kTimeScaling, 97},
                      ModeCase{timescale::SystemMode::kNoTimeScaling, 11},
                      ModeCase{timescale::SystemMode::kNoTimeScaling, 97},
                      ModeCase{timescale::SystemMode::kReference, 11},
                      ModeCase{timescale::SystemMode::kReference, 97}));

TEST(SystemInvariants, ReleaseTagsNeverPrecedeIssueTags) {
  sys::SystemConfig cfg = sys::jetson_nano_time_scaling();
  cfg.variation = strong_variation();
  sys::EasyDramSystem sysm(cfg);
  Xoshiro256ss rng(5);
  std::int64_t now = 0;
  for (int i = 0; i < 200; ++i) {
    now += static_cast<std::int64_t>(rng.next_below(300));
    const std::uint64_t addr = rng.next_below(1 << 20) & ~63ull;
    const auto id = sysm.submit_read(addr, now);
    const cpu::Completion c = sysm.wait(id);
    EXPECT_GT(c.release_cycle, now);
    now = std::max(now, c.release_cycle);
  }
}

TEST(SystemInvariants, WallClockCoversDramBusyTime) {
  sys::SystemConfig cfg = sys::jetson_nano_time_scaling();
  cfg.variation = strong_variation();
  sys::EasyDramSystem sysm(cfg);
  workloads::TraceBuilder b;
  for (int i = 0; i < 300; ++i) {
    b.load_dependent(static_cast<std::uint64_t>(i) * 8192);
  }
  cpu::VectorTrace trace(b.take());
  sysm.run(trace);
  EXPECT_GE(sysm.wall(), sysm.smc_stats().dram_busy);
}

}  // namespace
}  // namespace easydram
