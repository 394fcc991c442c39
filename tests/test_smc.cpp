#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "smc/addr_map.hpp"
#include "smc/bloom.hpp"
#include "smc/controller.hpp"
#include "smc/easyapi.hpp"
#include "smc/request_table.hpp"
#include "smc/scheduler.hpp"

namespace easydram::smc {
namespace {

using namespace easydram::literals;
using timescale::SystemMode;

dram::VariationConfig strong_variation() {
  dram::VariationConfig v;
  v.min_trcd = Picoseconds{1000};
  v.max_trcd = Picoseconds{1001};
  v.rowclone_pair_success = 1.0;
  return v;
}

/// Standalone SMC harness: tile + device + mapper + keeper + api.
struct Harness {
  explicit Harness(SystemMode mode = SystemMode::kTimeScaling,
                   dram::VariationConfig var = strong_variation())
      : device(geo, dram::ddr4_1333(), var),
        tile(tile::TileConfig{}),
        mapper(geo),
        keeper(mode,
               timescale::DomainConfig{Frequency::megahertz(100),
                                       Frequency::gigahertz(1)},
               Frequency::megahertz(100), Cycles{24}),
        api(tile, device, mapper, keeper) {}

  void push_request(tile::Request r) {
    r.arrival_wall = keeper.wall();
    tile.incoming().push(std::move(r));
  }

  tile::Response run_until_response(Controller& c) {
    for (int i = 0; i < 10000; ++i) {
      c.step(api);
      if (!tile.outgoing().empty()) return tile.outgoing().pop();
    }
    ADD_FAILURE() << "no response produced";
    return {};
  }

  dram::Geometry geo;
  dram::DramDevice device;
  tile::EasyTile tile;
  LinearMapper mapper;
  timescale::TimeKeeper keeper;
  EasyApi api;
};

// --------------------------------------------------------------------------
// Address mappers
// --------------------------------------------------------------------------

template <typename MapperT>
class MapperRoundTrip : public ::testing::Test {};

using MapperTypes = ::testing::Types<LinearMapper, LineInterleavedMapper>;
TYPED_TEST_SUITE(MapperRoundTrip, MapperTypes);

TYPED_TEST(MapperRoundTrip, RoundTripsEveryRegion) {
  dram::Geometry geo;
  TypeParam mapper(geo);
  for (std::uint64_t paddr = 0; paddr < geo.capacity_bytes();
       paddr += 64 * 1237) {  // Prime stride to cover varied coordinates.
    const dram::DramAddress a = mapper.to_dram(paddr);
    EXPECT_TRUE(geo.contains(a));
    EXPECT_EQ(mapper.to_physical(a), paddr);
  }
}

TEST(MapperTest, LinearKeepsRowsContiguous) {
  dram::Geometry geo;
  LinearMapper m(geo);
  const dram::DramAddress first = m.to_dram(0);
  const dram::DramAddress last = m.to_dram(8192 - 64);
  EXPECT_EQ(first.row, last.row);
  EXPECT_EQ(first.bank, last.bank);
  const dram::DramAddress next = m.to_dram(8192);
  EXPECT_EQ(next.row, first.row + 1);
}

TEST(MapperTest, InterleavedStripesAcrossBanks) {
  dram::Geometry geo;
  LineInterleavedMapper m(geo);
  EXPECT_EQ(m.to_dram(0).bank, 0u);
  EXPECT_EQ(m.to_dram(64).bank, 1u);
  EXPECT_EQ(m.to_dram(64 * 15).bank, 15u);
  EXPECT_EQ(m.to_dram(64 * 16).bank, 0u);
}

/// Plain-division references of the four mappers' to_dram: each digit is
/// `%` of the running quotient, as the layouts are documented.
dram::DramAddress ref_linear(const dram::Geometry& g, std::uint64_t paddr) {
  std::uint64_t x = paddr / g.col_bytes;
  dram::DramAddress a;
  a.col = static_cast<std::uint32_t>(x % g.cols_per_row());
  x /= g.cols_per_row();
  a.row = static_cast<std::uint32_t>(x % g.rows_per_bank);
  x /= g.rows_per_bank;
  a.bank = static_cast<std::uint32_t>(x % g.num_banks());
  x /= g.num_banks();
  a.rank = static_cast<std::uint32_t>(x % g.ranks_per_channel);
  a.channel = static_cast<std::uint32_t>(x / g.ranks_per_channel);
  return a;
}
dram::DramAddress ref_line(const dram::Geometry& g, std::uint64_t paddr) {
  std::uint64_t x = paddr / g.col_bytes;
  dram::DramAddress a;
  a.bank = static_cast<std::uint32_t>(x % g.num_banks());
  x /= g.num_banks();
  a.rank = static_cast<std::uint32_t>(x % g.ranks_per_channel);
  x /= g.ranks_per_channel;
  a.col = static_cast<std::uint32_t>(x % g.cols_per_row());
  x /= g.cols_per_row();
  a.row = static_cast<std::uint32_t>(x % g.rows_per_bank);
  a.channel = static_cast<std::uint32_t>(x / g.rows_per_bank);
  return a;
}
dram::DramAddress ref_channel(const dram::Geometry& g, std::uint64_t paddr) {
  std::uint64_t x = paddr / g.col_bytes;
  dram::DramAddress a;
  a.channel = static_cast<std::uint32_t>(x % g.channels);
  x /= g.channels;
  a.bank = static_cast<std::uint32_t>(x % g.num_banks());
  x /= g.num_banks();
  a.rank = static_cast<std::uint32_t>(x % g.ranks_per_channel);
  x /= g.ranks_per_channel;
  a.col = static_cast<std::uint32_t>(x % g.cols_per_row());
  a.row = static_cast<std::uint32_t>(x / g.cols_per_row());
  return a;
}
dram::DramAddress ref_bankpart(const dram::Geometry& g, unsigned partitions,
                               std::uint64_t paddr) {
  const std::uint64_t part_bytes = g.capacity_bytes() / partitions;
  const std::uint64_t per_part = g.num_banks() / partitions;
  std::uint64_t x = (paddr % part_bytes) / g.col_bytes;
  dram::DramAddress a;
  a.bank = static_cast<std::uint32_t>(paddr / part_bytes * per_part + x % per_part);
  x /= per_part;
  a.rank = static_cast<std::uint32_t>(x % g.ranks_per_channel);
  x /= g.ranks_per_channel;
  a.col = static_cast<std::uint32_t>(x % g.cols_per_row());
  x /= g.cols_per_row();
  a.row = static_cast<std::uint32_t>(x % g.rows_per_bank);
  a.channel = static_cast<std::uint32_t>(x / g.rows_per_bank);
  return a;
}

TEST(MapperTest, ToDramMatchesPlainDivisionOnAnyGeometry) {
  dram::Geometry three_channels;
  three_channels.channels = 3;
  dram::Geometry odd;  // No power-of-two radix above the column.
  odd.channels = 3;
  odd.ranks_per_channel = 3;
  odd.bank_groups = 3;
  odd.rows_per_bank = 3000;
  odd.rows_per_subarray = 500;
  for (const dram::Geometry& geo : {dram::Geometry{}, three_channels, odd}) {
    const LinearMapper linear(geo);
    const LineInterleavedMapper line(geo);
    const ChannelInterleavedMapper channel(geo);
    const BankPartitionMapper bankpart(geo, 4);
    const std::uint64_t lines = geo.capacity_bytes() / 64;
    SplitMix64 rng(geo.channels * 131 + geo.rows_per_bank);
    std::vector<std::uint64_t> addrs = {0, 64, (lines - 1) * 64};
    for (int i = 0; i < 20000; ++i) addrs.push_back(rng.next() % lines * 64);
    for (const std::uint64_t paddr : addrs) {
      ASSERT_EQ(linear.to_dram(paddr), ref_linear(geo, paddr)) << paddr;
      ASSERT_EQ(line.to_dram(paddr), ref_line(geo, paddr)) << paddr;
      ASSERT_EQ(channel.to_dram(paddr), ref_channel(geo, paddr)) << paddr;
      ASSERT_EQ(bankpart.to_dram(paddr), ref_bankpart(geo, 4, paddr)) << paddr;
      ASSERT_EQ(bankpart.to_physical(bankpart.to_dram(paddr)), paddr);
    }
  }
}

TEST(MapperTest, MisalignedAddressRejected) {
  dram::Geometry geo;
  LinearMapper m(geo);
  EXPECT_THROW(m.to_dram(63), ContractViolation);
}

// --------------------------------------------------------------------------
// Request table and schedulers
// --------------------------------------------------------------------------

TableEntry entry_at(std::uint32_t bank, std::uint32_t row) {
  TableEntry e;
  e.dram_addr = dram::DramAddress{bank, row, 0};
  return e;
}

/// Open rows of a 1-rank, 16-bank channel in BankStateView's encoding:
/// bank 1 holds row 20 open when `bank1_row20`, every other bank is
/// precharged.
std::vector<std::uint64_t> open_rows(bool bank1_row20) {
  std::vector<std::uint64_t> rows(16, BankStateView::kClosed);
  if (bank1_row20) rows[1] = 20;
  return rows;
}

TEST(RequestTableTest, InsertRemoveAndCapacity) {
  RequestTable t(2);
  t.insert(entry_at(0, 1));
  t.insert(entry_at(0, 2));
  EXPECT_TRUE(t.full());
  EXPECT_THROW(t.insert(entry_at(0, 3)), ContractViolation);
  const TableEntry e = t.remove(0);
  EXPECT_EQ(e.dram_addr.row, 1u);
  EXPECT_EQ(t.size(), 1u);
}

TEST(RequestTableTest, ArrivalSequenceIsMonotonic) {
  RequestTable t(4);
  t.insert(entry_at(0, 1));
  t.insert(entry_at(0, 2));
  EXPECT_LT(t.at(0).arrival_seq, t.at(1).arrival_seq);
}

TEST(SchedulerTest, FcfsPicksOldest) {
  RequestTable t(4);
  t.insert(entry_at(3, 10));
  t.insert(entry_at(1, 20));
  const std::vector<std::uint64_t> rows = open_rows(false);
  const BankStateView banks(rows, 16);
  FcfsScheduler fcfs;
  std::size_t scanned = 0;
  EXPECT_EQ(fcfs.pick({t, banks}, scanned).value(), 0u);
  EXPECT_EQ(scanned, 2u);
}

TEST(SchedulerTest, FrfcfsPrefersRowHit) {
  RequestTable t(4);
  t.insert(entry_at(0, 10));  // oldest, row closed
  t.insert(entry_at(1, 20));  // row hit
  const std::vector<std::uint64_t> rows = open_rows(true);
  const BankStateView banks(rows, 16);
  FrfcfsScheduler frfcfs;
  std::size_t scanned = 0;
  EXPECT_EQ(frfcfs.pick({t, banks}, scanned).value(), 1u);
}

TEST(SchedulerTest, FrfcfsFallsBackToOldest) {
  RequestTable t(4);
  t.insert(entry_at(0, 10));
  t.insert(entry_at(1, 20));
  const std::vector<std::uint64_t> rows = open_rows(false);
  const BankStateView banks(rows, 16);
  FrfcfsScheduler frfcfs;
  std::size_t scanned = 0;
  EXPECT_EQ(frfcfs.pick({t, banks}, scanned).value(), 0u);
}

TEST(SchedulerTest, BatchSchedulerBoundsQueueingDelay) {
  // One old row-miss request plus a stream of younger row hits: FR-FCFS
  // starves the old request for the whole table; PAR-BS serves it once the
  // current batch (which it belongs to) is scheduled.
  RequestTable t(16);
  t.insert(entry_at(0, 99));                       // Old row miss (seq 0).
  for (int i = 0; i < 10; ++i) t.insert(entry_at(1, 20));  // Row hits.
  const std::vector<std::uint64_t> rows = open_rows(true);
  const BankStateView banks(rows, 16);
  std::size_t scanned = 0;

  FrfcfsScheduler frfcfs;
  EXPECT_NE(frfcfs.pick({t, banks}, scanned).value(), 0u);  // Hit first.

  BatchScheduler parbs(4);  // Batch = requests with seq < 4.
  // Within the first batch, row hits (seq 1..3) still win...
  const auto first = parbs.pick({t, banks}, scanned).value();
  EXPECT_NE(first, 0u);
  EXPECT_LT(t.at(first).arrival_seq, 4u);
  // ...but the old request is served before any seq >= 4 request: drain the
  // batch and verify membership.
  RequestTable t2(16);
  t2.insert(entry_at(0, 99));                      // seq 0
  for (int i = 0; i < 10; ++i) t2.insert(entry_at(1, 20));
  BatchScheduler parbs2(2);
  std::vector<std::uint64_t> served;
  for (int i = 0; i < 3; ++i) {
    const auto pick = parbs2.pick({t2, banks}, scanned).value();
    served.push_back(t2.at(pick).arrival_seq);
    t2.remove(pick);
  }
  // The first two picks come from batch {seq 0, seq 1}.
  EXPECT_LT(served[0], 2u);
  EXPECT_LT(served[1], 2u);
}

TEST(SchedulerTest, BlacklistSchedulerBreaksRowHitStreaks) {
  RequestTable t(16);
  t.insert(entry_at(0, 99));                       // Old row miss.
  for (int i = 0; i < 10; ++i) t.insert(entry_at(1, 20));  // Hit stream.
  const std::vector<std::uint64_t> rows = open_rows(true);
  const BankStateView banks(rows, 16);
  std::size_t scanned = 0;
  BlacklistScheduler bliss(3);
  int picks_before_miss = 0;
  for (int i = 0; i < 10; ++i) {
    const auto pick = bliss.pick({t, banks}, scanned).value();
    if (t.at(pick).dram_addr.bank == 0) break;  // The old miss got served.
    t.remove(pick);
    ++picks_before_miss;
  }
  EXPECT_LE(picks_before_miss, 3);  // Streak limit enforced.
}

TEST(SchedulerTest, EmptyTableYieldsNothing) {
  RequestTable t(4);
  const std::vector<std::uint64_t> rows = open_rows(false);
  const BankStateView banks(rows, 16);
  FrfcfsScheduler frfcfs;
  FcfsScheduler fcfs;
  BatchScheduler parbs;
  BlacklistScheduler bliss;
  std::size_t scanned = 0;
  EXPECT_FALSE(frfcfs.pick({t, banks}, scanned).has_value());
  EXPECT_FALSE(fcfs.pick({t, banks}, scanned).has_value());
  EXPECT_FALSE(parbs.pick({t, banks}, scanned).has_value());
  EXPECT_FALSE(bliss.pick({t, banks}, scanned).has_value());
}

// --------------------------------------------------------------------------
// Bloom filter
// --------------------------------------------------------------------------

TEST(BloomTest, NoFalseNegatives) {
  BloomFilter f(4096, 4);
  for (std::uint64_t k = 0; k < 200; ++k) f.insert(k * 977);
  for (std::uint64_t k = 0; k < 200; ++k) EXPECT_TRUE(f.maybe_contains(k * 977));
}

TEST(BloomTest, FalsePositiveRateIsModest) {
  BloomFilter f(16384, 4);
  for (std::uint64_t k = 0; k < 500; ++k) f.insert(k);
  int fp = 0;
  const int probes = 10000;
  for (int k = 0; k < probes; ++k) {
    if (f.maybe_contains(1'000'000 + static_cast<std::uint64_t>(k))) ++fp;
  }
  EXPECT_LT(static_cast<double>(fp) / probes, 0.05);
}

TEST(BloomTest, EmptyFilterContainsNothing) {
  BloomFilter f(1024, 3);
  EXPECT_FALSE(f.maybe_contains(42));
}

TEST(BloomTest, MergeUnionsKeysWithoutFalseNegatives) {
  BloomFilter a(4096, 4);
  BloomFilter b(4096, 4);
  for (std::uint64_t k = 0; k < 100; ++k) (k % 2 == 0 ? a : b).insert(k);
  a.merge(b);
  for (std::uint64_t k = 0; k < 100; ++k) EXPECT_TRUE(a.maybe_contains(k));
  EXPECT_EQ(a.inserted_keys(), 100u);
  BloomFilter wrong_shape(1024, 4);
  EXPECT_THROW(a.merge(wrong_shape), ContractViolation);
}

// --------------------------------------------------------------------------
// EasyAPI
// --------------------------------------------------------------------------

TEST(EasyApiTest, ReadSequenceLeavesRowOpen) {
  Harness h;
  h.api.read_sequence(dram::DramAddress{2, 5, 0});
  h.api.flush_commands();
  EXPECT_EQ(h.device.open_row(2).value(), 5u);
  EXPECT_FALSE(h.api.rdback_empty());
}

TEST(EasyApiTest, ReadSequenceRowHitSkipsActivate) {
  Harness h;
  h.api.read_sequence(dram::DramAddress{2, 5, 0});
  h.api.flush_commands();
  const std::int64_t acts = h.device.commands_issued(dram::Command::kAct);
  h.api.read_sequence(dram::DramAddress{2, 5, 1});
  h.api.flush_commands();
  EXPECT_EQ(h.device.commands_issued(dram::Command::kAct), acts);
}

TEST(EasyApiTest, ReadSequenceConflictPrecharges) {
  Harness h;
  h.api.read_sequence(dram::DramAddress{2, 5, 0});
  h.api.flush_commands();
  h.api.read_sequence(dram::DramAddress{2, 9, 0});
  h.api.flush_commands();
  EXPECT_EQ(h.device.open_row(2).value(), 9u);
  EXPECT_EQ(h.device.commands_issued(dram::Command::kPre), 1);
}

TEST(EasyApiTest, PendingRowTrackedWithinBatch) {
  Harness h;
  // Two reads to different rows of the same bank in ONE batch: the second
  // must precharge even though the device still shows the bank closed.
  h.api.read_sequence(dram::DramAddress{2, 5, 0});
  h.api.read_sequence(dram::DramAddress{2, 9, 0});
  const auto r = h.api.flush_commands();
  EXPECT_EQ(r.violations, dram::kNone);
  EXPECT_EQ(h.device.commands_issued(dram::Command::kPre), 1);
  EXPECT_EQ(h.device.commands_issued(dram::Command::kAct), 2);
}

TEST(EasyApiTest, WriteSequenceStoresData) {
  Harness h;
  std::array<std::uint8_t, 64> data{};
  data.fill(0xAB);
  h.api.write_sequence(dram::DramAddress{1, 3, 7}, data);
  h.api.flush_commands();
  std::array<std::uint8_t, 64> out{};
  h.device.backdoor_read({1, 3, 7}, out);
  EXPECT_EQ(std::memcmp(out.data(), data.data(), 64), 0);
}

TEST(EasyApiTest, ReducedReadForcesFreshActivation) {
  Harness h;
  h.api.read_sequence(dram::DramAddress{1, 3, 0});
  h.api.flush_commands();
  h.api.read_sequence_reduced(dram::DramAddress{1, 3, 0}, 9_ns);
  const auto r = h.api.flush_commands();
  // Row was already open, so this degenerates to a plain (hit) read.
  EXPECT_EQ(r.violations & dram::kTrcd, 0u);

  h.api.close_row(1);
  h.api.flush_commands();
  h.api.read_sequence_reduced(dram::DramAddress{1, 3, 0}, 9_ns);
  const auto r2 = h.api.flush_commands();
  EXPECT_TRUE(r2.violations & dram::kTrcd);
}

TEST(EasyApiTest, RowCloneHelperTriggersDeviceRowClone) {
  Harness h;
  std::array<std::uint8_t, 64> marker{};
  marker.fill(0x5A);
  h.device.backdoor_write({0, 40, 3}, marker);
  h.api.rowclone(0, 40, 41);
  const auto r = h.api.flush_commands();
  EXPECT_EQ(r.rowclone_attempts, 1);
  EXPECT_EQ(r.rowclone_successes, 1);
  std::array<std::uint8_t, 64> out{};
  h.device.backdoor_read({0, 41, 3}, out);
  EXPECT_EQ(std::memcmp(out.data(), marker.data(), 64), 0);
}

TEST(EasyApiTest, BatchAccountingAdvancesMc) {
  Harness h;
  h.api.read_sequence(dram::DramAddress{0, 1, 0});
  const auto r = h.api.flush_commands();
  // The emulated MC point covers the batch duration at 1 GHz plus the
  // SMC's own (cycle-counted) batch-building work.
  const std::int64_t dram_cycles = Frequency::gigahertz(1).ps_to_cycles_ceil(r.elapsed);
  EXPECT_GE(h.keeper.counters().mc(), dram_cycles);
  EXPECT_LE(h.keeper.counters().mc(), dram_cycles + 64);
}

TEST(EasyApiTest, SetupModeLeavesTimelinesAlone) {
  Harness h;
  h.api.set_setup_mode(true);
  h.api.read_sequence(dram::DramAddress{0, 1, 0});
  h.api.flush_commands();
  EXPECT_EQ(h.keeper.counters().mc(), 0);
  EXPECT_EQ(h.keeper.wall().count, 0);
  // Device state still changed: the batch really executed.
  EXPECT_TRUE(h.device.open_row(0).has_value());
}

TEST(EasyApiTest, MeterChargesEveryCall) {
  Harness h;
  const Cycles before = h.tile.meter().total_cycles();
  h.api.get_addr_mapping(0);
  h.api.read_sequence(dram::DramAddress{0, 1, 0});
  h.api.flush_commands();
  EXPECT_GT(h.tile.meter().total_cycles(), before);
}

TEST(EasyApiTest, RefreshCatchUpKeepsDeviceFresh) {
  Harness h;
  // Pretend the emulated system ran 100 us: ~12 refreshes are due.
  h.keeper.counters().advance_mc(100'000);  // 100 us at 1 GHz.
  h.api.refresh_if_due();
  EXPECT_EQ(h.device.refreshes_issued(),
            h.device.refreshes_due(h.keeper.emulated_now()));
}

// --------------------------------------------------------------------------
// Controllers
// --------------------------------------------------------------------------

tile::Request read_request(std::uint64_t id, std::uint64_t paddr,
                           std::int64_t tag = 0) {
  tile::Request r;
  r.id = id;
  r.kind = tile::RequestKind::kRead;
  r.paddr = paddr;
  r.issue_proc_cycle = tag;
  return r;
}

TEST(ControllerTest, ServesReadEndToEnd) {
  Harness h;
  std::array<std::uint8_t, 64> data{};
  data.fill(0x3C);
  h.device.backdoor_write(h.mapper.to_dram(4096), data);

  MemoryController c(ControllerOptions{});
  h.push_request(read_request(1, 4096));
  const tile::Response resp = h.run_until_response(c);
  EXPECT_EQ(resp.id, 1u);
  EXPECT_TRUE(resp.has_data);
  EXPECT_EQ(std::memcmp(resp.data.data(), data.data(), 64), 0);
  EXPECT_GT(resp.release_proc_cycle, 0);
}

TEST(ControllerTest, ReleaseTagCoversSchedulingAndDram) {
  Harness h;
  MemoryController c(ControllerOptions{});
  h.push_request(read_request(1, 0, /*tag=*/1000));
  const tile::Response resp = h.run_until_response(c);
  // Service starts at the request tag; adds scheduling latency (24) plus
  // the DRAM batch at 1 GHz (ACT+RD+data, tens of cycles).
  EXPECT_GE(resp.release_proc_cycle, 1000 + 24);
  EXPECT_LT(resp.release_proc_cycle, 1000 + 24 + 200);
}

TEST(ControllerTest, WritePersistsToDram) {
  Harness h;
  MemoryController c(ControllerOptions{});
  tile::Request w;
  w.id = 9;
  w.kind = tile::RequestKind::kWrite;
  w.paddr = 8192;
  w.wdata.fill(0x77);
  h.push_request(std::move(w));
  const tile::Response resp = h.run_until_response(c);
  EXPECT_EQ(resp.id, 9u);
  std::array<std::uint8_t, 64> out{};
  h.device.backdoor_read(h.mapper.to_dram(8192), out);
  EXPECT_EQ(out[0], 0x77);
}

TEST(ControllerTest, CriticalModeEntersAndExits) {
  Harness h;
  MemoryController c(ControllerOptions{});
  h.push_request(read_request(1, 0));
  h.run_until_response(c);
  // After the table empties, a further step exits critical mode.
  c.step(h.api);
  EXPECT_FALSE(h.keeper.counters().critical());
}

TEST(ControllerTest, RowCloneUnverifiedPairFallsBack) {
  Harness h;
  RowCloneMap map;  // Empty: nothing verified.
  ControllerOptions opt;
  opt.clonable = &map;
  MemoryController c(std::move(opt));

  tile::Request r;
  r.id = 5;
  r.kind = tile::RequestKind::kRowClone;
  r.paddr = 0;
  r.paddr2 = 8192;
  h.push_request(std::move(r));
  const tile::Response resp = h.run_until_response(c);
  EXPECT_FALSE(resp.ok);
}

TEST(ControllerTest, RowCloneVerifiedPairCopies) {
  Harness h;
  RowCloneMap map;
  const dram::DramAddress src = h.mapper.to_dram(0);
  const dram::DramAddress dst = h.mapper.to_dram(8192);
  map.record(src.bank, src.row, dst.row, true);
  ControllerOptions opt;
  opt.clonable = &map;
  MemoryController c(std::move(opt));

  std::array<std::uint8_t, 64> marker{};
  marker.fill(0xE1);
  h.device.backdoor_write({src.bank, src.row, 5}, marker);

  tile::Request r;
  r.id = 6;
  r.kind = tile::RequestKind::kRowClone;
  r.paddr = 0;
  r.paddr2 = 8192;
  h.push_request(std::move(r));
  const tile::Response resp = h.run_until_response(c);
  EXPECT_TRUE(resp.ok);
  std::array<std::uint8_t, 64> out{};
  h.device.backdoor_read({dst.bank, dst.row, 5}, out);
  EXPECT_EQ(std::memcmp(out.data(), marker.data(), 64), 0);
}

TEST(ControllerTest, ProfilingRequestReportsReliability) {
  dram::VariationConfig weak;
  weak.min_trcd = 9_ns;
  weak.max_trcd = Picoseconds{9001};
  weak.line_jitter = Picoseconds{0};
  Harness h(SystemMode::kTimeScaling, weak);
  MemoryController c(ControllerOptions{});

  tile::Request ok_req;
  ok_req.id = 1;
  ok_req.kind = tile::RequestKind::kProfileTrcd;
  ok_req.paddr = 0;
  ok_req.profile_trcd = Picoseconds{9001};
  h.push_request(std::move(ok_req));
  EXPECT_TRUE(h.run_until_response(c).ok);

  tile::Request bad_req;
  bad_req.id = 2;
  bad_req.kind = tile::RequestKind::kProfileTrcd;
  bad_req.paddr = 0;
  bad_req.profile_trcd = 5_ns;
  h.push_request(std::move(bad_req));
  EXPECT_FALSE(h.run_until_response(c).ok);
}

TEST(ControllerTest, BloomDirectedTrcdReduction) {
  Harness h;
  BloomFilter weak(4096, 4);
  const dram::DramAddress weak_addr = h.mapper.to_dram(0);
  weak.insert((static_cast<std::uint64_t>(weak_addr.bank) << 32) | weak_addr.row);
  ControllerOptions opt;
  opt.weak_rows = &weak;
  opt.reduced_trcd = 9_ns;
  MemoryController c(std::move(opt));

  // Weak row: nominal access, no tRCD violation.
  h.push_request(read_request(1, 0));
  h.run_until_response(c);
  EXPECT_EQ(h.api.stats().violations_seen & dram::kTrcd, 0u);

  // Strong row (bank 1): reduced access violates nominal tRCD on purpose.
  h.push_request(read_request(2, 8192ull * 32768));  // bank 1 row 0
  h.run_until_response(c);
  EXPECT_TRUE(h.api.stats().violations_seen & dram::kTrcd);
}

TEST(ControllerTest, FootnoteTwoVisibilityDelaysFutureRequests) {
  Harness h;
  MemoryController c(ControllerOptions{});
  h.push_request(read_request(1, 0, /*tag=*/100));
  // A request tagged far in the future becomes visible only after the MC
  // emulation point reaches it.
  h.push_request(read_request(2, 64, /*tag=*/1'000'000));
  c.step(h.api);  // Serves request 1; request 2 not yet visible.
  EXPECT_EQ(h.tile.outgoing().size(), 1u);
  EXPECT_EQ(h.tile.incoming().size(), 1u);
}

TEST(SimpleReadControllerTest, ListingOneFlow) {
  Harness h;
  std::array<std::uint8_t, 64> data{};
  data.fill(0x42);
  h.device.backdoor_write(h.mapper.to_dram(128), data);
  SimpleReadController c;
  h.push_request(read_request(1, 128));
  const tile::Response resp = h.run_until_response(c);
  EXPECT_EQ(std::memcmp(resp.data.data(), data.data(), 64), 0);
  EXPECT_FALSE(h.keeper.counters().critical());
}

}  // namespace
}  // namespace easydram::smc
