// Multi-tenant QoS: stream identity end-to-end, the stream-aware scheduler
// family (PAR-BS / BLISS / ATLAS / TCM), static bank partitioning, and the
// mixed-tenant trace builder. Companion of docs/ARCHITECTURE.md's "QoS &
// multi-tenant traffic" chapter.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/contracts.hpp"
#include "smc/addr_map.hpp"
#include "smc/request_table.hpp"
#include "smc/scheduler.hpp"
#include "sys/system.hpp"
#include "workloads/mixed.hpp"

namespace easydram {
namespace {

using smc::BankStateView;
using smc::BlacklistScheduler;
using smc::PickContext;
using smc::RequestTable;
using smc::StreamTable;
using smc::TableEntry;

TableEntry entry(std::uint32_t stream, std::uint32_t bank, std::uint32_t row) {
  TableEntry e;
  e.request.stream_id = stream;
  e.dram_addr = dram::DramAddress{bank, row, 0};
  return e;
}

/// Open rows in BankStateView's encoding for `ranks` ranks of
/// `banks_per_rank` banks: exactly `row` open in `bank` of `rank`, every
/// other bank precharged.
std::vector<std::uint64_t> open_rows(std::uint32_t bank, std::uint32_t row,
                                     std::uint32_t rank = 0,
                                     std::uint32_t ranks = 1,
                                     std::uint32_t banks_per_rank = 16) {
  std::vector<std::uint64_t> rows(
      static_cast<std::size_t>(ranks) * banks_per_rank,
      BankStateView::kClosed);
  rows[static_cast<std::size_t>(rank) * banks_per_rank + bank] = row;
  return rows;
}

// --------------------------------------------------------------------------
// StreamTable
// --------------------------------------------------------------------------

TEST(StreamTableTest, GrowsOnDemandAndAccumulates) {
  StreamTable st;
  EXPECT_EQ(st.size(), 0u);
  EXPECT_EQ(st.arrivals(7), 0u);  // Unknown streams read as zero.
  st.note_arrival(2);
  st.note_service(2);
  st.note_service(2, 3);
  EXPECT_EQ(st.size(), 3u);
  EXPECT_EQ(st.arrivals(2), 1u);
  EXPECT_EQ(st.served(2), 4u);
  EXPECT_EQ(st.attained_service(2), 4u);
  EXPECT_EQ(st.served(0), 0u);
  st.clear();
  EXPECT_EQ(st.size(), 0u);
}

// --------------------------------------------------------------------------
// PAR-BS: batch boundaries are stream-blind, so no stream can starve
// another past one batch.
// --------------------------------------------------------------------------

TEST(QosSchedulerTest, ParbsServesStarvedStreamWithinItsBatch) {
  RequestTable t(16);
  t.insert(entry(0, 0, 99));                                // Miss, seq 0.
  for (int i = 0; i < 10; ++i) t.insert(entry(1, 1, 20));   // Hit train.
  const std::vector<std::uint64_t> rows = open_rows(1, 20);
  const BankStateView banks(rows, 16);
  smc::BatchScheduler parbs(4);
  std::size_t scanned = 0;

  // Drain until stream 0's request is served; everything served before it
  // must belong to its own batch (arrival_seq < 4) — the hog's younger
  // row hits cannot jump the boundary.
  std::vector<std::uint64_t> served_before;
  for (int i = 0; i < 11; ++i) {
    const auto pick = parbs.pick({t, banks}, scanned).value();
    const TableEntry& e = t.at(pick);
    if (e.request.stream_id == 0) break;
    served_before.push_back(e.arrival_seq);
    t.remove(pick);
  }
  ASSERT_LT(served_before.size(), 10u);  // It was served eventually.
  for (const std::uint64_t seq : served_before) EXPECT_LT(seq, 4u);
}

// --------------------------------------------------------------------------
// BLISS: per-stream blacklisting with >= 2 streams outstanding.
// --------------------------------------------------------------------------

TEST(QosSchedulerTest, BlissBlacklistsHogStreamAfterStreak) {
  RequestTable t(16);
  t.insert(entry(0, 0, 99));                                // Victim miss.
  for (int i = 0; i < 10; ++i) t.insert(entry(1, 1, 20));   // Hog hits.
  const std::vector<std::uint64_t> rows = open_rows(1, 20);
  const BankStateView banks(rows, 16);
  BlacklistScheduler bliss(3);
  std::size_t scanned = 0;

  int hog_picks_before_victim = 0;
  for (int i = 0; i < 11; ++i) {
    const auto pick = bliss.pick({t, banks}, scanned).value();
    if (t.at(pick).request.stream_id == 0) break;
    t.remove(pick);
    ++hog_picks_before_victim;
  }
  // The hog's streak is capped at the limit, at which point it is
  // blacklisted and the victim's older miss outranks its row hits.
  EXPECT_LE(hog_picks_before_victim, 3);
  EXPECT_TRUE(bliss.blacklisted(1));
  EXPECT_FALSE(bliss.blacklisted(0));
}

TEST(QosSchedulerTest, BlissBlacklistClearsAfterInterval) {
  const std::vector<std::uint64_t> rows = open_rows(1, 20);
  const BankStateView banks(rows, 16);
  BlacklistScheduler bliss(/*streak_limit=*/2, /*clear_interval=*/4);
  std::size_t scanned = 0;

  // Keep both streams outstanding forever: each pick is served and an
  // identical request re-queued.
  RequestTable t(16);
  for (int i = 0; i < 4; ++i) {
    t.insert(entry(1, 1, 20));  // Hog: row hits.
    t.insert(entry(0, 0, 7));   // Victim: misses.
  }
  auto step = [&] {
    const auto pick = bliss.pick({t, banks}, scanned).value();
    const TableEntry e = t.remove(pick);
    t.insert(entry(e.request.stream_id, e.dram_addr.bank, e.dram_addr.row));
  };
  step();
  step();
  EXPECT_TRUE(bliss.blacklisted(1));  // Streak limit reached.
  step();
  step();
  EXPECT_TRUE(bliss.blacklisted(0));  // The former victim hogged in turn.
  step();  // 5th pick crosses the clearing interval: everyone forgiven.
  EXPECT_FALSE(bliss.blacklisted(0));
  EXPECT_FALSE(bliss.blacklisted(1));
}

// --------------------------------------------------------------------------
// BLISS single-source mode: the row-streak bound is row-key-agnostic. A
// row whose packed key is the all-ones pattern (the old implementation's
// "no previous pick" sentinel) must behave exactly like any other row —
// regression test for the sentinel aliasing fix.
// --------------------------------------------------------------------------

std::vector<std::uint64_t> bliss_single_source_pick_sequence(
    std::uint32_t bank, std::uint32_t row, std::uint32_t channel,
    std::uint32_t rank) {
  RequestTable t(16);
  TableEntry miss = entry(0, bank + 1, 5);  // Closed bank: always a miss.
  t.insert(miss);
  for (int i = 0; i < 10; ++i) {
    TableEntry hit = entry(0, bank, row);
    hit.dram_addr.channel = channel;
    hit.dram_addr.rank = rank;
    t.insert(hit);
  }
  // Exactly `row` open in `bank` of `rank`; the miss's bank is one past
  // it, so the view must be sized to cover both.
  const std::vector<std::uint64_t> rows =
      open_rows(bank, row, rank, rank + 1, bank + 2);
  const BankStateView banks(rows, bank + 2);
  BlacklistScheduler bliss(2);
  std::size_t scanned = 0;
  std::vector<std::uint64_t> seqs;
  for (int i = 0; i < 8; ++i) {
    const auto pick = bliss.pick({t, banks}, scanned).value();
    seqs.push_back(t.at(pick).arrival_seq);
    t.remove(pick);
  }
  return seqs;
}

TEST(QosSchedulerTest, BlissStreakBoundIsRowKeyAgnostic) {
  // dram::row_key packs channel(10b) | rank(6b) | bank(16b) | row(32b);
  // these coordinates produce the all-ones key, the legacy sentinel value.
  const auto sentinel_key = bliss_single_source_pick_sequence(
      0xFFFFu, 0xFFFFFFFFu, 0x3FFu, 0x3Fu);
  const auto normal_key = bliss_single_source_pick_sequence(1, 20, 0, 0);
  EXPECT_EQ(sentinel_key, normal_key);
}

// --------------------------------------------------------------------------
// ATLAS: least attained service outranks row hits.
// --------------------------------------------------------------------------

TEST(QosSchedulerTest, AtlasRankInvertsAfterServiceImbalance) {
  RequestTable t(8);
  t.insert(entry(0, 1, 20));  // Older, and a row hit: FR-FCFS's choice.
  t.insert(entry(1, 0, 7));   // Younger row miss from the light stream.
  const std::vector<std::uint64_t> rows = open_rows(1, 20);
  const BankStateView banks(rows, 16);
  smc::AtlasScheduler atlas;
  std::size_t scanned = 0;

  // Without stream metadata ATLAS degrades to plain FR-FCFS.
  EXPECT_EQ(t.at(atlas.pick({t, banks}, scanned).value()).request.stream_id,
            0u);

  // Stream 0 has attained far more service: the ranking inverts and the
  // light stream's miss beats the heavy stream's row hit.
  StreamTable st;
  st.note_service(0, 100);
  st.note_service(1, 1);
  EXPECT_EQ(
      t.at(atlas.pick({t, banks, &st}, scanned).value()).request.stream_id,
      1u);
}

// --------------------------------------------------------------------------
// TCM: bandwidth-heavy streams are declassified at the window boundary.
// --------------------------------------------------------------------------

TEST(QosSchedulerTest, TcmDeprioritizesBandwidthClusterAfterWindow) {
  smc::TcmScheduler tcm(/*window_size=*/8);
  std::size_t scanned = 0;

  // Window 1: stream 1 takes 7 of 8 picks, stream 0 one — above vs below
  // the fair share of 4.
  const std::vector<std::uint64_t> rows = open_rows(1, 20);
  const BankStateView banks(rows, 16);
  for (int i = 0; i < 7; ++i) {
    RequestTable t(4);
    t.insert(entry(1, 1, 20));
    EXPECT_TRUE(tcm.pick({t, banks}, scanned).has_value());
  }
  {
    RequestTable t(4);
    t.insert(entry(0, 0, 7));
    EXPECT_TRUE(tcm.pick({t, banks}, scanned).has_value());
  }

  // Window 2 (rolled on the next pick): stream 1 is bandwidth-classified,
  // so stream 0's younger row miss outranks its older row hit.
  RequestTable t(8);
  t.insert(entry(1, 1, 20));
  t.insert(entry(0, 0, 7));
  const auto pick = tcm.pick({t, banks}, scanned).value();
  EXPECT_EQ(t.at(pick).request.stream_id, 0u);
  EXPECT_TRUE(tcm.bandwidth_cluster(1));
  EXPECT_FALSE(tcm.bandwidth_cluster(0));
}

// --------------------------------------------------------------------------
// Scheduler registry
// --------------------------------------------------------------------------

TEST(SchedulerRegistryTest, TokensRoundTripAndFactoriesMatch) {
  using smc::SchedulerKind;
  for (const SchedulerKind kind :
       {SchedulerKind::kAuto, SchedulerKind::kFcfs, SchedulerKind::kFrfcfs,
        SchedulerKind::kParbs, SchedulerKind::kBliss, SchedulerKind::kAtlas,
        SchedulerKind::kTcm}) {
    EXPECT_EQ(smc::parse_scheduler(smc::to_string(kind)), kind);
  }
  EXPECT_FALSE(smc::parse_scheduler("nope").has_value());
  EXPECT_EQ(smc::make_scheduler(SchedulerKind::kAuto)->name(), "FR-FCFS");
  EXPECT_EQ(smc::make_scheduler(SchedulerKind::kBliss)->name(), "BLISS");
  EXPECT_EQ(smc::make_scheduler(SchedulerKind::kTcm)->name(), "TCM");
  EXPECT_EQ(smc::make_scheduler(SchedulerKind::kAtlas)->name(), "ATLAS");
  EXPECT_EQ(smc::make_scheduler(SchedulerKind::kParbs)->name(), "PAR-BS");
  EXPECT_EQ(smc::make_scheduler(SchedulerKind::kFcfs)->name(), "FCFS");
}

// --------------------------------------------------------------------------
// Stream identity round trip: trace record -> request -> response ->
// completion -> per-stream latency sample.
// --------------------------------------------------------------------------

TEST(StreamRoundTripTest, CompletionEchoesStreamAndLatencyIsBucketed) {
  sys::SystemConfig cfg = sys::jetson_nano_time_scaling();
  cfg.track_stream_latency = true;
  sys::EasyDramSystem sysm(cfg);

  sysm.set_stream(2);
  const std::uint64_t id2 = sysm.submit_read(4096, 100);
  sysm.set_stream(5);
  const std::uint64_t id5 = sysm.submit_read(64 * 1024, 200);

  const cpu::Completion c2 = sysm.wait(id2);
  const cpu::Completion c5 = sysm.wait(id5);
  EXPECT_EQ(c2.stream, 2u);
  EXPECT_EQ(c5.stream, 5u);
  EXPECT_TRUE(c2.ok);

  const auto& samples = sysm.stream_latency_samples();
  ASSERT_GE(samples.size(), 6u);
  ASSERT_EQ(samples[2].count(), 1u);
  ASSERT_EQ(samples[5].count(), 1u);
  EXPECT_EQ(samples[0].count(), 0u);
  // Stream 2 holds exactly one sample. Modeled latency = release minus
  // issue cycle: positive, and consistent with the completion tag.
  const auto entries = samples[2].sorted_counts();
  ASSERT_EQ(entries.size(), 1u);
  const auto [latency, n] = entries.front();
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(latency, c2.release_cycle - 100);
  EXPECT_GT(latency, 0);
}

TEST(StreamRoundTripTest, LatencyTrackingIsOffByDefault) {
  sys::EasyDramSystem sysm(sys::jetson_nano_time_scaling());
  sysm.set_stream(3);
  sysm.wait(sysm.submit_read(4096, 0));
  EXPECT_TRUE(sysm.stream_latency_samples().empty());
}

// --------------------------------------------------------------------------
// Static bank partitioning (mapper layer)
// --------------------------------------------------------------------------

TEST(BankPartitionMapperTest, RoundTripsAndConfinesPartitions) {
  dram::Geometry geo;
  const unsigned partitions = 4;
  smc::BankPartitionMapper m(geo, partitions);
  const std::uint32_t banks_per_partition = geo.num_banks() / partitions;

  for (unsigned p = 0; p < partitions; ++p) {
    const std::uint64_t base = m.partition_base(p);
    for (std::uint64_t off = 0; off < 64 * 1024; off += 64 * 7) {
      const std::uint64_t paddr = base + off;
      const dram::DramAddress a = m.to_dram(paddr);
      // Every line of partition p lands in p's own bank slice...
      EXPECT_EQ(a.bank / banks_per_partition, p);
      // ...and the mapping inverts exactly.
      EXPECT_EQ(m.to_physical(a), paddr);
    }
  }
}

TEST(BankPartitionMapperTest, RegistryKnowsBankpart) {
  EXPECT_EQ(smc::parse_mapping("bankpart"), smc::MappingKind::kBankPartition);
  EXPECT_EQ(smc::to_string(smc::MappingKind::kBankPartition), "bankpart");
  dram::Geometry geo;
  const auto m =
      smc::make_mapper(smc::MappingKind::kBankPartition, geo, /*partitions=*/2);
  EXPECT_EQ(m->name(), "bankpart");
  EXPECT_EQ(m->to_physical(m->to_dram(64 * 1234)), 64u * 1234u);
}

// --------------------------------------------------------------------------
// Mixed-tenant trace builder
// --------------------------------------------------------------------------

std::vector<workloads::TenantSpec> three_tenants() {
  using workloads::TenantKind;
  using workloads::TenantSpec;
  TenantSpec chase;
  chase.kind = TenantKind::kPointerChase;
  chase.stream = 0;
  chase.base_addr = 0;
  chase.footprint_bytes = 16 * 1024;
  TenantSpec copy;
  copy.kind = TenantKind::kStreamCopy;
  copy.stream = 1;
  copy.base_addr = 1 * 1024 * 1024;
  copy.footprint_bytes = 16 * 1024;
  copy.passes = 2;
  TenantSpec hammer;
  hammer.kind = TenantKind::kHammer;
  hammer.stream = 2;
  hammer.base_addr = 2 * 1024 * 1024;
  return {chase, copy, hammer};
}

TEST(MixedTraceTest, TagsEveryRecordAndPreservesCounts) {
  dram::Geometry geo;
  smc::LinearMapper mapper(geo);
  const auto tenants = three_tenants();
  const workloads::MixedTrace mixed =
      workloads::make_mixed_trace(tenants, mapper);

  ASSERT_EQ(mixed.solo.size(), 3u);
  std::size_t total = 0;
  std::vector<std::size_t> per_stream(3, 0);
  for (std::size_t i = 0; i < mixed.solo.size(); ++i) {
    EXPECT_FALSE(mixed.solo[i].empty());
    for (const cpu::TraceRecord& rec : mixed.solo[i]) {
      EXPECT_EQ(rec.stream, tenants[i].stream);
    }
    total += mixed.solo[i].size();
  }
  ASSERT_EQ(mixed.interleaved.size(), total);
  for (const cpu::TraceRecord& rec : mixed.interleaved) {
    ASSERT_LT(rec.stream, 3u);
    ++per_stream[rec.stream];
  }
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(per_stream[i], mixed.solo[i].size());
  }
}

TEST(MixedTraceTest, NoTenantKindEmitsRowClonePairs) {
  // The record-by-record interleave relies on this: it would split a pair.
  dram::Geometry geo;
  smc::LinearMapper mapper(geo);
  const auto tenants = three_tenants();
  const auto mixed = workloads::make_mixed_trace(tenants, mapper);
  for (const cpu::TraceRecord& rec : mixed.interleaved) {
    ASSERT_NE(rec.op, cpu::Op::kRowClone);
    ASSERT_NE(rec.op, cpu::Op::kRowCloneDst);
  }
}

TEST(MixedTraceTest, InterleaveIsProportionalAndDeterministic) {
  dram::Geometry geo;
  smc::LinearMapper mapper(geo);
  const auto tenants = three_tenants();
  const auto a = workloads::make_mixed_trace(tenants, mapper);
  const auto b = workloads::make_mixed_trace(tenants, mapper);

  // Bit-identical rebuild: pure function of the spec list.
  ASSERT_EQ(a.interleaved.size(), b.interleaved.size());
  for (std::size_t i = 0; i < a.interleaved.size(); ++i) {
    EXPECT_EQ(a.interleaved[i].addr(), b.interleaved[i].addr());
    EXPECT_EQ(a.interleaved[i].stream, b.interleaved[i].stream);
    EXPECT_EQ(a.interleaved[i].op, b.interleaved[i].op);
  }

  // Proportional interleave: every tenant shows up early — within any
  // window of ~2x the tenant count the smooth round-robin must have
  // visited all of them at least once near the front.
  std::vector<bool> seen(3, false);
  for (std::size_t i = 0; i < 32 && i < a.interleaved.size(); ++i) {
    seen[a.interleaved[i].stream] = true;
  }
  EXPECT_TRUE(seen[0]);
  EXPECT_TRUE(seen[1]);
  EXPECT_TRUE(seen[2]);
}

TEST(MixedTraceTest, StreamIdsAreCheckedBeforeNarrowing) {
  // TraceRecord carries a 16-bit stream id: the widest one survives the
  // builder, and one past it is rejected instead of wrapping to stream 0.
  dram::Geometry geo;
  smc::LinearMapper mapper(geo);
  std::vector<workloads::TenantSpec> tenants(1);
  tenants[0].footprint_bytes = 16 * 1024;
  tenants[0].stream = 0xFFFF;
  const workloads::MixedTrace mixed =
      workloads::make_mixed_trace(tenants, mapper);
  ASSERT_FALSE(mixed.interleaved.empty());
  for (const cpu::TraceRecord& rec : mixed.interleaved) {
    ASSERT_EQ(rec.stream, 0xFFFFu);
  }

  tenants[0].stream = 0x10000;
  EXPECT_THROW(workloads::make_mixed_trace(tenants, mapper), ContractViolation);
}

}  // namespace
}  // namespace easydram
