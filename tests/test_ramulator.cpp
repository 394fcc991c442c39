#include <gtest/gtest.h>

#include "common/contracts.hpp"
#include "ramulator/ramulator.hpp"
#include "workloads/builder.hpp"

namespace easydram::ramulator {
namespace {

using namespace easydram::literals;

RamulatorConfig small_cfg() {
  RamulatorConfig cfg;
  cfg.llc = cpu::CacheConfig{16 * 1024, 4, 64};  // Small LLC for miss tests.
  return cfg;
}

TEST(RamulatorTest, PureComputeRetiresAtWidth) {
  RamulatorSim sim(small_cfg());
  workloads::TraceBuilder b;
  b.compute(4000);
  b.load(0);  // Single access carrying the gap.
  cpu::VectorTrace t(b.take());
  const RamStats s = sim.run(t);
  EXPECT_EQ(s.instructions, 4003);
  // 4-wide retire: at least 1000 cycles, and memory adds a bounded tail.
  EXPECT_GE(s.cycles, 1000);
  EXPECT_LE(s.cycles, 3000);
}

TEST(RamulatorTest, LlcHitsAvoidMemory) {
  RamulatorSim sim(small_cfg());
  workloads::TraceBuilder b;
  for (int rep = 0; rep < 10; ++rep) {
    for (int i = 0; i < 8; ++i) b.load(static_cast<std::uint64_t>(i) * 64);
  }
  cpu::VectorTrace t(b.take());
  const RamStats s = sim.run(t);
  EXPECT_EQ(s.mem_reads, 8);  // Only cold misses.
  EXPECT_EQ(s.loads, 80);
}

TEST(RamulatorTest, DependentLoadsExposeDramLatency) {
  RamulatorSim sim(small_cfg());
  workloads::TraceBuilder b;
  // 128 KiB stride: same bank, a new row each time (line-interleaved map),
  // so every access pays the full PRE+ACT+RD path.
  for (int i = 0; i < 20; ++i) {
    b.load_dependent(static_cast<std::uint64_t>(i) * 128 * 1024);
  }
  cpu::VectorTrace t(b.take());
  const RamStats s = sim.run(t);
  // Each row-miss access: >= tRCD+tCL+tBL ~ 33 ns ~ 105 CPU cycles at 3.2 GHz.
  EXPECT_GE(s.cycles, 20 * 100);
  EXPECT_EQ(s.llc_misses, 20);
  EXPECT_GE(s.row_misses, 20);
}

TEST(RamulatorTest, RowHitsAreCounted) {
  RamulatorSim sim(small_cfg());
  workloads::TraceBuilder b;
  // Sequential lines within one DRAM row of one bank: line-interleaved
  // mapping sends consecutive lines to different banks, so use stride
  // 16*64 to stay in bank 0 and walk its columns.
  for (int i = 0; i < 32; ++i) {
    b.load_dependent(static_cast<std::uint64_t>(i) * 16 * 64);
  }
  cpu::VectorTrace t(b.take());
  const RamStats s = sim.run(t);
  EXPECT_GT(s.row_hits, 20);
}

TEST(RamulatorTest, RowCloneIsIdealized) {
  RamulatorSim sim(small_cfg());
  workloads::TraceBuilder b;
  for (int i = 0; i < 10; ++i) {
    b.rowclone(static_cast<std::uint64_t>(2 * i) * 8192,
               static_cast<std::uint64_t>(2 * i + 1) * 8192);
  }
  cpu::VectorTrace t(b.take());
  const RamStats s = sim.run(t);
  EXPECT_EQ(s.rowclones, 10);
  // Each idealized clone costs ~2 tCK + tRAS + tRP plus the fixed
  // request-path overhead (~350 ns total); ten clones finish in ~3.5 us.
  EXPECT_LT(s.cycles, 20'000);
}

TEST(RamulatorTest, RowCloneWaitingOnAFullQueueKeepsItsDestination) {
  // A one-slot read queue makes the clone retry while earlier misses are
  // queued; the destination record is pulled only when the clone issues.
  RamulatorConfig cfg = small_cfg();
  cfg.read_queue_depth = 1;
  RamulatorSim sim(cfg);
  workloads::TraceBuilder b;
  for (int i = 0; i < 8; ++i) {
    b.load(static_cast<std::uint64_t>(i) * 8192 * 4, /*gap=*/0);
  }
  b.rowclone(0, 8192);
  b.load(64);
  cpu::VectorTrace t(b.take());
  const RamStats s = sim.run(t);
  EXPECT_EQ(s.rowclones, 1);
  EXPECT_EQ(s.loads, 9);
}

TEST(RamulatorTest, WidestAddressesKeepTheirHighBits) {
  // Each pair differs only above bit 31, so a record that dropped its high
  // byte would turn the second load of a pair into an LLC hit.
  const std::uint64_t addrs[] = {0xFF'FFFF'F000, 0x7F'FFFF'F000,
                                 0x01'2345'6000, 0x00'2345'6000,
                                 0x80'0000'1040, 0x00'0000'1040};
  std::vector<cpu::TraceRecord> recs;
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::uint64_t a : addrs) recs.emplace_back(cpu::Op::kLoad, a);
  }
  RamulatorSim sim(small_cfg());
  cpu::VectorTrace t(std::move(recs));
  const RamStats s = sim.run(t);
  EXPECT_EQ(s.loads, 12);
  EXPECT_EQ(s.llc_misses, 6);
  EXPECT_EQ(s.mem_reads, 6);
}

TEST(RamulatorTest, RejectsCacheLinesOtherThan64Bytes) {
  for (const std::uint32_t line_bytes : {32u, 128u}) {
    RamulatorConfig cfg = small_cfg();
    cfg.llc.line_bytes = line_bytes;
    EXPECT_THROW(RamulatorSim{cfg}, ContractViolation);
  }
}

TEST(RamulatorTest, UnpairedRowCloneRecordsViolateTheContract) {
  const cpu::TraceRecord clone(cpu::Op::kRowClone, 0);
  const cpu::TraceRecord dst(cpu::Op::kRowCloneDst, 8192);
  const cpu::TraceRecord load(cpu::Op::kLoad, 64);
  const std::vector<std::vector<cpu::TraceRecord>> broken = {
      {clone}, {clone, load}, {dst}, {load, dst}};
  for (const auto& records : broken) {
    RamulatorSim sim(small_cfg());
    cpu::VectorTrace t(records);
    EXPECT_THROW(sim.run(t), ContractViolation);
  }
}

TEST(RamulatorTest, InstructionCapStopsSimulation) {
  RamulatorConfig cfg = small_cfg();
  cfg.max_instructions = 1000;
  RamulatorSim sim(cfg);
  workloads::TraceBuilder b;
  for (int i = 0; i < 10000; ++i) b.load(static_cast<std::uint64_t>(i % 8) * 64);
  cpu::VectorTrace t(b.take());
  const RamStats s = sim.run(t);
  EXPECT_LE(s.instructions, 1005);
}

TEST(RamulatorTest, Deterministic) {
  auto once = [] {
    RamulatorSim sim(small_cfg());
    workloads::TraceBuilder b;
    for (int i = 0; i < 500; ++i) {
      b.load(static_cast<std::uint64_t>(i) * 512);
      b.store(static_cast<std::uint64_t>(i) * 512 + 64);
    }
    cpu::VectorTrace t(b.take());
    return sim.run(t).cycles;
  };
  EXPECT_EQ(once(), once());
}

TEST(RamulatorTest, MarkersCaptured) {
  RamulatorSim sim(small_cfg());
  std::vector<cpu::TraceRecord> recs;
  cpu::TraceRecord m;
  m.op = cpu::Op::kMarker;
  recs.push_back(m);
  cpu::TraceRecord l;
  l.op = cpu::Op::kLoadDependent;
  l.set_addr(4096);
  recs.push_back(l);
  recs.push_back(m);
  cpu::VectorTrace t(std::move(recs));
  const RamStats s = sim.run(t);
  ASSERT_EQ(s.markers.size(), 2u);
  EXPECT_GT(s.markers[1], s.markers[0]);
}

TEST(RamulatorTest, ReducedTrcdSpeedsUpRowMisses) {
  workloads::TraceBuilder b;
  for (int i = 0; i < 400; ++i) {
    b.load_dependent(static_cast<std::uint64_t>(i) * 4096);
  }
  const auto recs = b.take();

  RamulatorSim nominal(small_cfg());
  cpu::VectorTrace t1(recs);
  const RamStats s1 = nominal.run(t1);

  RamulatorConfig fast_cfg = small_cfg();
  fast_cfg.trcd_of = [](std::uint32_t, std::uint32_t) { return 9_ns; };
  RamulatorSim fast(fast_cfg);
  cpu::VectorTrace t2(recs);
  const RamStats s2 = fast.run(t2);

  EXPECT_LT(s2.cycles, s1.cycles);
}

TEST(RamulatorTest, WritebacksHappenUnderCapacityPressure) {
  RamulatorSim sim(small_cfg());
  workloads::TraceBuilder b;
  for (int i = 0; i < 2000; ++i) b.store(static_cast<std::uint64_t>(i) * 64);
  cpu::VectorTrace t(b.take());
  const RamStats s = sim.run(t);
  EXPECT_GT(s.mem_writes, 100);
}

}  // namespace
}  // namespace easydram::ramulator
