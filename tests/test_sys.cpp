#include <gtest/gtest.h>

#include "smc/rowclone_alloc.hpp"
#include "smc/trcd_profiler.hpp"
#include "sys/system.hpp"
#include "workloads/builder.hpp"

namespace easydram::sys {
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

SystemConfig small_ts_config() {
  SystemConfig cfg = jetson_nano_time_scaling();
  cfg.variation = strong_variation();
  return cfg;
}

cpu::VectorTrace dependent_loads(int n, std::uint64_t stride) {
  workloads::TraceBuilder b;
  for (int i = 0; i < n; ++i) {
    b.load_dependent(static_cast<std::uint64_t>(i) * stride);
  }
  return cpu::VectorTrace(b.take());
}

TEST(SystemTest, ServesSingleRead) {
  EasyDramSystem sysm(small_ts_config());
  const std::uint64_t id = sysm.submit_read(4096, 100);
  const cpu::Completion c = sysm.wait(id);
  EXPECT_GT(c.release_cycle, 100);
  EXPECT_TRUE(c.ok);
}

TEST(SystemTest, TimeScalingLatencyMatchesTargetModel) {
  EasyDramSystem sysm(small_ts_config());
  const std::uint64_t id = sysm.submit_read(4096, 1000);
  const cpu::Completion c = sysm.wait(id);
  // Expected: sched latency (24) + ACT+RD+data (~35 ns -> ~51 cycles at
  // 1.43 GHz). The release tag must be in that ballpark — far below the
  // thousands of cycles the raw SMC software latency would imply.
  const std::int64_t latency = c.release_cycle - 1000;
  EXPECT_GE(latency, 24 + 30);
  EXPECT_LE(latency, 24 + 150);
}

TEST(SystemTest, NoTimeScalingLatencyIsWallBased) {
  SystemConfig cfg = pidram_no_time_scaling();
  cfg.variation = strong_variation();
  EasyDramSystem sysm(cfg);
  const std::uint64_t id = sysm.submit_read(4096, 0);
  const cpu::Completion c = sysm.wait(id);
  // The 50 MHz processor observes the SMC's software latency: hundreds of
  // core cycles of SMC time at 100 MHz map to tens of processor cycles.
  EXPECT_GE(c.release_cycle, 5);
  EXPECT_LE(c.release_cycle, 500);
  EXPECT_GT(sysm.wall().count, 0);
}

TEST(SystemTest, SmcSlownessHiddenOnlyWithTimeScaling) {
  SystemConfig ts = small_ts_config();
  SystemConfig nts = pidram_no_time_scaling();
  nts.variation = strong_variation();

  EasyDramSystem s1(ts), s2(nts);
  const auto c1 = s1.wait(s1.submit_read(0, 0));
  const auto c2 = s2.wait(s2.submit_read(0, 0));
  // In emulated *time* (not cycles), the NoTS system is far slower.
  const double t1 = static_cast<double>(c1.release_cycle) / 1.43e9;
  const double t2 = static_cast<double>(c2.release_cycle) / 50e6;
  EXPECT_GT(t2, 5 * t1);
}

TEST(SystemTest, RunIsDeterministic) {
  auto run_once = [] {
    EasyDramSystem sysm(small_ts_config());
    auto trace = dependent_loads(2000, 8192);
    return sysm.run(trace).cycles;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(SystemTest, ModesProduceDifferentTimelines) {
  SystemConfig ts = small_ts_config();
  EasyDramSystem s_ts(ts);
  auto t1 = dependent_loads(500, 8192);
  const auto r_ts = s_ts.run(t1);

  SystemConfig nts = pidram_no_time_scaling();
  nts.variation = strong_variation();
  EasyDramSystem s_nts(nts);
  auto t2 = dependent_loads(500, 8192);
  const auto r_nts = s_nts.run(t2);

  EXPECT_GT(r_ts.cycles, 0);
  EXPECT_GT(r_nts.cycles, 0);
  // Per-load latency in cycles: TS (GHz-class) must far exceed NoTS.
  EXPECT_GT(r_ts.cycles, 2 * r_nts.cycles);
}

TEST(SystemTest, ReferenceModeMatchesTimeScalingClosely) {
  SystemConfig ts = validation_time_scaling();
  ts.variation = strong_variation();
  EasyDramSystem s_ts(ts);
  auto t1 = dependent_loads(3000, 4096);
  const auto r_ts = s_ts.run(t1);

  SystemConfig ref = validation_reference();
  ref.variation = strong_variation();
  EasyDramSystem s_ref(ref);
  auto t2 = dependent_loads(3000, 4096);
  const auto r_ref = s_ref.run(t2);

  const double err = std::abs(static_cast<double>(r_ts.cycles - r_ref.cycles)) /
                     static_cast<double>(r_ref.cycles);
  EXPECT_LT(err, 0.01);
}

TEST(SystemTest, PostedWritesAreDrained) {
  EasyDramSystem sysm(small_ts_config());
  workloads::TraceBuilder b;
  for (int i = 0; i < 50; ++i) b.store(static_cast<std::uint64_t>(i) * 4096);
  cpu::VectorTrace trace(b.take());
  const auto r = sysm.run(trace);
  EXPECT_EQ(r.stores, 50);
  // All RFOs and writebacks were processed by run()'s final drain.
  EXPECT_GE(sysm.smc_stats().requests_received, 50);
}

TEST(SystemTest, RowClonePathEndToEnd) {
  SystemConfig cfg = small_ts_config();
  EasyDramSystem sysm(cfg);
  // Verify one pair through the allocator machinery, then enable RowClone.
  smc::RowClonePairTester tester(sysm.api(), /*trials=*/2);
  tester.test(0, 0, 1, sysm.clone_map());
  sysm.enable_rowclone();

  const std::uint64_t src = 0;
  const std::uint64_t dst = 8192;  // Row 1 of bank 0 under LinearMapper.
  const auto ok = sysm.wait(sysm.submit_rowclone(src, dst, 10));
  EXPECT_TRUE(ok.ok);

  // An unverified pair falls back.
  const auto fb = sysm.wait(sysm.submit_rowclone(src, 8192 * 5, 20));
  EXPECT_FALSE(fb.ok);
}

TEST(SystemTest, ProfileRequestPath) {
  SystemConfig cfg = jetson_nano_time_scaling();  // Real variation model.
  EasyDramSystem sysm(cfg);
  const auto ok =
      sysm.wait(sysm.submit_profile(0, Picoseconds{13'500}, 5));
  EXPECT_TRUE(ok.ok);  // Nominal tRCD always reads correctly.
}

TEST(SystemTest, WeakRowFilterChangesAccessPath) {
  SystemConfig cfg = jetson_nano_time_scaling();
  EasyDramSystem sysm(cfg);
  const std::uint32_t banks[] = {0};
  smc::WeakRowFilterStats stats;
  auto filter = smc::build_weak_row_filter(sysm.api(), banks, 64, 9_ns,
                                           1 << 14, 4, &stats);
  sysm.install_weak_row_filter(std::move(filter));

  auto trace = dependent_loads(64, 8192);
  const auto r = sysm.run(trace);
  EXPECT_GT(r.cycles, 0);
  // Reduced-tRCD accesses happened: the device saw deliberate violations.
  EXPECT_TRUE(sysm.smc_stats().violations_seen & dram::kTrcd);
}

TEST(SystemTest, RefreshesAreIssuedOverLongRuns) {
  EasyDramSystem sysm(small_ts_config());
  workloads::TraceBuilder b;
  for (int i = 0; i < 200; ++i) {
    b.compute(10000);  // Long compute stretches between misses.
    b.load_dependent(static_cast<std::uint64_t>(i) * 8192);
  }
  cpu::VectorTrace trace(b.take());
  sysm.run(trace);
  EXPECT_GT(sysm.smc_stats().refreshes_issued, 0);
}

TEST(SystemTest, WallClockGrowsWithWork) {
  EasyDramSystem sysm(small_ts_config());
  auto trace = dependent_loads(300, 8192);
  const auto r = sysm.run(trace);
  EXPECT_GT(sysm.wall().count, 0);
  // Wall covers at least the processor execution at the FPGA clock.
  const Picoseconds min_wall =
      sysm.config().proc_domain.fpga_clock.cycles_to_ps(r.cycles);
  EXPECT_GE(sysm.wall() + 1_ns, min_wall);
}

TEST(SystemTest, MismatchedClockConfigRejected) {
  SystemConfig cfg = small_ts_config();
  cfg.core.emulated_clock = Frequency::gigahertz(2);  // != proc_domain.
  EXPECT_THROW(EasyDramSystem{cfg}, ContractViolation);
}

TEST(SystemTest, FifoBackpressurePumpsController) {
  SystemConfig cfg = small_ts_config();
  cfg.tile.incoming_fifo_depth = 2;  // Tiny FIFO forces pumping.
  EasyDramSystem sysm(cfg);
  workloads::TraceBuilder b;
  for (int i = 0; i < 40; ++i) b.store(static_cast<std::uint64_t>(i) * 4096);
  cpu::VectorTrace trace(b.take());
  const auto r = sysm.run(trace);
  EXPECT_EQ(r.stores, 40);
}

TEST(CompletionRingTest, PendingTracksIssuingStream) {
  CompletionRing ring;
  ring.note_pending(1, 3);
  EXPECT_TRUE(ring.pending(1));
  EXPECT_FALSE(ring.ready(1));
  EXPECT_EQ(ring.stream(1), 3u);
  ring.put(1, 500, true);
  EXPECT_FALSE(ring.pending(1));
  EXPECT_TRUE(ring.ready(1));
  EXPECT_EQ(ring.stream(1), 3u);
  ring.consume(1);
  EXPECT_FALSE(ring.pending(1));
  EXPECT_FALSE(ring.ready(1));
}

TEST(CompletionRingTest, PendingWindowSurvivesGrowthAndClear) {
  CompletionRing ring;
  for (std::uint64_t id = 1; id <= 200; ++id) {
    ring.note_pending(id, static_cast<std::uint32_t>(id % 8));
  }
  EXPECT_EQ(ring.stream(200), 200u % 8);
  EXPECT_EQ(ring.stream(1), 1u);
  ring.put(5, 10, true);
  EXPECT_TRUE(ring.ready(5));
  EXPECT_TRUE(ring.pending(4));
  ring.clear();
  EXPECT_FALSE(ring.pending(5));
  EXPECT_FALSE(ring.ready(5));
}

}  // namespace
}  // namespace easydram::sys
