#include <gtest/gtest.h>

#include "smc/controller.hpp"
#include "smc/rowclone_alloc.hpp"
#include "sys/system.hpp"
#include "workloads/builder.hpp"

// Coverage for the mechanisms that make the paper's quantitative shapes
// emerge: row-hit batch draining, write streaming, service-vs-background
// SMC cycle attribution, the hardware-MC mode, and the RowClone trigger.

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

sys::SystemConfig ts_config() {
  sys::SystemConfig cfg = sys::jetson_nano_time_scaling();
  cfg.variation = strong_variation();
  return cfg;
}

// --------------------------------------------------------------------------
// Row-hit batch draining
// --------------------------------------------------------------------------

TEST(BatchDrainTest, SameRowRequestsShareOneActivation) {
  sys::EasyDramSystem sysm(ts_config());
  // Submit 8 reads to consecutive lines of one row before waiting.
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(sysm.submit_read(static_cast<std::uint64_t>(i) * 64, 10));
  }
  for (const auto id : ids) sysm.wait(id);
  EXPECT_EQ(sysm.device().commands_issued(dram::Command::kAct), 1);
  EXPECT_EQ(sysm.device().commands_issued(dram::Command::kRead), 8);
}

TEST(BatchDrainTest, DrainedBatchIsFasterPerRequest) {
  // 8 same-row reads submitted together complete far sooner than 8 reads
  // issued strictly one at a time.
  sys::EasyDramSystem batched(ts_config());
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(batched.submit_read(static_cast<std::uint64_t>(i) * 64, 10));
  }
  std::int64_t batched_done = 0;
  for (const auto id : ids) {
    batched_done = std::max(batched_done, batched.wait(id).release_cycle);
  }

  sys::EasyDramSystem serial(ts_config());
  std::int64_t cursor = 10;
  for (int i = 0; i < 8; ++i) {
    const auto id = serial.submit_read(static_cast<std::uint64_t>(i) * 64, cursor);
    cursor = serial.wait(id).release_cycle;
  }
  EXPECT_LT(batched_done - 10, (cursor - 10) * 2 / 3);
}

TEST(BatchDrainTest, DifferentRowsAreNotDrainedTogether) {
  sys::EasyDramSystem sysm(ts_config());
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    // Stride one full row: 4 distinct rows of bank 0 (linear mapping).
    ids.push_back(sysm.submit_read(static_cast<std::uint64_t>(i) * 8192, 10));
  }
  for (const auto id : ids) sysm.wait(id);
  EXPECT_EQ(sysm.device().commands_issued(dram::Command::kAct), 4);
}

TEST(BatchDrainTest, RowBatchLimitRespected) {
  smc::ControllerOptions opt;
  opt.row_batch_limit = 2;
  smc::MemoryController controller(std::move(opt));

  dram::Geometry geo;
  dram::DramDevice device(geo, dram::ddr4_1333(), strong_variation());
  tile::EasyTile tile{tile::TileConfig{}};
  smc::LinearMapper mapper(geo);
  timescale::TimeKeeper keeper(
      timescale::SystemMode::kTimeScaling,
      timescale::DomainConfig{Frequency::megahertz(100), Frequency::gigahertz(1)},
      Frequency::megahertz(100), Cycles{0});
  smc::EasyApi api(tile, device, mapper, keeper);

  for (std::uint64_t i = 0; i < 6; ++i) {
    tile::Request r;
    r.id = i + 1;
    r.kind = tile::RequestKind::kRead;
    r.paddr = i * 64;
    tile.incoming().push(r);
  }
  while (tile.outgoing().size() < 6) controller.step(api);
  // 6 same-row reads with limit 2 -> 3 batches -> 1 ACT each (the row
  // stays open, so later batches are pure row hits: still 1 activation).
  EXPECT_EQ(device.commands_issued(dram::Command::kAct), 1);
  EXPECT_GE(api.stats().batches_executed, 3);
}

// --------------------------------------------------------------------------
// Write streaming
// --------------------------------------------------------------------------

TEST(WriteStreamingTest, StreamingStoreSkipsRfo) {
  sys::EasyDramSystem sysm(ts_config());  // A57 preset: streaming on.
  std::vector<cpu::TraceRecord> recs;
  for (int i = 0; i < 32; ++i) {
    cpu::TraceRecord r;
    r.op = cpu::Op::kStoreStream;
    r.set_addr(static_cast<std::uint64_t>(i) * 64);
    recs.push_back(r);
  }
  cpu::VectorTrace trace(std::move(recs));
  const cpu::RunResult res = sysm.run(trace);
  EXPECT_EQ(res.mem_writes, 32);
  EXPECT_EQ(res.mem_reads, 0);  // No RFOs.
  EXPECT_EQ(sysm.device().commands_issued(dram::Command::kRead), 0);
  EXPECT_EQ(sysm.device().commands_issued(dram::Command::kWrite), 32);
}

TEST(WriteStreamingTest, NonStreamingCoreTreatsItAsPlainStore) {
  cpu::CoreConfig cfg = cpu::cortex_a57_core();
  cfg.write_streaming = false;
  sys::SystemConfig scfg = ts_config();
  scfg.core = cfg;
  sys::EasyDramSystem sysm(scfg);
  std::vector<cpu::TraceRecord> recs;
  for (int i = 0; i < 8; ++i) {
    cpu::TraceRecord r;
    r.op = cpu::Op::kStoreStream;
    r.set_addr(static_cast<std::uint64_t>(i) * 64);
    recs.push_back(r);
  }
  cpu::VectorTrace trace(std::move(recs));
  const cpu::RunResult res = sysm.run(trace);
  EXPECT_EQ(res.mem_reads, 8);  // Write-allocate RFOs.
}

TEST(WriteStreamingTest, StreamingInvalidatesCachedCopy) {
  cpu::Core core(cpu::cortex_a57_core(), cpu::easydram_caches());
  // Load a line (cached), then stream-store it, then load again: the
  // second load must miss (the streamed line bypassed the cache).
  std::vector<cpu::TraceRecord> recs;
  cpu::TraceRecord load;
  load.op = cpu::Op::kLoad;
  load.set_addr(0);
  cpu::TraceRecord stream;
  stream.op = cpu::Op::kStoreStream;
  stream.set_addr(0);
  recs = {load, stream, load};
  cpu::VectorTrace trace(std::move(recs));

  class CountingBackend final : public cpu::MemoryBackend {
   public:
    std::uint64_t submit_read(std::uint64_t, std::int64_t now) override {
      ++reads;
      return remember(now);
    }
    std::uint64_t submit_write(std::uint64_t, std::int64_t now) override {
      return remember(now);
    }
    std::uint64_t submit_rowclone(std::uint64_t, std::uint64_t,
                                  std::int64_t now) override {
      return remember(now);
    }
    std::uint64_t submit_profile(std::uint64_t, Picoseconds,
                                 std::int64_t now) override {
      return remember(now);
    }
    cpu::Completion wait(std::uint64_t id) override {
      return cpu::Completion{release.at(id), true};
    }
    std::uint64_t remember(std::int64_t now) {
      release[next] = now + 10;
      return next++;
    }
    int reads = 0;
    std::uint64_t next = 1;
    std::unordered_map<std::uint64_t, std::int64_t> release;
  };

  CountingBackend mem;
  core.run(trace, mem);
  EXPECT_EQ(mem.reads, 2);  // Initial miss + post-stream miss.
}

// --------------------------------------------------------------------------
// Hardware-MC mode and cycle attribution
// --------------------------------------------------------------------------

TEST(HardwareMcTest, ServiceCyclesNotChargedToMc) {
  timescale::TimeKeeper k(
      timescale::SystemMode::kTimeScaling,
      timescale::DomainConfig{Frequency::megahertz(100), Frequency::gigahertz(1)},
      Frequency::megahertz(100), Cycles{5}, /*hardware_mc=*/true);
  k.account_mc_service_cycles(Cycles{1000});
  EXPECT_EQ(k.counters().mc(), 0);
  k.account_schedule_decision();
  EXPECT_EQ(k.counters().mc(), 5);  // Only the fixed pipeline latency.
}

TEST(HardwareMcTest, SystemLatencyDropsWithHardwareMc) {
  sys::SystemConfig soft = ts_config();
  sys::SystemConfig hard = ts_config();
  hard.hardware_mc = true;
  hard.mc_sched_latency = Cycles{4};

  sys::EasyDramSystem s1(soft), s2(hard);
  const auto c1 = s1.wait(s1.submit_read(0, 100));
  const auto c2 = s2.wait(s2.submit_read(0, 100));
  EXPECT_LT(c2.release_cycle, c1.release_cycle);
}

TEST(AttributionTest, OverlappedChargeDoesNotDelayRequests) {
  dram::Geometry geo;
  dram::DramDevice device(geo, dram::ddr4_1333(), strong_variation());
  tile::EasyTile tile{tile::TileConfig{}};
  smc::LinearMapper mapper(geo);
  timescale::TimeKeeper keeper(
      timescale::SystemMode::kTimeScaling,
      timescale::DomainConfig{Frequency::megahertz(100), Frequency::gigahertz(1)},
      Frequency::megahertz(100), Cycles{0});
  smc::EasyApi api(tile, device, mapper, keeper);

  api.charge_overlapped(Cycles{1000});
  EXPECT_EQ(keeper.counters().mc(), 0);
  api.charge(Cycles{1000});  // Service charge.
  EXPECT_EQ(keeper.counters().mc(), 1000);
}

TEST(AttributionTest, ReceiveSnapsMcToRequestTag) {
  dram::Geometry geo;
  dram::DramDevice device(geo, dram::ddr4_1333(), strong_variation());
  tile::EasyTile tile{tile::TileConfig{}};
  smc::LinearMapper mapper(geo);
  timescale::TimeKeeper keeper(
      timescale::SystemMode::kTimeScaling,
      timescale::DomainConfig{Frequency::megahertz(100), Frequency::gigahertz(1)},
      Frequency::megahertz(100), Cycles{0});
  smc::EasyApi api(tile, device, mapper, keeper);

  tile::Request r;
  r.id = 1;
  r.kind = tile::RequestKind::kRead;
  r.issue_proc_cycle = 5000;
  tile.incoming().push(r);
  api.receive_request();
  EXPECT_GE(keeper.counters().mc(), 5000);
}

// --------------------------------------------------------------------------
// RowClone trigger cost
// --------------------------------------------------------------------------

TEST(RowCloneTriggerTest, TriggerCyclesChargedToCore) {
  sys::SystemConfig with = ts_config();
  with.core.rowclone_trigger_cycles = Cycles{5000};
  sys::SystemConfig without = ts_config();
  without.core.rowclone_trigger_cycles = Cycles{0};

  auto run_one = [](const sys::SystemConfig& cfg) {
    sys::EasyDramSystem sysm(cfg);
    smc::RowClonePairTester tester(sysm.api(), 2);
    tester.test(0, 0, 1, sysm.clone_map());
    sysm.enable_rowclone();
    std::vector<cpu::TraceRecord> recs(2);
    recs[0].op = cpu::Op::kRowClone;
    recs[0].set_addr(0);
    recs[1].op = cpu::Op::kRowCloneDst;
    recs[1].set_addr(8192);
    cpu::VectorTrace trace(std::move(recs));
    return sysm.run(trace).cycles;
  };
  EXPECT_GE(run_one(with) - run_one(without), 5000);
}

// --------------------------------------------------------------------------
// Scheduler end-to-end difference
// --------------------------------------------------------------------------

TEST(SchedulerEndToEndTest, FrfcfsBeatsFcfsOnRowConflicts) {
  auto run_policy = [](bool frfcfs) {
    sys::SystemConfig cfg = ts_config();
    cfg.use_frfcfs = frfcfs;
    sys::EasyDramSystem sysm(cfg);
    workloads::TraceBuilder b;
    for (int rep = 0; rep < 500; ++rep) {
      const std::uint64_t col = static_cast<std::uint64_t>(rep % 128) * 64;
      b.load(col);         // Bank 0 row 0.
      b.load(8192 + col);  // Bank 0 row 1 (conflict).
    }
    cpu::VectorTrace trace(b.take());
    return sysm.run(trace).cycles;
  };
  EXPECT_LE(run_policy(true), run_policy(false));
}

}  // namespace
}  // namespace easydram
