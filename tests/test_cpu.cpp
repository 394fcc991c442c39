#include <gtest/gtest.h>

#include <limits>
#include <utility>

#include "common/contracts.hpp"
#include "cpu/backend.hpp"
#include "cpu/cache.hpp"
#include "cpu/core.hpp"
#include "cpu/presets.hpp"
#include "cpu/trace.hpp"

namespace easydram::cpu {
namespace {

/// Fixed-latency memory backend: responses release `latency` cycles after
/// submission, with optional per-kind tracking for assertions.
class FixedLatencyBackend final : public MemoryBackend {
 public:
  explicit FixedLatencyBackend(std::int64_t latency) : latency_(latency) {}

  std::uint64_t submit_read(std::uint64_t paddr, std::int64_t now) override {
    reads.push_back(paddr);
    return remember(now);
  }
  std::uint64_t submit_write(std::uint64_t paddr, std::int64_t now) override {
    writes.push_back(paddr);
    return remember(now);
  }
  std::uint64_t submit_rowclone(std::uint64_t src, std::uint64_t dst,
                                std::int64_t now) override {
    rowclones.emplace_back(src, dst);
    return remember(now);
  }
  std::uint64_t submit_profile(std::uint64_t, Picoseconds, std::int64_t now) override {
    return remember(now);
  }

  void set_stream(std::uint32_t stream) override { streams.push_back(stream); }

  Completion wait(std::uint64_t id) override {
    return Completion{release_.at(id), rowclone_ok};
  }

  std::vector<std::uint64_t> reads;
  std::vector<std::uint64_t> writes;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> rowclones;
  std::vector<std::uint32_t> streams;  ///< Every set_stream value, in order.
  bool rowclone_ok = true;

 private:
  std::uint64_t remember(std::int64_t now) {
    const std::uint64_t id = next_++;
    release_[id] = now + latency_;
    return id;
  }

  std::int64_t latency_;
  std::uint64_t next_ = 1;
  std::unordered_map<std::uint64_t, std::int64_t> release_;
};

CoreConfig tiny_core() {
  CoreConfig c;
  c.emulated_clock = Frequency::gigahertz(1);
  c.issue_width = 1;
  c.mlp = 2;
  c.store_buffer = 2;
  c.l1_latency = 2;
  c.l2_latency = 10;
  c.fill_to_use = 0;
  return c;
}

CacheHierConfig tiny_caches() {
  CacheHierConfig h;
  h.l1 = CacheConfig{1024, 2, 64};   // 16 lines.
  h.l2 = CacheConfig{4096, 4, 64};   // 64 lines.
  return h;
}

// --------------------------------------------------------------------------
// Cache unit tests
// --------------------------------------------------------------------------

TEST(CacheTest, HitAfterFill) {
  Cache c(CacheConfig{1024, 2, 64});
  EXPECT_FALSE(c.access(0));
  c.fill(0);
  EXPECT_TRUE(c.access(0));
  EXPECT_EQ(c.hits(), 1);
  EXPECT_EQ(c.misses(), 1);
}

TEST(CacheTest, LruEviction) {
  // 2-way, 8 sets: lines 0, 512, 1024 map to set 0 (stride 512 = 8 sets*64).
  Cache c(CacheConfig{1024, 2, 64});
  c.fill(0);
  c.fill(512);
  c.access(0);      // 0 is now MRU; 512 is LRU.
  const FillResult f = c.fill(1024);
  EXPECT_TRUE(f.evicted);
  EXPECT_EQ(f.evicted_line, 512u);
  EXPECT_TRUE(c.probe(0));
  EXPECT_FALSE(c.probe(512));
}

TEST(CacheTest, DirtyEvictionReported) {
  Cache c(CacheConfig{1024, 2, 64});
  c.fill(0);
  c.mark_dirty(0);
  c.fill(512);
  const FillResult f = c.fill(1024);  // Evicts 0 (LRU).
  EXPECT_TRUE(f.evicted);
  EXPECT_EQ(f.evicted_line, 0u);
  EXPECT_TRUE(f.evicted_dirty);
}

TEST(CacheTest, FlushReportsDirtyAndInvalidates) {
  Cache c(CacheConfig{1024, 2, 64});
  c.fill(64);
  c.mark_dirty(64);
  const Cache::FlushResult f = c.flush(64);
  EXPECT_TRUE(f.was_present);
  EXPECT_TRUE(f.was_dirty);
  EXPECT_FALSE(c.probe(64));
  const Cache::FlushResult f2 = c.flush(64);
  EXPECT_FALSE(f2.was_present);
}

TEST(CacheTest, MisalignedLineRejected) {
  Cache c(CacheConfig{1024, 2, 64});
  EXPECT_THROW(c.access(3), ContractViolation);
}

TEST(CacheTest, MarkDirtyOnAbsentLineRejected) {
  Cache c(CacheConfig{1024, 2, 64});
  EXPECT_THROW(c.mark_dirty(0), ContractViolation);
}

struct CacheGeom {
  std::uint64_t size;
  std::uint32_t ways;
};

class CacheGeometry : public ::testing::TestWithParam<CacheGeom> {};

TEST_P(CacheGeometry, WorkingSetLargerThanCacheAlwaysEvicts) {
  const auto [size, ways] = GetParam();
  Cache c(CacheConfig{size, ways, 64});
  const std::uint64_t lines = size / 64;
  // Touch 2x capacity sequentially: second pass cannot be all hits.
  for (std::uint64_t i = 0; i < 2 * lines; ++i) {
    if (!c.access(i * 64)) c.fill(i * 64);
  }
  std::int64_t hits = 0;
  for (std::uint64_t i = 0; i < 2 * lines; ++i) {
    if (c.access(i * 64)) ++hits;
  }
  EXPECT_LT(hits, static_cast<std::int64_t>(2 * lines));
  // And capacity is respected: at most `lines` lines present.
  std::int64_t present = 0;
  for (std::uint64_t i = 0; i < 2 * lines; ++i) {
    if (c.probe(i * 64)) ++present;
  }
  EXPECT_LE(present, static_cast<std::int64_t>(lines));
}

INSTANTIATE_TEST_SUITE_P(Geometries, CacheGeometry,
                         ::testing::Values(CacheGeom{1024, 2}, CacheGeom{4096, 4},
                                           CacheGeom{32768, 4}, CacheGeom{65536, 8},
                                           CacheGeom{131072, 16}));

// --------------------------------------------------------------------------
// Core timing model
// --------------------------------------------------------------------------

std::vector<TraceRecord> loads(std::initializer_list<std::uint64_t> addrs,
                               Op op = Op::kLoad, std::uint32_t gap = 0) {
  std::vector<TraceRecord> v;
  for (const std::uint64_t a : addrs) v.emplace_back(op, a, gap);
  return v;
}

TEST(CoreTest, PureComputeRunsAtIssueWidth) {
  CoreConfig cfg = tiny_core();
  cfg.issue_width = 2;
  Core core(cfg, tiny_caches());
  FixedLatencyBackend mem(100);
  std::vector<TraceRecord> t(1, TraceRecord{});
  t[0].op = Op::kMarker;
  t[0].gap_instructions = 999;  // 1000 instructions total.
  VectorTrace trace(std::move(t));
  const RunResult r = core.run(trace, mem);
  EXPECT_EQ(r.instructions, 1000);
  EXPECT_EQ(r.cycles, 500);
}

TEST(CoreTest, LargestGapDoesNotWrapTheInstructionCount) {
  // gap_instructions + 1 is 2^32: one record retires that many
  // instructions rather than wrapping to zero.
  CoreConfig cfg = tiny_core();
  cfg.issue_width = 2;
  Core core(cfg, tiny_caches());
  FixedLatencyBackend mem(100);
  std::vector<TraceRecord> t(1, TraceRecord{});
  t[0].op = Op::kMarker;
  t[0].gap_instructions = std::numeric_limits<std::uint32_t>::max();
  VectorTrace trace(std::move(t));
  const RunResult r = core.run(trace, mem);
  EXPECT_EQ(r.instructions, std::int64_t{1} << 32);
  EXPECT_EQ(r.cycles, std::int64_t{1} << 31);
}

TEST(CoreTest, IssueSlotsCarryAcrossRecordsAtAnyWidth) {
  // 28 instructions over seven records: the partial issue cycle left by
  // one record carries into the next.
  for (const std::uint32_t width : {1u, 2u, 3u, 4u, 5u}) {
    CoreConfig cfg = tiny_core();
    cfg.issue_width = width;
    Core core(cfg, tiny_caches());
    FixedLatencyBackend mem(100);
    std::vector<TraceRecord> t;
    for (std::uint32_t gap = 0; gap < 7; ++gap) t.emplace_back(Op::kDrain, 0, gap);
    VectorTrace trace(std::move(t));
    const RunResult r = core.run(trace, mem);
    EXPECT_EQ(r.instructions, 28);
    EXPECT_EQ(r.cycles, 28 / width) << "width " << width;
  }
}

TEST(CoreTest, DependentMissExposesFullLatency) {
  Core core(tiny_core(), tiny_caches());
  FixedLatencyBackend mem(100);
  VectorTrace trace(loads({0}, Op::kLoadDependent));
  const RunResult r = core.run(trace, mem);
  EXPECT_GE(r.cycles, 100);
  EXPECT_EQ(r.l2_misses, 1);
  EXPECT_EQ(mem.reads.size(), 1u);
}

TEST(CoreTest, IndependentMissesOverlap) {
  CoreConfig cfg = tiny_core();
  cfg.mlp = 4;
  Core overlap(cfg, tiny_caches());
  FixedLatencyBackend mem1(100);
  VectorTrace t1(loads({0, 4096, 8192, 12288}));
  const RunResult r_overlap = overlap.run(t1, mem1);

  Core serial(tiny_core(), tiny_caches());  // Same but dependent loads.
  FixedLatencyBackend mem2(100);
  VectorTrace t2(loads({0, 4096, 8192, 12288}, Op::kLoadDependent));
  const RunResult r_serial = serial.run(t2, mem2);

  EXPECT_LT(r_overlap.cycles, r_serial.cycles / 2);
}

TEST(CoreTest, MlpLimitSerializes) {
  CoreConfig narrow = tiny_core();
  narrow.mlp = 1;
  Core core(narrow, tiny_caches());
  FixedLatencyBackend mem(100);
  VectorTrace trace(loads({0, 4096, 8192, 12288}));
  const RunResult r = core.run(trace, mem);
  // Four misses at MLP 1: at least 3 full latencies are exposed.
  EXPECT_GE(r.cycles, 300);
}

TEST(CoreTest, L1HitsAreCheapForDependentLoads) {
  Core core(tiny_core(), tiny_caches());
  FixedLatencyBackend mem(100);
  // Load the same line repeatedly: one miss, then L1 hits at 2 cycles.
  std::vector<TraceRecord> t = loads({0}, Op::kLoadDependent);
  for (int i = 0; i < 10; ++i) {
    const auto more = loads({0}, Op::kLoadDependent);
    t.insert(t.end(), more.begin(), more.end());
  }
  VectorTrace trace(std::move(t));
  const RunResult r = core.run(trace, mem);
  EXPECT_EQ(r.l1_misses, 1);
  EXPECT_LT(r.cycles, 100 + 11 * 4);
}

TEST(CoreTest, StoresArePostedThroughStoreBuffer) {
  CoreConfig cfg = tiny_core();
  cfg.store_buffer = 8;
  Core core(cfg, tiny_caches());
  FixedLatencyBackend mem(100);
  std::vector<TraceRecord> t;
  for (int i = 0; i < 8; ++i) {
    TraceRecord r;
    r.op = Op::kStore;
    // Distinct sets (stride 64) so tiny-cache conflicts cause no extra
    // writebacks that would occupy store-buffer slots.
    r.set_addr(static_cast<std::uint64_t>(i) * 64);
    t.push_back(r);
  }
  VectorTrace trace(std::move(t));
  const RunResult r = core.run(trace, mem);
  // All 8 RFOs fit in the store buffer: the core never stalls on them
  // until the final drain.
  EXPECT_LE(r.cycles, 100 + 16);
  EXPECT_EQ(mem.reads.size(), 8u);  // RFOs are reads.
}

TEST(CoreTest, FullStoreBufferStalls) {
  CoreConfig cfg = tiny_core();
  cfg.store_buffer = 1;
  Core core(cfg, tiny_caches());
  FixedLatencyBackend mem(100);
  std::vector<TraceRecord> t;
  for (int i = 0; i < 4; ++i) {
    TraceRecord r;
    r.op = Op::kStore;
    r.set_addr(static_cast<std::uint64_t>(i) * 4096);
    t.push_back(r);
  }
  VectorTrace trace(std::move(t));
  const RunResult r = core.run(trace, mem);
  EXPECT_GE(r.cycles, 300);
}

TEST(CoreTest, BlockingLoadsConfigSerializesEverything) {
  CoreConfig cfg = tiny_core();
  cfg.blocking_loads = true;
  cfg.mlp = 8;
  Core core(cfg, tiny_caches());
  FixedLatencyBackend mem(50);
  VectorTrace trace(loads({0, 4096, 8192}));
  const RunResult r = core.run(trace, mem);
  EXPECT_GE(r.cycles, 150);
}

TEST(CoreTest, DirtyEvictionsWriteBack) {
  Core core(tiny_core(), tiny_caches());
  FixedLatencyBackend mem(10);
  std::vector<TraceRecord> t;
  // Dirty many distinct lines so L2 (64 lines) must evict dirty victims.
  for (int i = 0; i < 200; ++i) {
    TraceRecord r;
    r.op = Op::kStore;
    r.set_addr(static_cast<std::uint64_t>(i) * 64);
    t.push_back(r);
  }
  VectorTrace trace(std::move(t));
  core.run(trace, mem);
  EXPECT_GT(mem.writes.size(), 0u);
}

std::vector<TraceRecord> store_then_loads(std::initializer_list<std::uint64_t> addrs) {
  std::vector<TraceRecord> t;
  t.emplace_back(Op::kStore, 0, 0);
  for (const std::uint64_t a : addrs) t.emplace_back(Op::kLoad, a, 0);
  return t;
}

TEST(CoreTest, DirtyL1VictimStaysInL2UntilL2EvictsIt) {
  // tiny_caches(): L1 has 8 sets of 2 ways, L2 16 sets of 4 ways. Lines
  // 512 and 1536 share L1 set 0 with line 0 but sit in L2 set 8, so they
  // push the dirty line 0 out of L1 while L2 keeps it.
  {
    Core core(tiny_core(), tiny_caches());
    FixedLatencyBackend mem(10);
    VectorTrace trace(store_then_loads({512, 1536}));
    const RunResult r = core.run(trace, mem);
    EXPECT_FALSE(core.l1().probe(0));
    EXPECT_TRUE(core.l2().probe(0));
    EXPECT_EQ(r.mem_writes, 0);
    EXPECT_TRUE(mem.writes.empty());
  }
  // Four more lines of L2 set 0 then evict line 0 from L2: the dirty data
  // folded back from L1 reaches memory exactly once, at that eviction.
  Core core(tiny_core(), tiny_caches());
  FixedLatencyBackend mem(10);
  VectorTrace trace(store_then_loads({512, 1536, 1024, 2048, 3072, 4096}));
  const RunResult r = core.run(trace, mem);
  EXPECT_FALSE(core.l2().probe(0));
  EXPECT_EQ(r.mem_writes, 1);
  ASSERT_EQ(mem.writes.size(), 1u);
  EXPECT_EQ(mem.writes[0], 0u);
}

TEST(CoreTest, FlushWritesBackDirtyLine) {
  Core core(tiny_core(), tiny_caches());
  FixedLatencyBackend mem(10);
  std::vector<TraceRecord> t;
  TraceRecord st;
  st.op = Op::kStore;
  st.set_addr(0);
  t.push_back(st);
  TraceRecord fl;
  fl.op = Op::kFlush;
  fl.set_addr(0);
  t.push_back(fl);
  VectorTrace trace(std::move(t));
  const RunResult r = core.run(trace, mem);
  EXPECT_EQ(r.flushes, 1);
  ASSERT_EQ(mem.writes.size(), 1u);
  EXPECT_EQ(mem.writes[0], 0u);
}

TEST(CoreTest, FlushOfCleanLineDoesNotWriteBack) {
  Core core(tiny_core(), tiny_caches());
  FixedLatencyBackend mem(10);
  std::vector<TraceRecord> t = loads({0});
  TraceRecord fl;
  fl.op = Op::kFlush;
  fl.set_addr(0);
  t.push_back(fl);
  VectorTrace trace(std::move(t));
  core.run(trace, mem);
  EXPECT_EQ(mem.writes.size(), 0u);
}

TEST(CoreTest, RowCloneFeedbackReachesTrace) {
  /// Trace source that emits one rowclone pair then reports the feedback.
  class FeedbackProbe final : public TraceSource {
   public:
    bool next(TraceRecord& out, bool last_rowclone_ok) override {
      if (step_ == 2) saw_ok = last_rowclone_ok;
      if (step_ > 1) return false;
      out = TraceRecord{};
      out.op = step_ == 0 ? Op::kRowClone : Op::kRowCloneDst;
      out.set_addr(step_ == 0 ? 0 : 8192);
      ++step_;
      return true;
    }
    int step_ = 0;
    bool saw_ok = true;
  };

  Core core(tiny_core(), tiny_caches());
  FixedLatencyBackend mem(10);
  mem.rowclone_ok = false;
  FeedbackProbe trace;
  const RunResult r = core.run(trace, mem);
  EXPECT_FALSE(trace.saw_ok);
  EXPECT_EQ(r.rowclones, 1);
  EXPECT_EQ(r.rowclone_fallbacks, 1);
}

TEST(TraceRecordTest, AddressBelowTheLimitRoundTrips) {
  TraceRecord r;
  r.set_addr(TraceRecord::kAddrLimit - 64);
  EXPECT_EQ(r.addr(), TraceRecord::kAddrLimit - 64);
  EXPECT_EQ(TraceRecord(Op::kStore, 0x12'3456'7890).addr(), 0x12'3456'7890u);
}

TEST(TraceRecordTest, AddressAtTheLimitViolatesTheContract) {
  TraceRecord r;
  EXPECT_THROW(r.set_addr(TraceRecord::kAddrLimit), ContractViolation);
  EXPECT_THROW(TraceRecord(Op::kLoad, TraceRecord::kAddrLimit),
               ContractViolation);
}

TEST(CoreTest, RecordFieldsReachTheBackendUnchanged) {
  // The widest 40-bit addresses, the widest stream id and the largest gap
  // a producer emits survive the packed record layout.
  std::vector<TraceRecord> t = {
      TraceRecord(Op::kRowClone, 0xFF'FFFF'F000),
      TraceRecord(Op::kRowCloneDst, 0x01'2345'6000),
      TraceRecord(Op::kLoad, 0x80'0000'1040, 0x7FFF'FFFF)};
  t[0].stream = 0xFFFF;
  t[1].stream = 0xFFFF;
  t[2].stream = 7;

  Core core(tiny_core(), tiny_caches());
  FixedLatencyBackend mem(10);
  VectorTrace trace(std::move(t));
  const RunResult r = core.run(trace, mem);

  ASSERT_EQ(mem.rowclones.size(), 1u);
  EXPECT_EQ(mem.rowclones[0].first, 0xFF'FFFF'F000u);
  EXPECT_EQ(mem.rowclones[0].second, 0x01'2345'6000u);
  EXPECT_EQ(mem.reads, std::vector<std::uint64_t>{0x80'0000'1040u});
  EXPECT_EQ(mem.streams, (std::vector<std::uint32_t>{0, 0xFFFF, 7}));
  EXPECT_EQ(r.instructions, std::int64_t{0x8000'0000} + 1);
}

TEST(CoreTest, RejectsCacheLinesOtherThan64Bytes) {
  for (const std::uint32_t line_bytes : {32u, 128u}) {
    CacheHierConfig l1_off = tiny_caches();
    l1_off.l1.line_bytes = line_bytes;
    EXPECT_THROW(Core(tiny_core(), l1_off), ContractViolation);
    CacheHierConfig l2_off = tiny_caches();
    l2_off.l2.line_bytes = line_bytes;
    EXPECT_THROW(Core(tiny_core(), l2_off), ContractViolation);
  }
}

TEST(CoreTest, UnpairedRowCloneRecordsViolateTheContract) {
  const TraceRecord clone(Op::kRowClone, 0);
  const TraceRecord dst(Op::kRowCloneDst, 8192);
  const TraceRecord load(Op::kLoad, 64);
  const std::vector<std::vector<TraceRecord>> broken = {
      {clone}, {clone, load}, {dst}, {load, dst}};
  for (const auto& records : broken) {
    Core core(tiny_core(), tiny_caches());
    FixedLatencyBackend mem(10);
    VectorTrace trace(records);
    EXPECT_THROW(core.run(trace, mem), ContractViolation);
  }
}

TEST(CoreTest, MarkersSnapshotCycles) {
  Core core(tiny_core(), tiny_caches());
  FixedLatencyBackend mem(100);
  std::vector<TraceRecord> t;
  TraceRecord m;
  m.op = Op::kMarker;
  t.push_back(m);
  const auto l = loads({0}, Op::kLoadDependent);
  t.insert(t.end(), l.begin(), l.end());
  t.push_back(m);
  VectorTrace trace(std::move(t));
  const RunResult r = core.run(trace, mem);
  ASSERT_EQ(r.markers.size(), 2u);
  EXPECT_GE(r.markers[1] - r.markers[0], 100);
}

TEST(CoreTest, DrainWaitsForAllOutstanding) {
  CoreConfig cfg = tiny_core();
  cfg.mlp = 4;
  Core core(cfg, tiny_caches());
  FixedLatencyBackend mem(500);
  std::vector<TraceRecord> t = loads({0, 4096});
  TraceRecord d;
  d.op = Op::kDrain;
  t.push_back(d);
  VectorTrace trace(std::move(t));
  const RunResult r = core.run(trace, mem);
  EXPECT_GE(r.cycles, 500);
}

TEST(CoreTest, PresetsAreInternallyConsistent) {
  EXPECT_TRUE(pidram_inorder_core().blocking_loads);
  EXPECT_EQ(pidram_inorder_core().emulated_clock, Frequency::megahertz(50));
  EXPECT_EQ(cortex_a57_core().emulated_clock.hertz(), 1'430'000'000);
  EXPECT_GT(jetson_nano_caches().l2.size_bytes, easydram_caches().l2.size_bytes);
}

}  // namespace
}  // namespace easydram::cpu
