#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>

#include "common/contracts.hpp"
#include "common/rng.hpp"
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
    std::span<const TraceRecord> pull(bool last_rowclone_ok) override {
      if (pulls_++ == 0) return pair_;
      saw_ok = last_rowclone_ok;
      return {};
    }
    bool saw_ok = true;

   private:
    std::array<TraceRecord, 2> pair_ = rowclone_pair(0, 8192, 0);
    int pulls_ = 0;
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

// --------------------------------------------------------------------------
// The pipelined core against a serial reference
// --------------------------------------------------------------------------

/// The core's timing algorithm written serially: one loop that runs the
/// caches, keeps the cycle count and calls the backend as each record
/// executes. Core::run splits this work across two threads and must
/// reproduce it call for call.
class SerialReferenceCore {
 public:
  SerialReferenceCore(const CoreConfig& cfg, const CacheHierConfig& caches)
      : cfg_(cfg), l1_(caches.l1), l2_(caches.l2) {}

  RunResult run(TraceSource& trace, MemoryBackend& mem) {
    bool last_rowclone_ok = true;
    std::uint32_t current_stream = 0;
    mem.set_stream(current_stream);
    std::span<const TraceRecord> span;
    std::size_t next = 0;
    for (;;) {
      if (next == span.size()) {
        span = trace.pull(last_rowclone_ok);
        next = 0;
        if (span.empty()) break;
      }
      const TraceRecord& rec = span[next++];
      if (rec.stream != current_stream) {
        current_stream = rec.stream;
        mem.set_stream(current_stream);
      }
      advance_for_instructions(std::uint64_t{rec.gap_instructions} + 1);
      const std::uint64_t line = rec.addr() & ~std::uint64_t{63};
      switch (rec.op) {
        case Op::kLoad:
        case Op::kLoadDependent: {
          ++result_.loads;
          const bool dependent = cfg_.blocking_loads || rec.op == Op::kLoadDependent;
          if (l1_.access(line)) {
            if (dependent) cycle_ += cfg_.l1_latency;
            break;
          }
          ++result_.l1_misses;
          if (l2_.access(line)) {
            fill_l1(line, false);
            if (dependent) cycle_ += cfg_.l2_latency;
            break;
          }
          ++result_.l2_misses;
          if (outstanding_loads_.size() >= cfg_.mlp) wait_oldest_load(mem);
          const std::uint64_t id = fetch_line(line, false, mem);
          if (dependent) {
            const Completion c = mem.wait(id);
            cycle_ = std::max(cycle_, c.release_cycle + cfg_.fill_to_use);
          } else {
            outstanding_loads_.push_back(id);
          }
          break;
        }
        case Op::kStoreStream:
          if (cfg_.write_streaming) {
            ++result_.stores;
            l1_.flush(line);
            l2_.flush(line);
            reserve_store_slot(mem);
            store_slots_.push_back(mem.submit_write(line, cycle_));
            ++result_.mem_writes;
            break;
          }
          [[fallthrough]];
        case Op::kStore:
          ++result_.stores;
          if (l1_.access_store(line)) break;
          ++result_.l1_misses;
          if (l2_.access(line)) {
            fill_l1(line, true);
            break;
          }
          ++result_.l2_misses;
          reserve_store_slot(mem);
          store_slots_.push_back(fetch_line(line, true, mem));
          break;
        case Op::kFlush: {
          ++result_.flushes;
          cycle_ += cfg_.flush_cost;
          const Cache::FlushResult f1 = l1_.flush(line);
          const Cache::FlushResult f2 = l2_.flush(line);
          if (f1.was_dirty || f2.was_dirty) {
            reserve_store_slot(mem);
            store_slots_.push_back(mem.submit_write(line, cycle_));
            ++result_.mem_writes;
          }
          break;
        }
        case Op::kRowClone: {
          EASYDRAM_EXPECTS(next < span.size() &&
                           span[next].op == Op::kRowCloneDst);
          const TraceRecord& dst = span[next++];
          ++result_.rowclones;
          cycle_ += cfg_.rowclone_trigger_cycles.count;
          const Completion c =
              mem.wait(mem.submit_rowclone(rec.addr(), dst.addr(), cycle_));
          cycle_ = std::max(cycle_, c.release_cycle);
          last_rowclone_ok = c.ok;
          if (!c.ok) ++result_.rowclone_fallbacks;
          break;
        }
        case Op::kRowCloneDst:
          EASYDRAM_EXPECTS(!"kRowCloneDst without its kRowClone");
          break;
        case Op::kDrain:
          drain_all(mem);
          break;
        case Op::kMarker:
          drain_all(mem);
          result_.markers.push_back(cycle_);
          break;
      }
    }
    drain_all(mem);
    result_.cycles = cycle_;
    return result_;
  }

 private:
  void advance_for_instructions(std::uint64_t count) {
    result_.instructions += static_cast<std::int64_t>(count);
    const std::uint64_t total = count + width_remainder_;
    cycle_ += static_cast<std::int64_t>(total / cfg_.issue_width);
    width_remainder_ = static_cast<std::uint32_t>(total % cfg_.issue_width);
  }
  void fill_l1(std::uint64_t line, bool dirty) {
    const FillResult f = l1_.fill(line, dirty);
    if (f.evicted && f.evicted_dirty) l2_.mark_dirty(f.evicted_line);
  }
  std::uint64_t fetch_line(std::uint64_t line, bool dirty, MemoryBackend& mem) {
    const FillResult f = l2_.fill(line);
    if (f.evicted) {
      const Cache::FlushResult l1f = l1_.flush(f.evicted_line);
      if (f.evicted_dirty || l1f.was_dirty) {
        reserve_store_slot(mem);
        store_slots_.push_back(mem.submit_write(f.evicted_line, cycle_));
        ++result_.mem_writes;
      }
    }
    const std::uint64_t id = mem.submit_read(line, cycle_);
    ++result_.mem_reads;
    fill_l1(line, dirty);
    return id;
  }
  void wait_front(std::deque<std::uint64_t>& q, MemoryBackend& mem) {
    const Completion c = mem.wait(q.front());
    q.pop_front();
    cycle_ = std::max(cycle_, c.release_cycle);
  }
  void wait_oldest_load(MemoryBackend& mem) { wait_front(outstanding_loads_, mem); }
  void reserve_store_slot(MemoryBackend& mem) {
    if (store_slots_.size() >= cfg_.store_buffer) wait_front(store_slots_, mem);
  }
  void drain_all(MemoryBackend& mem) {
    while (!outstanding_loads_.empty()) wait_front(outstanding_loads_, mem);
    while (!store_slots_.empty()) wait_front(store_slots_, mem);
  }

  CoreConfig cfg_;
  Cache l1_;
  Cache l2_;
  std::int64_t cycle_ = 0;
  std::uint32_t width_remainder_ = 0;
  std::deque<std::uint64_t> outstanding_loads_;
  std::deque<std::uint64_t> store_slots_;
  RunResult result_;
};

/// One backend call: its kind, operands and `now` (waits log their id).
struct Call {
  char kind;  ///< r(ead) w(rite) c(lone) s(tream) W(ait).
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::int64_t now = 0;
  bool operator==(const Call&) const = default;
};

/// Logs every call and answers from a seeded script: each request's release
/// cycle and RowClone outcome are drawn in submission order, so two cores
/// that make the same calls see the same answers. Throws std::runtime_error
/// on call number `throw_at`, or on the first RowClone when
/// `throw_on_rowclone` is set.
class ScriptedBackend final : public MemoryBackend {
 public:
  explicit ScriptedBackend(std::uint64_t seed) : rng_(seed) {}

  void set_stream(std::uint32_t stream) override { record({'s', stream}); }
  std::uint64_t submit_read(std::uint64_t paddr, std::int64_t now) override {
    record({'r', paddr, 0, now});
    return issue(now);
  }
  std::uint64_t submit_write(std::uint64_t paddr, std::int64_t now) override {
    record({'w', paddr, 0, now});
    return issue(now);
  }
  std::uint64_t submit_rowclone(std::uint64_t src, std::uint64_t dst,
                                std::int64_t now) override {
    if (throw_on_rowclone) throw std::runtime_error("scripted RowClone failure");
    record({'c', src, dst, now});
    return issue(now);
  }
  std::uint64_t submit_profile(std::uint64_t, Picoseconds, std::int64_t now) override {
    return issue(now);
  }
  Completion wait(std::uint64_t id) override {
    record({'W', id});
    return Completion{release_.at(id), ok_.at(id)};
  }

  std::vector<Call> log;
  std::size_t throw_at = std::numeric_limits<std::size_t>::max();
  bool throw_on_rowclone = false;

 private:
  void record(const Call& c) {
    if (log.size() == throw_at) throw std::runtime_error("scripted backend failure");
    log.push_back(c);
  }
  std::uint64_t issue(std::int64_t now) {
    const std::uint64_t id = next_id_++;
    release_[id] = now + 1 + static_cast<std::int64_t>(rng_.next() % 400);
    ok_[id] = rng_.next() % 3 != 0;
    return id;
  }

  SplitMix64 rng_;
  std::uint64_t next_id_ = 1;
  std::unordered_map<std::uint64_t, std::int64_t> release_;
  std::unordered_map<std::uint64_t, bool> ok_;
};

/// Seeded random trace over every op, with stream switches and gaps up to
/// UINT32_MAX. It reacts to RowClone feedback the way CopyInitTrace does:
/// a failed clone is redone with loads and stores, so the records that
/// follow depend on the outcome, and a span ends with the pair. `records`
/// bounds the randomly drawn records; `lone_dst_at` replaces that one with
/// an unpaired kRowCloneDst. A pull hands out at most `span_records`
/// records, except that a RowClone pair always travels whole.
class FeedbackTrace final : public TraceSource {
 public:
  FeedbackTrace(std::uint64_t seed, std::size_t records,
                std::size_t lone_dst_at = std::numeric_limits<std::size_t>::max(),
                std::size_t span_records = 64)
      : rng_(seed),
        left_(records),
        lone_dst_at_(lone_dst_at),
        span_records_(span_records) {}

  std::span<const TraceRecord> pull(bool last_rowclone_ok) override {
    ++pulls;
    if (awaiting_ && pending_.empty()) {
      awaiting_ = false;
      if (!last_rowclone_ok) {
        for (std::uint64_t off = 0; off < 256; off += 64) {
          pending_.emplace_back(Op::kLoadDependent, clone_src_ + off, 3);
          pending_.emplace_back(Op::kStore, clone_dst_ + off, 3);
        }
      }
    }
    span_.clear();
    while (span_.size() < span_records_) {
      if (pending_.empty()) {
        if (awaiting_ || left_ == 0) break;
        --left_;
        draw();
      }
      span_.push_back(pending_.front());
      pending_.pop_front();
      if (span_.back().op == Op::kRowClone) {
        span_.push_back(pending_.front());
        pending_.pop_front();
      }
    }
    handed.insert(handed.end(), span_.begin(), span_.end());
    return span_;
  }

  std::size_t pulls = 0;
  std::vector<TraceRecord> handed;  ///< Every record pulled, in order.

 private:
  void draw() {
    const std::uint64_t r = rng_.next();
    if (r % 19 == 0) stream_ = r % 7 == 0 ? 0xFFFF : static_cast<std::uint16_t>(r % 4);
    std::uint32_t gap = static_cast<std::uint32_t>((r >> 8) % 9);
    if ((r >> 16) % 211 == 0) gap = std::numeric_limits<std::uint32_t>::max();
    else if ((r >> 16) % 97 == 0) gap = static_cast<std::uint32_t>(r >> 32);
    // 4096 lines: four times the reference L2 below, so misses and dirty
    // evictions are common.
    const std::uint64_t addr = ((r >> 24) % 4096) * 64 + (r >> 40) % 64;
    const std::uint64_t pick = (r >> 48) % 100;
    if (drawn_++ == lone_dst_at_) {
      push(TraceRecord(Op::kRowCloneDst, addr, gap));
    } else if (pick < 30) {
      push(TraceRecord(Op::kLoad, addr, gap));
    } else if (pick < 45) {
      push(TraceRecord(Op::kLoadDependent, addr, gap));
    } else if (pick < 70) {
      push(TraceRecord(Op::kStore, addr, gap));
    } else if (pick < 80) {
      push(TraceRecord(Op::kStoreStream, addr, gap));
    } else if (pick < 90) {
      push(TraceRecord(Op::kFlush, addr, gap));
    } else if (pick < 94) {
      clone_src_ = addr & ~std::uint64_t{8191};
      clone_dst_ = (addr ^ 0x20000) & ~std::uint64_t{8191};
      for (const TraceRecord& rec : rowclone_pair(clone_src_, clone_dst_, gap)) push(rec);
      awaiting_ = true;
    } else if (pick < 97) {
      push(TraceRecord(Op::kDrain, 0, gap));
    } else {
      push(TraceRecord(Op::kMarker, 0, gap));
    }
  }
  void push(TraceRecord rec) {
    rec.stream = stream_;
    pending_.push_back(rec);
  }

  SplitMix64 rng_;
  std::size_t left_;
  std::size_t lone_dst_at_;
  std::size_t span_records_;
  std::size_t drawn_ = 0;
  std::uint16_t stream_ = 0;
  bool awaiting_ = false;
  std::uint64_t clone_src_ = 0;
  std::uint64_t clone_dst_ = 0;
  std::deque<TraceRecord> pending_;
  std::vector<TraceRecord> span_;
};

void expect_same_result(const RunResult& want, const RunResult& got) {
  EXPECT_EQ(want.cycles, got.cycles);
  EXPECT_EQ(want.instructions, got.instructions);
  EXPECT_EQ(want.loads, got.loads);
  EXPECT_EQ(want.stores, got.stores);
  EXPECT_EQ(want.l1_misses, got.l1_misses);
  EXPECT_EQ(want.l2_misses, got.l2_misses);
  EXPECT_EQ(want.mem_reads, got.mem_reads);
  EXPECT_EQ(want.mem_writes, got.mem_writes);
  EXPECT_EQ(want.rowclones, got.rowclones);
  EXPECT_EQ(want.rowclone_fallbacks, got.rowclone_fallbacks);
  EXPECT_EQ(want.flushes, got.flushes);
  EXPECT_EQ(want.markers, got.markers);
}

CacheHierConfig reference_caches() {
  CacheHierConfig h;
  h.l1 = CacheConfig{4096, 2, 64};    // 64 lines.
  h.l2 = CacheConfig{65536, 4, 64};   // 1024 lines.
  return h;
}

TEST(PipelinedCoreTest, MatchesTheSerialReferenceCallForCall) {
  std::uint64_t seed = 1;
  for (const std::uint32_t width : {1u, 2u, 3u}) {
    for (const std::uint32_t queues : {1u, 3u}) {
      for (const bool blocking : {false, true}) {
        for (const bool streaming : {false, true}) {
          ++seed;
          CoreConfig cfg = tiny_core();
          cfg.issue_width = width;
          cfg.mlp = queues;
          cfg.store_buffer = queues + 1;
          cfg.blocking_loads = blocking;
          cfg.write_streaming = streaming;
          cfg.fill_to_use = 3;
          cfg.flush_cost = 5;
          cfg.rowclone_trigger_cycles = Cycles{37};
          SCOPED_TRACE(::testing::Message()
                       << "seed " << seed << " width " << width << " queues "
                       << queues << " blocking " << blocking << " streaming "
                       << streaming);

          // Enough records that the events outrun the ring several times.
          constexpr std::size_t kRecords = 12'000;
          ScriptedBackend want_mem(seed);
          FeedbackTrace want_trace(seed, kRecords);
          const RunResult want =
              SerialReferenceCore(cfg, reference_caches()).run(want_trace, want_mem);

          ScriptedBackend got_mem(seed);
          FeedbackTrace got_trace(seed, kRecords);
          Core core(cfg, reference_caches());
          const RunResult got = core.run(got_trace, got_mem);

          ASSERT_EQ(want_mem.log.size(), got_mem.log.size());
          for (std::size_t i = 0; i < want_mem.log.size(); ++i) {
            ASSERT_EQ(want_mem.log[i], got_mem.log[i]) << "call " << i;
          }
          expect_same_result(want, got);
          EXPECT_EQ(want_trace.pulls, got_trace.pulls);
          EXPECT_GT(got.rowclone_fallbacks, 0);
          EXPECT_GT(got.rowclones, got.rowclone_fallbacks);
        }
      }
    }
  }
}

TEST(PipelinedCoreTest, SpanBoundariesLeaveTheRunUnchanged) {
  // The same feedback-driven trace, pulled one record at a time (a RowClone
  // pair as one span of two), then replayed from what it handed out as one
  // SpanTrace span. The scripted backend answers by submission order, so
  // the replay sees the same RowClone outcomes, and every backend call and
  // counter must match.
  std::uint64_t seed = 100;
  for (const std::uint32_t width : {1u, 3u}) {
    for (const bool blocking : {false, true}) {
      for (const bool streaming : {false, true}) {
        ++seed;
        CoreConfig cfg = tiny_core();
        cfg.issue_width = width;
        cfg.mlp = 2;
        cfg.store_buffer = 3;
        cfg.blocking_loads = blocking;
        cfg.write_streaming = streaming;
        cfg.rowclone_trigger_cycles = Cycles{37};
        SCOPED_TRACE(::testing::Message()
                     << "seed " << seed << " width " << width << " blocking "
                     << blocking << " streaming " << streaming);

        constexpr std::size_t kRecords = 12'000;
        ScriptedBackend one_mem(seed);
        FeedbackTrace one_trace(seed, kRecords,
                                std::numeric_limits<std::size_t>::max(),
                                /*span_records=*/1);
        const RunResult one =
            Core(cfg, reference_caches()).run(one_trace, one_mem);

        ScriptedBackend all_mem(seed);
        SpanTrace all_trace(one_trace.handed);
        const RunResult all =
            Core(cfg, reference_caches()).run(all_trace, all_mem);

        ASSERT_EQ(one_mem.log.size(), all_mem.log.size());
        for (std::size_t i = 0; i < one_mem.log.size(); ++i) {
          ASSERT_EQ(one_mem.log[i], all_mem.log[i]) << "call " << i;
        }
        expect_same_result(one, all);
        // One pull per record or pair, plus the empty pull that ends it.
        EXPECT_EQ(one_trace.pulls, one_trace.handed.size() -
                                       static_cast<std::size_t>(one.rowclones) + 1);
        EXPECT_GT(all.rowclone_fallbacks, 0);
        EXPECT_GT(all.rowclones, all.rowclone_fallbacks);
        const auto switches = std::count_if(
            all_mem.log.begin(), all_mem.log.end(),
            [](const Call& c) { return c.kind == 's' && c.a != 0; });
        EXPECT_GT(switches, 1);
      }
    }
  }
}

TEST(PipelinedCoreTest, RowClonePairSplitAcrossSpansViolatesTheContract) {
  /// Hands out a load and a kRowClone, then its kRowCloneDst and a load.
  class SplitPairTrace final : public TraceSource {
   public:
    std::span<const TraceRecord> pull(bool /*last_rowclone_ok*/) override {
      const std::size_t at = 2 * pulls_++;
      if (at >= records_.size()) return {};
      return std::span<const TraceRecord>(records_).subspan(at, 2);
    }

   private:
    std::vector<TraceRecord> records_ = {
        TraceRecord(Op::kLoad, 0), TraceRecord(Op::kRowClone, 8192),
        TraceRecord(Op::kRowCloneDst, 16384), TraceRecord(Op::kLoad, 64)};
    std::size_t pulls_ = 0;
  };

  ScriptedBackend want_mem(5);
  SplitPairTrace want_trace;
  EXPECT_THROW(SerialReferenceCore(tiny_core(), reference_caches())
                   .run(want_trace, want_mem),
               ContractViolation);

  ScriptedBackend got_mem(5);
  SplitPairTrace got_trace;
  Core core(tiny_core(), reference_caches());
  EXPECT_THROW(core.run(got_trace, got_mem), ContractViolation);
  EXPECT_EQ(want_mem.log, got_mem.log);
  EXPECT_TRUE(std::none_of(got_mem.log.begin(), got_mem.log.end(),
                           [](const Call& c) { return c.kind == 'c'; }));
}

TEST(PipelinedCoreTest, FilterFailureSurfacesAfterTheCallsBeforeIt) {
  // An unpaired kRowCloneDst deep in the trace: the filter thread throws,
  // and run() rethrows on the caller's thread once every backend call the
  // serial core makes before the same failure has been made.
  for (const std::size_t at : {0u, 1u, 5'000u}) {
    ScriptedBackend want_mem(9);
    FeedbackTrace want_trace(9, 20'000, at);
    EXPECT_THROW(SerialReferenceCore(tiny_core(), reference_caches())
                     .run(want_trace, want_mem),
                 ContractViolation);

    ScriptedBackend got_mem(9);
    FeedbackTrace got_trace(9, 20'000, at);
    Core core(tiny_core(), reference_caches());
    EXPECT_THROW(core.run(got_trace, got_mem), ContractViolation);
    EXPECT_EQ(want_mem.log, got_mem.log) << "lone destination at " << at;
    EXPECT_EQ(want_trace.pulls, got_trace.pulls);
  }
}

TEST(PipelinedCoreTest, BackendFailureStopsTheFilter) {
  // The trace never ends: run() can only return because the backend's
  // exception stops the filter thread, which run() joins before
  // rethrowing (reading `pulls` below would race otherwise, under TSan).
  for (const std::size_t at : {0u, 1u, 700u, 9'000u}) {
    ScriptedBackend mem(3);
    mem.throw_at = at;
    FeedbackTrace trace(3, std::numeric_limits<std::size_t>::max());
    Core core(tiny_core(), reference_caches());
    EXPECT_THROW(core.run(trace, mem), std::runtime_error) << "call " << at;
    EXPECT_EQ(mem.log.size(), at);
    EXPECT_GT(trace.pulls, 0u);
  }
}

TEST(PipelinedCoreTest, BackendFailureWakesAFilterAwaitingARowCloneOutcome) {
  ScriptedBackend mem(4);
  mem.throw_on_rowclone = true;
  std::vector<TraceRecord> t = loads({0, 64, 128});
  for (const TraceRecord& rec : rowclone_pair(0, 8192, 1)) t.push_back(rec);
  t.push_back(TraceRecord(Op::kLoad, 4096));
  VectorTrace trace(std::move(t));
  Core core(tiny_core(), tiny_caches());
  EXPECT_THROW(core.run(trace, mem), std::runtime_error);
}

TEST(CoreTest, PresetsAreInternallyConsistent) {
  EXPECT_TRUE(pidram_inorder_core().blocking_loads);
  EXPECT_EQ(pidram_inorder_core().emulated_clock, Frequency::megahertz(50));
  EXPECT_EQ(cortex_a57_core().emulated_clock.hertz(), 1'430'000'000);
  EXPECT_GT(jetson_nano_caches().l2.size_bytes, easydram_caches().l2.size_bytes);
}

}  // namespace
}  // namespace easydram::cpu
