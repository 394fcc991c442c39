#include <gtest/gtest.h>

#include <set>

#include "workloads/builder.hpp"
#include "workloads/copyinit.hpp"
#include "workloads/hammer.hpp"
#include "workloads/lmbench.hpp"
#include "workloads/polybench.hpp"
#include "workloads/streamsweep.hpp"

namespace easydram::workloads {
namespace {

TEST(BuilderTest, EmitsRecordsWithGaps) {
  TraceBuilder b(3);
  b.load(64);
  b.store(128);
  b.compute(100);
  b.load(192);
  const auto t = b.take();
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0].op, cpu::Op::kLoad);
  EXPECT_EQ(t[0].gap_instructions, 3u);
  EXPECT_EQ(t[2].gap_instructions, 103u);  // compute folded into next gap.
}

TEST(LayoutTest, AllocationsAreAlignedAndDisjoint) {
  Layout l;
  const std::uint64_t a = l.alloc(100);
  const std::uint64_t b = l.alloc(100);
  EXPECT_EQ(a % 64, 0u);
  EXPECT_EQ(b % 64, 0u);
  EXPECT_GE(b, a + 100);
}

TEST(LmbenchTest, VisitsEveryLineOncePerPass) {
  const auto t = make_lmbench_chase(64 * 128, /*passes=*/2);
  EXPECT_EQ(t.size(), 256u);
  std::set<std::uint64_t> first_pass;
  for (std::size_t i = 0; i < 128; ++i) {
    EXPECT_EQ(t[i].op, cpu::Op::kLoadDependent);
    first_pass.insert(t[i].addr());
  }
  EXPECT_EQ(first_pass.size(), 128u);
}

TEST(LmbenchTest, Deterministic) {
  const auto a = make_lmbench_chase(64 * 64, 1);
  const auto b = make_lmbench_chase(64 * 64, 1);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].addr(), b[i].addr());
  }
}

TEST(LmbenchTest, LoadsPerPass) {
  EXPECT_EQ(lmbench_loads_per_pass(8192), 128u);
}

TEST(PolybenchTest, AllKernelsGenerate) {
  for (const PolybenchKernel& k : all_kernels()) {
    const auto t = k.generate();
    EXPECT_GT(t.size(), 10'000u) << k.name;
    EXPECT_LT(t.size(), 20'000'000u) << k.name;
  }
}

TEST(PolybenchTest, TwentyEightKernels) {
  EXPECT_EQ(all_kernels().size(), 28u);
}

TEST(PolybenchTest, Fig13SubsetExists) {
  EXPECT_EQ(fig13_names().size(), 11u);
  for (const auto name : fig13_names()) {
    EXPECT_NO_THROW(generate_kernel(name));
  }
}

TEST(PolybenchTest, UnknownKernelRejected) {
  EXPECT_THROW(generate_kernel("nonexistent"), ContractViolation);
}

TEST(PolybenchTest, AddressesStayWithinModestFootprint) {
  for (const PolybenchKernel& k : all_kernels()) {
    const auto t = k.generate();
    std::uint64_t max_addr = 0;
    for (const auto& r : t) max_addr = std::max(max_addr, r.addr());
    EXPECT_LT(max_addr, 64ull << 20) << k.name;  // < 64 MiB footprint.
  }
}

TEST(PolybenchTest, KernelsSpanMemoryIntensities) {
  // durbin's working set is tiny (cache resident); gemver streams a large
  // matrix repeatedly. Their distinct-line footprints must reflect that.
  auto lines_of = [](std::string_view name) {
    std::set<std::uint64_t> lines;
    for (const auto& r : generate_kernel(name)) lines.insert(r.addr() / 64);
    return lines.size();
  };
  EXPECT_GT(lines_of("gemver"), 20 * lines_of("durbin"));
}

// --------------------------------------------------------------------------
// Copy/Init workload generator
// --------------------------------------------------------------------------

struct CopyInitHarness {
  CopyInitHarness() : mapper(geo) {}

  std::vector<smc::CopyPlanEntry> copy_plan(std::size_t rows, bool all_rowclone) {
    std::vector<smc::CopyPlanEntry> plan;
    for (std::size_t i = 0; i < rows; ++i) {
      smc::CopyPlanEntry e;
      e.src = smc::RowRef{0, static_cast<std::uint32_t>(2 * i)};
      e.dst = smc::RowRef{0, static_cast<std::uint32_t>(2 * i + 1)};
      e.use_rowclone = all_rowclone;
      plan.push_back(e);
    }
    return plan;
  }

  std::vector<smc::InitPlanEntry> init_plan(std::size_t rows) {
    std::vector<smc::InitPlanEntry> plan;
    for (std::size_t i = 0; i < rows; ++i) {
      smc::InitPlanEntry e;
      e.dst = smc::RowRef{0, static_cast<std::uint32_t>(i)};
      e.pattern_src = smc::RowRef{0, 511};
      e.use_rowclone = true;
      plan.push_back(e);
    }
    return plan;
  }

  dram::Geometry geo;
  smc::LinearMapper mapper;
};

/// Pulls every record, answering each RowClone with `rowclone_feedback`.
/// A CopyInitTrace span that holds a RowClone must end with its pair,
/// since the records after it depend on the outcome.
std::vector<cpu::TraceRecord> collect(cpu::TraceSource& src,
                                      bool rowclone_feedback = true) {
  std::vector<cpu::TraceRecord> out;
  bool ok = true;
  for (auto span = src.pull(ok); !span.empty(); span = src.pull(ok)) {
    for (std::size_t i = 0; i < span.size(); ++i) {
      out.push_back(span[i]);
      if (span[i].op != cpu::Op::kRowClone) continue;
      EXPECT_EQ(i + 2, span.size()) << "RowClone pair does not end its span";
      ok = rowclone_feedback;
    }
  }
  return out;
}

TEST(CopyInitTest, CpuBaselineEmitsLoadStorePairs) {
  CopyInitHarness h;
  CopyInitParams p;
  p.kind = CopyInitParams::Kind::kCopy;
  p.use_rowclone = false;
  CopyInitTrace trace(p, h.mapper, h.copy_plan(2, false), {});
  const auto recs = collect(trace);
  std::int64_t loads = 0, stores = 0, markers = 0;
  for (const auto& r : recs) {
    loads += r.op == cpu::Op::kLoadDependent;  // memcpy load->store chain.
    stores += r.op == cpu::Op::kStore;
    markers += r.op == cpu::Op::kMarker;
  }
  EXPECT_EQ(loads, 2 * 128);
  EXPECT_EQ(stores, 2 * 128);
  EXPECT_EQ(markers, 2);
}

TEST(CopyInitTest, RowCloneVariantEmitsClones) {
  CopyInitHarness h;
  CopyInitParams p;
  p.kind = CopyInitParams::Kind::kCopy;
  p.use_rowclone = true;
  CopyInitTrace trace(p, h.mapper, h.copy_plan(3, true), {});
  const auto recs = collect(trace);
  std::int64_t clones = 0, loads = 0;
  for (const auto& r : recs) {
    clones += r.op == cpu::Op::kRowClone;
    loads += r.op == cpu::Op::kLoadDependent;
  }
  EXPECT_EQ(clones, 3);
  EXPECT_EQ(loads, 0);
}

TEST(CopyInitTest, FailedCloneFallsBackToCpu) {
  CopyInitHarness h;
  CopyInitParams p;
  p.kind = CopyInitParams::Kind::kCopy;
  p.use_rowclone = true;
  CopyInitTrace trace(p, h.mapper, h.copy_plan(2, true), {});
  const auto recs = collect(trace, /*rowclone_feedback=*/false);
  std::int64_t clones = 0, loads = 0;
  for (const auto& r : recs) {
    clones += r.op == cpu::Op::kRowClone;
    loads += r.op == cpu::Op::kLoadDependent;
  }
  EXPECT_EQ(clones, 2);
  EXPECT_EQ(loads, 2 * 128);  // Both rows redone by the CPU.
}

TEST(CopyInitTest, UnverifiedPlanEntrySkipsCloneEntirely) {
  CopyInitHarness h;
  CopyInitParams p;
  p.kind = CopyInitParams::Kind::kCopy;
  p.use_rowclone = true;
  auto plan = h.copy_plan(2, true);
  plan[1].use_rowclone = false;
  CopyInitTrace trace(p, h.mapper, std::move(plan), {});
  const auto recs = collect(trace);
  std::int64_t clones = 0, loads = 0;
  for (const auto& r : recs) {
    clones += r.op == cpu::Op::kRowClone;
    loads += r.op == cpu::Op::kLoadDependent;
  }
  EXPECT_EQ(clones, 1);
  EXPECT_EQ(loads, 128);
}

TEST(CopyInitTest, ClflushSettingEmitsWarmAndFlushes) {
  CopyInitHarness h;
  CopyInitParams p;
  p.kind = CopyInitParams::Kind::kCopy;
  p.use_rowclone = true;
  p.clflush = true;
  CopyInitTrace trace(p, h.mapper, h.copy_plan(2, true), {});
  const auto recs = collect(trace);
  std::int64_t flushes = 0, warm_stores = 0;
  bool seen_marker = false;
  for (const auto& r : recs) {
    if (r.op == cpu::Op::kMarker) seen_marker = true;
    if (r.op == cpu::Op::kFlush) {
      flushes++;
      EXPECT_TRUE(seen_marker);  // Flushes are inside the measured region.
    }
    if (r.op == cpu::Op::kStore && !seen_marker) ++warm_stores;
  }
  EXPECT_EQ(warm_stores, 2 * 128);       // Warm phase dirties the source.
  EXPECT_EQ(flushes, 2 * (128 + 128));   // Source + destination lines.
}

TEST(CopyInitTest, InitUsesPatternSourceRow) {
  CopyInitHarness h;
  CopyInitParams p;
  p.kind = CopyInitParams::Kind::kInit;
  p.use_rowclone = true;
  CopyInitTrace trace(p, h.mapper, {}, h.init_plan(4));
  const auto recs = collect(trace);
  const std::uint64_t pattern_base =
      h.mapper.to_physical(dram::DramAddress{0, 511, 0});
  const auto plan = h.init_plan(4);
  std::size_t clones = 0;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    if (recs[i].op != cpu::Op::kRowClone) continue;
    EXPECT_EQ(recs[i].addr(), pattern_base);
    // The destination record follows its clone directly.
    ASSERT_LT(i + 1, recs.size());
    ASSERT_LT(clones, plan.size());
    EXPECT_EQ(recs[i + 1].op, cpu::Op::kRowCloneDst);
    EXPECT_EQ(recs[i + 1].addr(),
              h.mapper.to_physical(dram::DramAddress{plan[clones].dst.bank,
                                                     plan[clones].dst.row, 0}));
    ++clones;
  }
  EXPECT_EQ(clones, 4u);
}

TEST(CopyInitTest, MeasuredRegionBoundedByTwoMarkers) {
  CopyInitHarness h;
  CopyInitParams p;
  p.kind = CopyInitParams::Kind::kInit;
  p.use_rowclone = false;
  CopyInitTrace trace(p, h.mapper, {}, h.init_plan(2));
  const auto recs = collect(trace);
  std::int64_t markers = 0;
  for (const auto& r : recs) markers += r.op == cpu::Op::kMarker;
  EXPECT_EQ(markers, 2);
  EXPECT_EQ(recs.back().op, cpu::Op::kMarker);
}

TEST(PolybenchTest, RecordCountTableMatchesGenerators) {
  // The per-kernel record counts drive generate_kernel's up-front reserve;
  // a stale entry would mean silent re-copying (too small) or a misleading
  // table (too large). Pin every kernel.
  for (const PolybenchKernel& k : all_kernels()) {
    const std::size_t expected = kernel_record_count(k.name);
    EXPECT_GT(expected, 0u) << k.name << " missing from the count table";
    const auto records = generate_kernel(k.name);
    EXPECT_EQ(records.size(), expected) << k.name;
    EXPECT_EQ(records.capacity(), expected) << k.name << " reserve not applied";
  }
  EXPECT_EQ(kernel_record_count("no-such-kernel"), 0u);
}


// --------------------------------------------------------------------------
// RowHammer aggressor kernels
// --------------------------------------------------------------------------

TEST(HammerTest, PatternsProduceTheDocumentedAggressorSets) {
  HammerParams p;
  p.base_row = 1024;
  p.pattern = HammerPattern::kSingleSided;
  EXPECT_EQ(hammer_aggressor_rows(p),
            (std::vector<std::uint32_t>{1024, 1032}));
  p.pattern = HammerPattern::kDoubleSided;
  EXPECT_EQ(hammer_aggressor_rows(p), (std::vector<std::uint32_t>{1024, 1026}));
  p.pattern = HammerPattern::kManySided;
  p.sides = 3;
  EXPECT_EQ(hammer_aggressor_rows(p),
            (std::vector<std::uint32_t>{1024, 1026, 1028}));
}

TEST(HammerTest, VictimsAreNeighborsMinusAggressors) {
  const dram::Geometry geo;
  HammerParams p;  // Default base_row 1030: subarray-interior.
  p.pattern = HammerPattern::kDoubleSided;
  // Aggressors 1030/1032: neighbors 1029, 1031 (shared), 1033.
  EXPECT_EQ(hammer_victim_rows(p, geo),
            (std::vector<std::uint32_t>{1029, 1031, 1033}));
  p.pattern = HammerPattern::kManySided;
  p.sides = 3;
  // 1030/1032/1034: inter-aggressor rows plus the two flanks.
  EXPECT_EQ(hammer_victim_rows(p, geo),
            (std::vector<std::uint32_t>{1029, 1031, 1033, 1035}));
}

TEST(HammerTest, SubarrayBoundaryAggressorLosesOneVictim) {
  const dram::Geometry geo;
  HammerParams p;
  p.base_row = 1024;  // Starts subarray 2: no lower neighbor.
  p.pattern = HammerPattern::kDoubleSided;
  EXPECT_EQ(hammer_victim_rows(p, geo),
            (std::vector<std::uint32_t>{1025, 1027}));
}

TEST(HammerTest, TraceIsDependentLoadPlusFlushPerAggressorPerRound) {
  const dram::Geometry geo;
  const smc::LinearMapper mapper(geo);
  HammerParams p;
  p.pattern = HammerPattern::kDoubleSided;
  p.rounds = 5;
  const auto trace = make_hammer_trace(p, mapper);
  ASSERT_EQ(trace.size(), 5u * 2 * 2);  // rounds x aggressors x (load+flush).
  for (std::size_t i = 0; i < trace.size(); i += 2) {
    EXPECT_EQ(trace[i].op, cpu::Op::kLoadDependent);
    EXPECT_EQ(trace[i + 1].op, cpu::Op::kFlush);
    EXPECT_EQ(trace[i].addr(), trace[i + 1].addr());
    // Every access decodes to an aggressor row of bank 0.
    const dram::DramAddress a = mapper.to_dram(trace[i].addr());
    EXPECT_EQ(a.bank, p.bank);
    EXPECT_TRUE(a.row == 1030u || a.row == 1032u) << a.row;
  }
}

TEST(HammerTest, BlendSplicesWholeRoundsAndKeepsEveryRecord) {
  const dram::Geometry geo;
  const smc::LinearMapper mapper(geo);
  HammerParams p;
  p.pattern = HammerPattern::kDoubleSided;
  p.rounds = 10;
  std::vector<cpu::TraceRecord> background(37);
  for (auto& r : background) r.op = cpu::Op::kLoad;
  const auto blend = make_hammer_blend(p, mapper, background, 8);
  const auto hammer = make_hammer_trace(p, mapper);
  EXPECT_EQ(blend.size(), background.size() + hammer.size());
  // First burst lands right after the 8th background record and is one
  // full round (2 aggressors x load+flush).
  EXPECT_EQ(blend[8].op, cpu::Op::kLoadDependent);
  EXPECT_EQ(blend[9].op, cpu::Op::kFlush);
  EXPECT_EQ(blend[10].op, cpu::Op::kLoadDependent);
  EXPECT_EQ(blend[11].op, cpu::Op::kFlush);
  EXPECT_EQ(blend[12].op, cpu::Op::kLoad);  // Background resumes.
}

TEST(HammerTest, BlendRejectsRowCloneRecords) {
  // A burst could land between a kRowClone and its kRowCloneDst.
  const dram::Geometry geo;
  const smc::LinearMapper mapper(geo);
  HammerParams p;
  p.pattern = HammerPattern::kDoubleSided;
  p.rounds = 10;
  for (const cpu::Op op : {cpu::Op::kRowClone, cpu::Op::kRowCloneDst}) {
    std::vector<cpu::TraceRecord> background(37);
    background[7].op = op;
    EXPECT_THROW(make_hammer_blend(p, mapper, background, 8),
                 ContractViolation);
  }
}

// --------------------------------------------------------------------------
// STREAM / latency sweep kernels
// --------------------------------------------------------------------------

TEST(StreamSweepTest, RecordCountsExactAcrossTheWholeSweep) {
  // The count functions drive the generator's up-front reserve and the
  // scenario's bytes-moved accounting; pin them for every kernel x size.
  for (const StreamKernel k : kAllStreamKernels) {
    for (const std::uint64_t ws : sweep_working_sets(8 * 1024, 64 * 1024)) {
      StreamSweepParams p;
      p.kernel = k;
      p.working_set_bytes = ws;
      const auto t = make_stream_trace(p);
      EXPECT_EQ(t.size(), stream_record_count(p)) << to_string(k) << " " << ws;
      EXPECT_EQ(t.capacity(), stream_record_count(p))
          << to_string(k) << " " << ws << " reserve not applied";
      std::int64_t markers = 0;
      for (const auto& r : t) markers += r.op == cpu::Op::kMarker;
      EXPECT_EQ(markers, 2);
      EXPECT_EQ(t.back().op, cpu::Op::kMarker);
    }
  }
}

TEST(StreamSweepTest, KernelOpMixMatchesTheStreamDefinition) {
  // Copy/Scale: 1 load + 1 store per line; Add/Triad: 2 loads + 1 store.
  for (const StreamKernel k : kAllStreamKernels) {
    StreamSweepParams p;
    p.kernel = k;
    p.working_set_bytes = 12 * 1024;
    p.warm_passes = 0;
    p.measured_passes = 1;
    const auto t = make_stream_trace(p);
    const std::uint64_t lines = stream_lines_per_array(p);
    std::int64_t loads = 0, stores = 0;
    for (const auto& r : t) {
      loads += r.op == cpu::Op::kLoad;
      stores += r.op == cpu::Op::kStore;
    }
    const bool three_arrays = stream_array_count(k) == 3;
    EXPECT_EQ(loads, static_cast<std::int64_t>(lines * (three_arrays ? 2 : 1)))
        << to_string(k);
    EXPECT_EQ(stores, static_cast<std::int64_t>(lines)) << to_string(k);
    EXPECT_EQ(stream_bytes_per_pass(p), (loads + stores) * 64u);
  }
}

TEST(StreamSweepTest, ArraysAreDisjointAndLineAligned) {
  StreamSweepParams p;
  p.kernel = StreamKernel::kTriad;
  p.working_set_bytes = 24 * 1024;
  p.warm_passes = 0;
  p.measured_passes = 1;
  const std::uint64_t lines = stream_lines_per_array(p);
  std::set<std::uint64_t> touched;
  for (const auto& r : make_stream_trace(p)) {
    if (r.op == cpu::Op::kMarker) continue;
    EXPECT_EQ(r.addr() % 64, 0u);
    touched.insert(r.addr() / 64);
  }
  // 3 arrays x lines distinct cache lines, contiguous from base_addr.
  EXPECT_EQ(touched.size(), 3 * lines);
  EXPECT_EQ(*touched.begin(), 0u);
  EXPECT_EQ(*touched.rbegin(), 3 * lines - 1);
}

TEST(StreamSweepTest, Deterministic) {
  StreamSweepParams p;
  p.kernel = StreamKernel::kAdd;
  p.working_set_bytes = 12 * 1024;
  const auto a = make_stream_trace(p);
  const auto b = make_stream_trace(p);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].addr(), b[i].addr());
    EXPECT_EQ(a[i].op, b[i].op);
  }
}

TEST(LatencySweepTest, ChaseOrderIsOneSingleCycleCoveringEveryLine) {
  for (const std::uint64_t lines : {2ull, 3ull, 64ull, 1024ull}) {
    const auto next = latency_chase_order(lines, /*seed=*/0x17B);
    ASSERT_EQ(next.size(), lines);
    std::set<std::uint64_t> visited;
    std::uint64_t cur = 0;
    for (std::uint64_t i = 0; i < lines; ++i) {
      EXPECT_TRUE(visited.insert(cur).second) << "revisited " << cur;
      EXPECT_NE(next[cur], cur) << "fixed point at " << cur;
      cur = next[cur];
    }
    EXPECT_EQ(cur, 0u) << "cycle of length != lines";
    EXPECT_EQ(visited.size(), lines);
  }
}

TEST(LatencySweepTest, TraceCountsAndEveryLoadIsDependent) {
  LatencySweepParams p;
  p.working_set_bytes = 16 * 1024;
  const auto t = make_latency_trace(p);
  EXPECT_EQ(t.size(), latency_record_count(p));
  EXPECT_EQ(t.capacity(), latency_record_count(p));
  EXPECT_EQ(latency_loads_per_pass(p), (16u * 1024) / 64);
  std::int64_t markers = 0;
  for (const auto& r : t) {
    if (r.op == cpu::Op::kMarker) {
      ++markers;
      continue;
    }
    EXPECT_EQ(r.op, cpu::Op::kLoadDependent);
    EXPECT_EQ(r.addr() % 64, 0u);
  }
  EXPECT_EQ(markers, 2);
}

TEST(LatencySweepTest, SeedDeterminesTheChaseOrder) {
  LatencySweepParams p;
  p.working_set_bytes = 8 * 1024;
  const auto a = make_latency_trace(p);
  const auto b = make_latency_trace(p);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].addr(), b[i].addr());
  }

  LatencySweepParams q = p;
  q.seed = p.seed + 1;
  const auto c = make_latency_trace(q);
  ASSERT_EQ(a.size(), c.size());
  bool any_different = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    any_different = any_different || a[i].addr() != c[i].addr();
  }
  EXPECT_TRUE(any_different);
}

TEST(SweepWorkingSetsTest, EightPointsSpanningTheTransitions) {
  const auto sizes = sweep_working_sets(8 * 1024, 64 * 1024);
  EXPECT_EQ(sizes, (std::vector<std::uint64_t>{
                       4 * 1024, 8 * 1024, 16 * 1024, 32 * 1024, 64 * 1024,
                       128 * 1024, 256 * 1024, 512 * 1024}));
  // Strictly increasing: every point is a distinct sweep x-coordinate.
  for (std::size_t i = 1; i < sizes.size(); ++i) {
    EXPECT_LT(sizes[i - 1], sizes[i]);
  }
}

}  // namespace
}  // namespace easydram::workloads
