// Google-benchmark microbenchmarks of the library's hot primitives. These
// do not reproduce a paper artifact; they guard the simulation-speed
// properties the end-to-end benches (especially Fig. 14) depend on.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "bender/interpreter.hpp"
#include "common/units.hpp"
#include "cpu/backend.hpp"
#include "cpu/cache.hpp"
#include "cpu/core.hpp"
#include "cpu/presets.hpp"
#include "cpu/trace.hpp"
#include "dram/device.hpp"
#include "smc/addr_map.hpp"
#include "smc/bloom.hpp"
#include "smc/scheduler.hpp"
#include "workloads/polybench.hpp"

namespace {

using namespace easydram;
using namespace easydram::literals;

dram::VariationConfig fast_variation() {
  dram::VariationConfig v;
  v.min_trcd = Picoseconds{1000};
  v.max_trcd = Picoseconds{1001};
  return v;
}

void BM_DeviceActReadPre(benchmark::State& state) {
  dram::DramDevice dev(dram::Geometry{}, dram::ddr4_1333(), fast_variation());
  Picoseconds t{0};
  std::uint32_t row = 0;
  for (auto _ : state) {
    dev.issue(dram::Command::kAct, {0, row, 0}, dev.earliest_legal(dram::Command::kAct, {0, row, 0}));
    dev.issue(dram::Command::kRead, {0, row, 0}, dev.earliest_legal(dram::Command::kRead, {0, row, 0}));
    dev.issue(dram::Command::kPre, {0, 0, 0}, dev.earliest_legal(dram::Command::kPre, {0, 0, 0}));
    row = (row + 1) % 1024;
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(state.iterations() * 3);
}
BENCHMARK(BM_DeviceActReadPre);

void BM_VariationRowMinTrcd(benchmark::State& state) {
  const dram::Geometry geo;
  const dram::VariationModel model(geo, dram::VariationConfig{});
  std::uint32_t row = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.row_min_trcd(row % 16, row % 32768));
    ++row;
  }
}
BENCHMARK(BM_VariationRowMinTrcd);

void BM_BenderBatchExecute(benchmark::State& state) {
  dram::DramDevice dev(dram::Geometry{}, dram::ddr4_1333(), fast_variation());
  bender::Interpreter interp(dev);
  bender::Program p;
  p.ddr(dram::Command::kAct, {0, 1, 0});
  for (std::uint32_t c = 0; c < 8; ++c) p.ddr(dram::Command::kRead, {0, 1, c}, true);
  p.ddr(dram::Command::kPre, {0, 0, 0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(interp.execute(p, dev.now()));
  }
  state.SetItemsProcessed(state.iterations() * 10);
}
BENCHMARK(BM_BenderBatchExecute);

void BM_CacheAccessHit(benchmark::State& state) {
  cpu::Cache cache(cpu::CacheConfig{512 * 1024, 8, 64});
  for (std::uint64_t i = 0; i < 512; ++i) cache.fill(i * 64);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access((i % 512) * 64));
    ++i;
  }
}
BENCHMARK(BM_CacheAccessHit);

/// Answers every request at once, so a replay measures the core and its
/// caches alone.
class NullBackend final : public cpu::MemoryBackend {
 public:
  std::uint64_t submit_read(std::uint64_t, std::int64_t) override { return ++id_; }
  std::uint64_t submit_write(std::uint64_t, std::int64_t) override { return ++id_; }
  std::uint64_t submit_rowclone(std::uint64_t, std::uint64_t, std::int64_t) override {
    return ++id_;
  }
  std::uint64_t submit_profile(std::uint64_t, Picoseconds, std::int64_t) override {
    return ++id_;
  }
  cpu::Completion wait(std::uint64_t) override { return cpu::Completion{}; }

 private:
  std::uint64_t id_ = 0;
};

/// One PolyBench kernel (trisolv, 0.8 M records) replayed through the core
/// model; items/s is trace records per second of wall time, since the
/// core's cache filter runs on a helper thread.
void BM_CoreReplay(benchmark::State& state) {
  const std::vector<cpu::TraceRecord> records = workloads::generate_kernel("trisolv");
  for (auto _ : state) {
    cpu::Core core(cpu::cortex_a57_core(), cpu::easydram_caches());
    NullBackend mem;
    cpu::SpanTrace trace(records);
    benchmark::DoNotOptimize(core.run(trace, mem));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_CoreReplay)->Unit(benchmark::kMillisecond)->UseRealTime();

/// The core filter's cache work alone: one PolyBench kernel's loads and
/// stores (correlation, 93% L1 misses) run through the L1 and L2 of the
/// PolyBench system (easydram_caches) as cpu::Core's filter stage runs
/// them, with no pipeline and no memory system. items/s is trace records
/// per second.
void BM_CacheHierarchyReplay(benchmark::State& state) {
  const std::vector<cpu::TraceRecord> records =
      workloads::generate_kernel("correlation");
  const cpu::CacheHierConfig caches = cpu::easydram_caches();
  for (auto _ : state) {
    cpu::Cache l1(caches.l1);
    cpu::Cache l2(caches.l2);
    // Inclusive L1/L2 with write-allocate, as in the core: an L2 victim
    // back-invalidates L1 and a dirty L1 victim folds into L2.
    const auto fill_l1 = [&](std::uint64_t line, bool dirty) {
      const cpu::FillResult f = l1.fill(line, dirty);
      if (f.evicted && f.evicted_dirty) l2.mark_dirty(f.evicted_line);
    };
    for (const cpu::TraceRecord& rec : records) {
      const std::uint64_t line = rec.addr() & ~std::uint64_t{63};
      bool store = false;
      switch (rec.op) {
        case cpu::Op::kLoad:
        case cpu::Op::kLoadDependent:
          if (l1.access(line)) continue;
          break;
        case cpu::Op::kStore:
        case cpu::Op::kStoreStream:
          if (l1.access_store(line)) continue;
          store = true;
          break;
        default:
          continue;
      }
      if (!l2.access(line)) {
        const cpu::FillResult f = l2.fill(line);
        if (f.evicted) l1.flush(f.evicted_line);
      }
      fill_l1(line, store);
    }
    benchmark::DoNotOptimize(l2.misses());
    state.counters["l1_miss_ratio"] = static_cast<double>(l1.misses()) /
                                      static_cast<double>(l1.hits() + l1.misses());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_CacheHierarchyReplay)->Unit(benchmark::kMillisecond);

void BM_FrfcfsPick(benchmark::State& state) {
  smc::RequestTable table(32);
  for (std::uint32_t i = 0; i < 32; ++i) {
    smc::TableEntry e;
    e.dram_addr = dram::DramAddress{i % 16, i * 7 % 1024, 0};
    table.insert(std::move(e));
  }
  // Row 7 open in the even banks, odd banks closed: no entry hits, so
  // every pick walks all 32 entries.
  std::vector<std::uint64_t> open_rows(16, smc::BankStateView::kClosed);
  for (std::size_t bank = 0; bank < open_rows.size(); bank += 2) {
    open_rows[bank] = 7;
  }
  const smc::BankStateView banks(open_rows, 16);
  smc::FrfcfsScheduler sched;
  std::size_t scanned = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched.pick({table, banks}, scanned));
  }
}
BENCHMARK(BM_FrfcfsPick);

void BM_BloomQuery(benchmark::State& state) {
  smc::BloomFilter filter(1 << 17, 4);
  for (std::uint64_t k = 0; k < 5000; ++k) filter.insert(k * 13);
  std::uint64_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.maybe_contains(k++));
  }
}
BENCHMARK(BM_BloomQuery);

/// Operand stream for the conversion benches: a 64-bit LCG, shifted down
/// to realistic 40-bit magnitudes (hours of picoseconds, billions of cycles).
std::int64_t next_operand(std::uint64_t& state) {
  state = state * 6364136223846793005ull + 1442695040888963407ull;
  return static_cast<std::int64_t>(state >> 24);
}

void BM_FrequencyCyclesToPs(benchmark::State& state) {
  const Frequency f{state.range(0)};
  std::uint64_t lcg = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.cycles_to_ps(next_operand(lcg)));
  }
}
BENCHMARK(BM_FrequencyCyclesToPs)->Arg(100'000'000)->Arg(1'430'000'000);

void BM_PsToCyclesCeil(benchmark::State& state) {
  const Frequency f{1'430'000'000};
  std::uint64_t lcg = 1;
  for (auto _ : state) {
    const Picoseconds t{next_operand(lcg)};
    benchmark::DoNotOptimize(f.ps_to_cycles_ceil(t));
  }
}
BENCHMARK(BM_PsToCyclesCeil);

/// Random line addresses inside `geo`'s capacity.
std::vector<std::uint64_t> random_lines(const dram::Geometry& geo) {
  const std::uint64_t lines = geo.capacity_bytes() / 64;
  std::vector<std::uint64_t> addrs(4096);
  std::uint64_t lcg = 7;
  for (std::uint64_t& a : addrs) {
    a = static_cast<std::uint64_t>(next_operand(lcg)) % lines * 64;
  }
  return addrs;
}

template <typename Mapper>
void map_random_lines(benchmark::State& state, const dram::Geometry& geo) {
  const Mapper mapper(geo);
  const std::vector<std::uint64_t> addrs = random_lines(geo);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mapper.to_dram(addrs[i++ & (addrs.size() - 1)]));
  }
}

void BM_LinearMapperToDram(benchmark::State& state) {
  map_random_lines<smc::LinearMapper>(state, dram::Geometry{});
}
BENCHMARK(BM_LinearMapperToDram);

void BM_ChannelInterleavedToDram(benchmark::State& state) {
  dram::Geometry geo;
  geo.channels = 8;
  map_random_lines<smc::ChannelInterleavedMapper>(state, geo);
}
BENCHMARK(BM_ChannelInterleavedToDram);

}  // namespace

BENCHMARK_MAIN();
