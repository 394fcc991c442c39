// Google-benchmark microbenchmarks of the library's hot primitives. These
// do not reproduce a paper artifact; they guard the simulation-speed
// properties the end-to-end benches (especially Fig. 14) depend on.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "bender/interpreter.hpp"
#include "common/rng.hpp"
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
#include "sys/system.hpp"
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

/// The per-request submit-to-wait path with one read in flight, as in
/// e2ebench's chase workload: one channel under jetson_nano_time_scaling,
/// each read to a random line of 16 MiB issued when the previous one
/// completes. items/s is completed requests per second.
void BM_SubmitWaitDependentRead(benchmark::State& state) {
  sys::EasyDramSystem sysm(sys::jetson_nano_time_scaling());
  constexpr std::uint64_t kLines = (16u << 20) / 64;
  std::vector<std::uint64_t> addrs(1u << 16);
  Xoshiro256ss rng(1);
  for (std::uint64_t& a : addrs) a = rng.next_below(kLines) * 64;
  std::int64_t now = 100;
  std::size_t i = 0;
  for (auto _ : state) {
    const std::uint64_t id = sysm.submit_read(addrs[i++ & (addrs.size() - 1)], now);
    now = sysm.wait(id).release_cycle + 1;
  }
  benchmark::DoNotOptimize(now);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SubmitWaitDependentRead);

/// One e2ebench burst8 window per iteration: 4096 requests (3 reads to 1
/// write, half sequential lines, half random lines of 256 MiB) submitted
/// in full to 8 channel-interleaved channels with 512-deep FIFOs, then
/// waited on in id order. items/s is requests per second.
void BM_Burst8Window(benchmark::State& state) {
  sys::SystemConfig cfg = sys::jetson_nano_time_scaling();
  cfg.geometry.channels = 8;
  cfg.mapping = smc::MappingKind::kChannelInterleaved;
  cfg.tile.incoming_fifo_depth = 512;
  sys::EasyDramSystem sysm(cfg);

  struct Req {
    std::uint64_t addr;
    bool write;
  };
  constexpr std::size_t kWindow = 4096;
  constexpr std::uint64_t kLines = (256u << 20) / 64;
  std::vector<Req> reqs(8 * kWindow);
  Xoshiro256ss rng(1);
  std::uint64_t seq = rng.next_below(kLines);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const std::uint64_t line = i % 2 == 0 ? seq++ % kLines : rng.next_below(kLines);
    reqs[i] = {line * 64, rng.next_below(4) == 0};
  }
  std::vector<std::uint64_t> ids(kWindow);
  std::int64_t now = 100;
  std::size_t base = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < kWindow; ++i) {
      const Req& q = reqs[base + i];
      const auto at = now + static_cast<std::int64_t>(i);
      ids[i] = q.write ? sysm.submit_write(q.addr, at) : sysm.submit_read(q.addr, at);
    }
    now += static_cast<std::int64_t>(kWindow);
    for (const std::uint64_t id : ids) now = std::max(now, sysm.wait(id).release_cycle);
    base = (base + kWindow) % reqs.size();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kWindow));
}
BENCHMARK(BM_Burst8Window)->Unit(benchmark::kMillisecond);

/// The device's cell store through its backdoor: each iteration reads one
/// line and writes it to a second location. Arg 0 walks an 8 MiB row-major
/// copy from bank 0 to bank 1 (streaming, column fastest); arg 1 copies
/// between random lines of a 16 MiB region spread over every bank. items/s
/// is line operations (a read or a write) per second.
void BM_LineStoreBackdoor(benchmark::State& state) {
  const dram::Geometry geo;
  dram::DramDevice dev(geo, dram::ddr4_1333(), fast_variation());
  const bool random = state.range(0) != 0;
  const std::uint32_t cols = geo.cols_per_row();
  std::vector<std::array<dram::DramAddress, 2>> pairs(1u << 17);
  Xoshiro256ss rng(1);
  // Line x of the random region: bank in the low bits, then column, then row.
  const auto spread = [&](std::uint64_t x) {
    return dram::DramAddress{static_cast<std::uint32_t>(x % 16),
                             static_cast<std::uint32_t>(x / 16 / cols),
                             static_cast<std::uint32_t>(x / 16 % cols)};
  };
  for (std::uint32_t i = 0; i < pairs.size(); ++i) {
    if (random) {
      constexpr std::uint64_t kRegionLines = (16u << 20) / 64;
      pairs[i] = {spread(rng.next_below(kRegionLines)),
                  spread(rng.next_below(kRegionLines))};
    } else {
      const dram::DramAddress src{0, i / cols, i % cols};
      pairs[i] = {src, dram::DramAddress{1, src.row, src.col}};
    }
    std::array<std::uint8_t, 64> line{};
    line[0] = static_cast<std::uint8_t>(i);
    dev.backdoor_write(pairs[i][0], line);
  }
  std::array<std::uint8_t, 64> buf{};
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [src, dst] = pairs[i++ & (pairs.size() - 1)];
    dev.backdoor_read(src, buf);
    dev.backdoor_write(dst, buf);
  }
  benchmark::DoNotOptimize(buf);
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_LineStoreBackdoor)->ArgName("random")->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
