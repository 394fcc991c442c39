#include "cli/measure.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <vector>

#include "common/stats.hpp"
#include "ramulator/ramulator.hpp"
#include "smc/rowclone_alloc.hpp"
#include "smc/trcd_profiler.hpp"
#include "workloads/builder.hpp"
#include "workloads/lmbench.hpp"
#include "workloads/polybench.hpp"

namespace easydram::cli {

void banner(const std::string& title, const std::string& paper_ref) {
  std::cout << "\n=== " << title << " ===\n"
            << "Reproduces: " << paper_ref << "\n\n";
}

std::string fmt_size(std::uint64_t bytes) {
  if (bytes >= (1u << 20)) return std::to_string(bytes >> 20) + "M";
  return std::to_string(bytes >> 10) + "K";
}

RepStats reduce_reps(std::span<const double> samples, int warmup) {
  if (warmup < 0) throw StatsError("reduce_reps: negative warmup");
  if (static_cast<std::size_t>(warmup) >= samples.size()) {
    throw StatsError("reduce_reps: no measured samples after warmup");
  }
  for (const double s : samples) {
    if (!std::isfinite(s) || s < 0.0) {
      throw StatsError("reduce_reps: non-finite or negative sample");
    }
  }
  const std::span<const double> measured = samples.subspan(
      static_cast<std::size_t>(warmup));

  RepStats r;
  r.warmup = warmup;
  r.measured = static_cast<int>(measured.size());
  r.best = *std::min_element(measured.begin(), measured.end());
  r.mean = mean(measured);
  r.median = p50(measured);
  r.p95 = p95(measured);
  r.stddev = stddev(measured);
  r.cv = r.median > 0.0 ? r.stddev / r.median : 0.0;
  return r;
}

CopyInitResult run_copyinit_easydram(const sys::SystemConfig& cfg,
                                     workloads::CopyInitParams params,
                                     std::size_t rows, int verify_trials) {
  sys::EasyDramSystem sysm(cfg);
  smc::RowClonePairTester tester(sysm.api(), verify_trials);
  smc::RowCloneAllocator alloc(sysm.api(), sysm.clone_map(), tester);

  std::vector<smc::CopyPlanEntry> copy_plan;
  std::vector<smc::InitPlanEntry> init_plan;
  if (params.kind == workloads::CopyInitParams::Kind::kCopy) {
    copy_plan = alloc.plan_copy(rows);
  } else {
    init_plan = alloc.plan_init(rows);
    // Pattern rows are initialized once at setup (uncharged): write the
    // init pattern into each reserved source row.
    std::vector<std::uint8_t> pattern(sysm.device().geometry().row_bytes, 0xA5);
    for (const auto& e : init_plan) {
      sysm.device().backdoor_write_row(e.pattern_src.bank, e.pattern_src.row,
                                       pattern);
    }
  }

  const smc::LinearMapper mapper(sysm.device().geometry());
  workloads::CopyInitTrace trace(params, mapper, std::move(copy_plan),
                                 std::move(init_plan));
  const cpu::RunResult r = sysm.run(trace);

  CopyInitResult out;
  out.rowclones = r.rowclones;
  out.fallbacks = r.rowclone_fallbacks;
  if (r.markers.size() >= 2) {
    out.measured_cycles = Cycles{r.markers.back() - r.markers.front()};
  } else {
    out.measured_cycles = Cycles{r.cycles};
  }
  return out;
}

double copyinit_speedup_easydram(const sys::SystemConfig& cfg,
                                 workloads::CopyInitParams::Kind kind,
                                 std::size_t rows, bool clflush) {
  workloads::CopyInitParams base;
  base.kind = kind;
  base.use_rowclone = false;
  base.clflush = clflush;
  const CopyInitResult cpu = run_copyinit_easydram(cfg, base, rows);

  workloads::CopyInitParams rc = base;
  rc.use_rowclone = true;
  const CopyInitResult rowclone = run_copyinit_easydram(cfg, rc, rows);

  return static_cast<double>(cpu.measured_cycles.count) /
         static_cast<double>(rowclone.measured_cycles.count);
}

double copyinit_speedup_ramulator(workloads::CopyInitParams::Kind kind,
                                  std::size_t rows, bool clflush) {
  // Ramulator 2.0's modelling gap (paper footnote 6): all pairs clone.
  std::vector<smc::CopyPlanEntry> copy_plan;
  std::vector<smc::InitPlanEntry> init_plan;
  for (std::size_t i = 0; i < rows; ++i) {
    if (kind == workloads::CopyInitParams::Kind::kCopy) {
      smc::CopyPlanEntry e;
      e.src = smc::RowRef{0, static_cast<std::uint32_t>(2 * i)};
      e.dst = smc::RowRef{0, static_cast<std::uint32_t>(2 * i + 1)};
      e.use_rowclone = true;
      copy_plan.push_back(e);
    } else {
      smc::InitPlanEntry e;
      e.dst = smc::RowRef{0, static_cast<std::uint32_t>(i)};
      e.pattern_src = smc::RowRef{0, 32767};
      e.use_rowclone = true;
      init_plan.push_back(e);
    }
  }
  const dram::Geometry geo;
  const smc::LinearMapper mapper(geo);

  auto run = [&](bool use_rowclone) {
    workloads::CopyInitParams p;
    p.kind = kind;
    p.use_rowclone = use_rowclone;
    p.clflush = clflush;
    workloads::CopyInitTrace trace(p, mapper, copy_plan, init_plan);
    ramulator::RamulatorSim sim{ramulator::RamulatorConfig{}};
    const auto stats = sim.run(trace);
    if (stats.markers.size() >= 2) {
      return stats.markers.back() - stats.markers.front();
    }
    return stats.cycles;
  };
  return static_cast<double>(run(false)) / static_cast<double>(run(true));
}

RequestBreakdown measure_request_breakdown(const sys::SystemConfig& cfg,
                                           double clock_hz) {
  sys::EasyDramSystem sysm(cfg);
  workloads::TraceBuilder b;
  constexpr int kPreamble = 100;
  b.compute(kPreamble);
  b.load_dependent(8192);
  cpu::VectorTrace trace(b.take());
  const cpu::RunResult r = sysm.run(trace);

  const double total_ns = static_cast<double>(r.cycles) / clock_hz * 1e9;
  const double processing_ns =
      static_cast<double>(kPreamble) /
      static_cast<double>(cfg.core.issue_width) / clock_hz * 1e9;
  const double memory_ns = sysm.smc_stats().dram_busy.nanoseconds();
  RequestBreakdown out;
  out.processing_ns = processing_ns;
  out.memory_ns = memory_ns;
  out.scheduling_ns = std::max(0.0, total_ns - processing_ns - memory_ns);
  return out;
}

double cycles_per_load(const sys::SystemConfig& cfg,
                       std::uint64_t buffer_bytes, std::uint64_t chase_seed) {
  sys::EasyDramSystem sysm(cfg);
  // Scale passes so cold misses do not dominate small buffers.
  const int passes = static_cast<int>(
      std::clamp<std::uint64_t>((8ull << 20) / buffer_bytes, 4, 128));
  auto records = workloads::make_lmbench_chase(buffer_bytes, passes,
                                               /*base_addr=*/0, chase_seed);
  cpu::VectorTrace trace(std::move(records));
  const cpu::RunResult r = sysm.run(trace);
  return static_cast<double>(r.cycles) / static_cast<double>(r.loads);
}

Cycles run_kernel_cycles(const sys::SystemConfig& cfg,
                         std::string_view kernel) {
  sys::EasyDramSystem sysm(cfg);
  auto records = workloads::generate_kernel(kernel);
  cpu::VectorTrace trace(std::move(records));
  return Cycles{sysm.run(trace).cycles};
}

namespace {

/// Rows per bank the workload's footprint can touch under the line-
/// interleaved mapping (footprint striped across all banks).
std::uint32_t footprint_rows_per_bank(const std::vector<cpu::TraceRecord>& trace,
                                      const dram::Geometry& geo) {
  std::uint64_t max_addr = 0;
  for (const auto& r : trace) max_addr = std::max(max_addr, r.addr());
  const std::uint64_t lines = max_addr / 64 + 1;
  const std::uint64_t per_bank = lines / geo.num_banks() + 1;
  return static_cast<std::uint32_t>(per_bank / geo.cols_per_row() + 2);
}

}  // namespace

TrcdSpeedup measure_trcd_speedup(std::string_view kernel, std::uint64_t seed) {
  const dram::Geometry geo;
  const auto trace_records = workloads::generate_kernel(kernel);
  const std::uint32_t rows = footprint_rows_per_bank(trace_records, geo);
  std::vector<std::uint32_t> banks(geo.num_banks());
  for (std::uint32_t b = 0; b < geo.num_banks(); ++b) banks[b] = b;

  // --- EasyDRAM: baseline vs Bloom-directed reduction, run to completion.
  auto make_cfg = [seed] {
    sys::SystemConfig cfg = sys::jetson_nano_time_scaling();
    cfg.mapping = smc::MappingKind::kLineInterleaved;
    cfg.variation.seed = seed;
    return cfg;
  };
  sys::EasyDramSystem base(make_cfg());
  cpu::SpanTrace t_base(trace_records);
  const auto r_base = base.run(t_base);

  sys::EasyDramSystem reduced(make_cfg());
  reduced.characterize_and_install_weak_rows(banks, rows, Picoseconds{9000},
                                             1 << 17, 4);
  cpu::SpanTrace t_red(trace_records);
  const auto r_red = reduced.run(t_red);

  TrcdSpeedup out;
  out.easy =
      static_cast<double>(r_base.cycles) / static_cast<double>(r_red.cycles);
  out.mpkc = 1000.0 * static_cast<double>(r_base.l2_misses) /
             static_cast<double>(r_base.cycles);

  // --- Ramulator: nominal vs profiled per-row tRCD (ground truth from
  // the same characterization; 500 M-instruction window).
  ramulator::RamulatorConfig rcfg;
  ramulator::RamulatorSim sim_base(rcfg);
  cpu::SpanTrace t_ram1(trace_records);
  const auto s_base = sim_base.run(t_ram1);

  ramulator::RamulatorConfig rcfg_red = rcfg;
  dram::VariationConfig vcfg;
  vcfg.seed = seed;
  const dram::VariationModel variation(geo, vcfg);
  rcfg_red.trcd_of = [&variation](std::uint32_t bank, std::uint32_t row) {
    return variation.row_min_trcd(bank, row) <= Picoseconds{9000}
               ? Picoseconds{9000}
               : Picoseconds{13500};
  };
  ramulator::RamulatorSim sim_red(rcfg_red);
  cpu::SpanTrace t_ram2(trace_records);
  const auto s_red = sim_red.run(t_ram2);
  out.ram =
      static_cast<double>(s_base.cycles) / static_cast<double>(s_red.cycles);
  return out;
}

SimSpeed measure_sim_speed(std::string_view kernel, std::uint64_t seed) {
  const auto records = workloads::generate_kernel(kernel);

  sys::SystemConfig cfg = sys::jetson_nano_time_scaling();
  cfg.variation.seed = seed;
  sys::EasyDramSystem sysm(cfg);
  cpu::SpanTrace t1(records);
  const auto r = sysm.run(t1);

  SimSpeed out;
  out.easy_mhz =
      static_cast<double>(r.cycles) / sysm.wall().seconds() / 1e6;

  ramulator::RamulatorSim sim{ramulator::RamulatorConfig{}};
  cpu::SpanTrace t2(records);
  const auto host_start = std::chrono::steady_clock::now();
  const auto s = sim.run(t2);
  const double host_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    host_start)
          .count();
  out.ram_mhz = static_cast<double>(s.cycles) / host_seconds / 1e6;
  out.ratio = out.easy_mhz / out.ram_mhz;
  return out;
}

}  // namespace easydram::cli
