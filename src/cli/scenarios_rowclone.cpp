// RowClone scenarios: the Fig. 10 (No Flush) and Fig. 11 (CLFLUSH)
// Copy/Init speedup sweeps and the §7.1 bank-interleaving ablation.

#include <string>
#include <vector>

#include "cli/measure.hpp"
#include "cli/scenario.hpp"
#include "common/stats.hpp"
#include "smc/rowclone_alloc.hpp"

namespace easydram::cli {
namespace {

std::vector<std::uint64_t> sweep_sizes() {
  std::vector<std::uint64_t> sizes;
  for (std::uint64_t bytes = 8 * 1024; bytes <= 16ull * 1024 * 1024;
       bytes *= 2) {
    sizes.push_back(bytes);
  }
  return sizes;
}

/// The Fig. 10/11 sweep: Copy and Init speedups over 8 KiB .. 16 MiB on the
/// three evaluation stacks (EasyDRAM No-Time-Scaling, EasyDRAM Time
/// Scaling, Ramulator-2.0-like).
Json rowclone_sweep(const RunOptions& opts, bool clflush) {
  const std::vector<std::uint64_t> sizes = sweep_sizes();
  const workloads::CopyInitParams::Kind kinds[] = {
      workloads::CopyInitParams::Kind::kCopy,
      workloads::CopyInitParams::Kind::kInit};

  struct Point {
    double nts = 0, ts = 0, ram = 0;
  };
  // Points: Copy over every size, then Init over every size.
  const auto all = sweep(
      opts, 2 * sizes.size(), [&](std::uint64_t seed, std::size_t point) {
        const auto kind = kinds[point / sizes.size()];
        const std::uint64_t bytes = sizes[point % sizes.size()];
        const std::size_t rows = static_cast<std::size_t>(bytes / 8192);

        sys::SystemConfig nts = sys::pidram_no_time_scaling();
        nts.variation.seed = seed;
        sys::SystemConfig ts = sys::jetson_nano_time_scaling();
        ts.variation.seed = seed;

        Point p;
        p.nts = copyinit_speedup_easydram(nts, kind, rows, clflush);
        p.ts = copyinit_speedup_easydram(ts, kind, rows, clflush);
        p.ram = copyinit_speedup_ramulator(kind, rows, clflush);
        return p;
      });

  Json out = Json::object();
  for (std::size_t k = 0; k < 2; ++k) {
    Summary s_nts, s_ts, s_ram;
    Json rows = Json::array();
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      const Point& p = all.rep(0)[k * sizes.size() + i];
      s_nts.add(p.nts);
      s_ts.add(p.ts);
      s_ram.add(p.ram);
      Json j = Json::object();
      j["bytes"] = sizes[i];
      j["no_time_scaling"] = p.nts;
      j["time_scaling"] = p.ts;
      j["ramulator"] = p.ram;
      rows.push_back(std::move(j));
    }
    Json kind_json = Json::object();
    kind_json["points"] = std::move(rows);
    Json avg = Json::object();
    avg["no_time_scaling"] = s_nts.mean();
    avg["time_scaling"] = s_ts.mean();
    avg["ramulator"] = s_ram.mean();
    kind_json["average"] = std::move(avg);
    Json mx = Json::object();
    mx["no_time_scaling"] = s_nts.max();
    mx["time_scaling"] = s_ts.max();
    mx["ramulator"] = s_ram.max();
    kind_json["maximum"] = std::move(mx);
    out[k == 0 ? "copy" : "init"] = std::move(kind_json);
  }

  // Per-repetition aggregate: mean Time-Scaling speedup of each kind (the
  // paper's headline "avg" number), across the per-rep synthetic chips.
  for (std::size_t k = 0; k < 2; ++k) {
    out[k == 0 ? "copy_ts_mean_per_rep" : "init_ts_mean_per_rep"] =
        per_rep_json(all, [&](std::span<const Point> r) {
          Summary s;
          for (const Point& p : r.subspan(k * sizes.size(), sizes.size())) {
            s.add(p.ts);
          }
          return s.mean();
        });
  }

  return out;
}

Json run_fig10(const RunOptions& opts) { return rowclone_sweep(opts, false); }
Json run_fig11(const RunOptions& opts) { return rowclone_sweep(opts, true); }

/// The Fig. 10/11 tables: each kind's speedups per size, then their
/// average and maximum.
std::vector<TableSpec> rowclone_tables() {
  const std::vector<Column> points = {
      {"bytes", "Size (bytes)"},
      {"no_time_scaling", "EasyDRAM - No Time Scaling", 1},
      {"time_scaling", "EasyDRAM - Time Scaling", 2},
      {"ramulator", "Ramulator 2.0", 1}};
  const std::vector<Column> summary = {
      {"average.no_time_scaling", "avg NoTS", 1},
      {"average.time_scaling", "avg TS", 2},
      {"average.ramulator", "avg Ramulator", 1},
      {"maximum.no_time_scaling", "max NoTS", 1},
      {"maximum.time_scaling", "max TS", 2},
      {"maximum.ramulator", "max Ramulator", 1}};
  return {{"copy.points", points, "(a) Copy speedup (x)"},
          {"copy", summary},
          {"init.points", points, "(b) Init speedup (x)"},
          {"init", summary}};
}

// --- ablation_rowclone_interleaving ---------------------------------------

dram::VariationConfig strong_variation(std::uint64_t seed) {
  dram::VariationConfig v;
  v.seed = seed;
  v.min_trcd = Picoseconds{1000};
  v.max_trcd = Picoseconds{1001};
  v.rowclone_pair_success = 1.0;
  return v;
}

Json run_interleaving(const RunOptions& opts) {
  constexpr std::size_t kRows = 256;  // 2 MiB copy.
  struct Point {
    std::int64_t cycles = 0;
    double dram_busy_us = 0;
  };
  const auto all = sweep(opts, 2, [](std::uint64_t seed, std::size_t point) {
    const bool interleaved = point == 1;
    sys::SystemConfig cfg = sys::jetson_nano_time_scaling();
    cfg.variation = strong_variation(seed);
    sys::EasyDramSystem sysm(cfg);
    smc::RowClonePairTester tester(sysm.api(), 4);
    smc::RowCloneAllocator alloc(sysm.api(), sysm.clone_map(), tester);
    const auto plan = interleaved ? alloc.plan_copy_interleaved(kRows)
                                  : alloc.plan_copy(kRows);

    workloads::CopyInitParams params;
    params.kind = workloads::CopyInitParams::Kind::kCopy;
    params.use_rowclone = true;
    const smc::LinearMapper mapper(sysm.device().geometry());
    workloads::CopyInitTrace trace(params, mapper, plan, {});
    const cpu::RunResult r = sysm.run(trace);
    Point p;
    p.cycles = r.markers.size() >= 2 ? r.markers.back() - r.markers.front()
                                     : r.cycles;
    p.dram_busy_us = sysm.smc_stats().dram_busy.microseconds();
    return p;
  });

  Json rows = Json::array();
  for (std::size_t i = 0; i < 2; ++i) {
    const Point& p = all.rep(0)[i];
    const char* name = i == 1 ? "bank-interleaved" : "bank-sequential";
    Json j = Json::object();
    j["allocation"] = name;
    j["cycles"] = p.cycles;
    j["dram_busy_us"] = p.dram_busy_us;
    rows.push_back(std::move(j));
  }

  Json out = Json::object();
  out["rows_copied"] = kRows;
  out["allocations"] = std::move(rows);
  // Per-repetition aggregate: sequential-over-interleaved cycle ratio.
  out["seq_over_interleaved_per_rep"] =
      per_rep_json(all, [](std::span<const Point> r) {
        return static_cast<double>(r[0].cycles) /
               static_cast<double>(r[1].cycles);
      });
  return out;
}

}  // namespace

void register_rowclone_scenarios(ScenarioRegistry& r) {
  r.add({"fig10_rowclone_noflush",
         "RowClone Copy/Init speedup sweep, source data resident (No Flush)",
         "EasyDRAM (DSN 2025), Fig. 10", &run_fig10, rowclone_tables(),
         "Paper (Fig. 10) avg(max): Copy NoTS 306.7x(423.1x), TS 15.0x(17.4x),\n"
         "Ramulator 27.2x(33.0x); Init NoTS 36.7x(51.3x), TS 1.8x(2.0x),\n"
         "Ramulator 17.3x(21.0x). Shape to check: NoTS >> Ramulator > TS for\n"
         "Copy; the ~20x NoTS/TS skew; Ramulator Init >> TS Init (no fallback\n"
         "or per-operation software cost modeled in Ramulator)."});
  r.add({"fig11_rowclone_clflush",
         "RowClone Copy/Init speedup sweep with coherence flushes (CLFLUSH)",
         "EasyDRAM (DSN 2025), Fig. 11", &run_fig11, rowclone_tables(),
         "Paper (Fig. 11) avg(max): Copy TS 4.04x(6.62x), NoTS 3.1x(4.83x);\n"
         "Init degrades at small sizes (<=256KB TS, <=32KB NoTS) and improves\n"
         "with size. Shape to check: coherence flushes crush small-size\n"
         "benefits; speedups grow with data size."});
  r.add({"ablation_rowclone_interleaving",
         "RowClone bank interleaving vs sequential allocation (2 MiB copy)",
         "DESIGN.md ablation A4 (beyond the paper)", &run_interleaving,
         {{"allocations",
           {{"allocation", "allocation"},
            {"cycles", "cycles"},
            {"dram_busy_us", "DRAM busy (us)", 1}}}},
         "The single-issue MMIO trigger serializes operations, so\n"
         "interleaving mainly spreads activations; with a batched\n"
         "trigger interface it would overlap in-DRAM copies."});
}

}  // namespace easydram::cli
