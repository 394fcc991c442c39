// RowClone scenarios: the Fig. 10 (No Flush) and Fig. 11 (CLFLUSH)
// Copy/Init speedup sweeps and the §7.1 bank-interleaving ablation.

#include <iostream>
#include <string>
#include <vector>

#include "cli/measure.hpp"
#include "cli/scenario.hpp"
#include "cli/thread_pool.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
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
  const std::size_t per_rep = 2 * sizes.size();
  ThreadPool pool(opts.threads);
  const auto all = parallel_map(
      pool, static_cast<std::size_t>(opts.iters) * per_rep,
      [&](std::size_t task) {
        const std::size_t rep = task / per_rep;
        const std::size_t in_rep = task % per_rep;
        const auto kind = kinds[in_rep / sizes.size()];
        const std::uint64_t bytes = sizes[in_rep % sizes.size()];
        const std::size_t rows = static_cast<std::size_t>(bytes / 8192);
        const std::uint64_t seed = rep_seed(opts, static_cast<int>(rep));

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
    const bool is_copy = k == 0;
    TextTable t;
    t.set_header({"Size", "EasyDRAM - No Time Scaling",
                  "EasyDRAM - Time Scaling", "Ramulator 2.0"});
    Summary s_nts, s_ts, s_ram;
    Json rows = Json::array();
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      const Point& p = all[k * sizes.size() + i];  // Repetition 0.
      s_nts.add(p.nts);
      s_ts.add(p.ts);
      s_ram.add(p.ram);
      t.add_row({fmt_size(sizes[i]), fmt_fixed(p.nts, 1) + "x",
                 fmt_fixed(p.ts, 2) + "x", fmt_fixed(p.ram, 1) + "x"});
      Json j = Json::object();
      j["bytes"] = sizes[i];
      j["no_time_scaling"] = p.nts;
      j["time_scaling"] = p.ts;
      j["ramulator"] = p.ram;
      rows.push_back(std::move(j));
    }
    t.add_row({"average", fmt_fixed(s_nts.mean(), 1) + "x",
               fmt_fixed(s_ts.mean(), 2) + "x", fmt_fixed(s_ram.mean(), 1) + "x"});
    t.add_row({"maximum", fmt_fixed(s_nts.max(), 1) + "x",
               fmt_fixed(s_ts.max(), 2) + "x", fmt_fixed(s_ram.max(), 1) + "x"});

    if (opts.verbose) {
      std::cout << (is_copy ? "(a) Copy\n" : "(b) Init\n");
      t.print(std::cout);
      std::cout << '\n';
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
    out[is_copy ? "copy" : "init"] = std::move(kind_json);
  }

  // Per-repetition aggregate: mean Time-Scaling speedup of each kind (the
  // paper's headline "avg" number), across the per-rep synthetic chips.
  for (std::size_t k = 0; k < 2; ++k) {
    std::vector<double> ts_mean;
    for (int rep = 0; rep < opts.iters; ++rep) {
      Summary s;
      for (std::size_t i = 0; i < sizes.size(); ++i) {
        s.add(all[static_cast<std::size_t>(rep) * per_rep + k * sizes.size() + i]
                  .ts);
      }
      ts_mean.push_back(s.mean());
    }
    out[k == 0 ? "copy_ts_mean_per_rep" : "init_ts_mean_per_rep"] =
        rep_metric_json(ts_mean);
  }

  if (opts.verbose) {
    if (!clflush) {
      std::cout
          << "Paper (Fig. 10) avg(max): Copy NoTS 306.7x(423.1x), TS 15.0x(17.4x),\n"
             "Ramulator 27.2x(33.0x); Init NoTS 36.7x(51.3x), TS 1.8x(2.0x),\n"
             "Ramulator 17.3x(21.0x). Shape to check: NoTS >> Ramulator > TS for\n"
             "Copy; the ~20x NoTS/TS skew; Ramulator Init >> TS Init (no fallback\n"
             "or per-operation software cost modeled in Ramulator).\n";
    } else {
      std::cout
          << "Paper (Fig. 11) avg(max): Copy TS 4.04x(6.62x), NoTS 3.1x(4.83x);\n"
             "Init degrades at small sizes (<=256KB TS, <=32KB NoTS) and improves\n"
             "with size. Shape to check: coherence flushes crush small-size\n"
             "benefits; speedups grow with data size.\n";
    }
  }
  return out;
}

Json run_fig10(const RunOptions& opts) { return rowclone_sweep(opts, false); }
Json run_fig11(const RunOptions& opts) { return rowclone_sweep(opts, true); }

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
  ThreadPool pool(opts.threads);
  const auto all = parallel_map(
      pool, static_cast<std::size_t>(opts.iters) * 2, [&](std::size_t task) {
        const bool interleaved = task % 2 == 1;
        const std::uint64_t seed =
            rep_seed(opts, static_cast<int>(task / 2));
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

  TextTable t;
  t.set_header({"allocation", "cycles", "DRAM busy (us)"});
  Json rows = Json::array();
  for (std::size_t i = 0; i < 2; ++i) {
    const Point& p = all[i];  // Repetition 0.
    const char* name = i == 1 ? "bank-interleaved" : "bank-sequential";
    t.add_row({name, std::to_string(p.cycles), fmt_fixed(p.dram_busy_us, 1)});
    Json j = Json::object();
    j["allocation"] = name;
    j["cycles"] = p.cycles;
    j["dram_busy_us"] = p.dram_busy_us;
    rows.push_back(std::move(j));
  }
  if (opts.verbose) {
    t.print(std::cout);
    std::cout << "\n(The single-issue MMIO trigger serializes operations, so\n"
                 "interleaving mainly spreads activations; with a batched\n"
                 "trigger interface it would overlap in-DRAM copies.)\n";
  }

  Json out = Json::object();
  out["rows_copied"] = kRows;
  out["allocations"] = std::move(rows);
  // Per-repetition aggregate: sequential-over-interleaved cycle ratio.
  std::vector<double> ratios;
  for (int rep = 0; rep < opts.iters; ++rep) {
    const Point& seq = all[static_cast<std::size_t>(rep) * 2];
    const Point& inter = all[static_cast<std::size_t>(rep) * 2 + 1];
    ratios.push_back(static_cast<double>(seq.cycles) /
                     static_cast<double>(inter.cycles));
  }
  out["seq_over_interleaved_per_rep"] = rep_metric_json(ratios);
  return out;
}

}  // namespace

void register_rowclone_scenarios(ScenarioRegistry& r) {
  r.add({"fig10_rowclone_noflush",
         "RowClone Copy/Init speedup sweep, source data resident (No Flush)",
         "EasyDRAM (DSN 2025), Fig. 10", &run_fig10});
  r.add({"fig11_rowclone_clflush",
         "RowClone Copy/Init speedup sweep with coherence flushes (CLFLUSH)",
         "EasyDRAM (DSN 2025), Fig. 11", &run_fig11});
  r.add({"ablation_rowclone_interleaving",
         "RowClone bank interleaving vs sequential allocation (2 MiB copy)",
         "DESIGN.md ablation A4 (beyond the paper)", &run_interleaving});
}

}  // namespace easydram::cli
