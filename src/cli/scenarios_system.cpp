// System-level scenarios: the quickstart smoke run, the Fig. 2 request
// breakdown, the Fig. 8 latency profile, the Fig. 14 simulation-speed
// study, and the Table 1 platform comparison.

#include <array>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "cli/measure.hpp"
#include "cli/scenario.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "workloads/polybench.hpp"

namespace easydram::cli {
namespace {

sys::SystemConfig seeded_ts(std::uint64_t seed) {
  sys::SystemConfig cfg = sys::jetson_nano_time_scaling();
  cfg.variation.seed = seed;
  return cfg;
}

sys::SystemConfig seeded_nts(std::uint64_t seed) {
  sys::SystemConfig cfg = sys::pidram_no_time_scaling();
  cfg.variation.seed = seed;
  return cfg;
}

Json summary_json(std::span<const double> xs) {
  Json j = Json::object();
  j["mean"] = mean(xs);
  j["stddev"] = stddev(xs);
  j["p50"] = p50(xs);
  j["p95"] = p95(xs);
  return j;
}

// --- quickstart -----------------------------------------------------------

/// Tiny end-to-end smoke run (seconds, not minutes): one cold read served
/// through the full system plus a 64 KiB lmbench chase. This is the
/// scenario CI exercises to prove the binary works.
Json run_quickstart(const RunOptions& opts) {
  struct Rep {
    std::uint64_t seed = 0;
    std::int64_t read_latency = 0;
    double chase_cpl = 0;
  };
  const auto reps = sweep(opts, 1, [](std::uint64_t seed, std::size_t) {
    sys::EasyDramSystem sysm(seeded_ts(seed));
    std::array<std::uint8_t, 64> line{};
    for (std::size_t i = 0; i < line.size(); ++i) {
      line[i] = static_cast<std::uint8_t>(i);
    }
    const std::uint64_t paddr = 2 * 8192;  // Bank 0, row 2.
    sysm.device().backdoor_write(sysm.api().get_addr_mapping(paddr), line);
    const std::uint64_t id = sysm.submit_read(paddr, /*now=*/100);
    Rep r;
    r.seed = seed;
    r.read_latency = sysm.wait(id).release_cycle - 100;
    r.chase_cpl = cycles_per_load(seeded_ts(seed), 64 * 1024, seed);
    return r;
  });

  TextTable t;
  t.set_header({"rep", "read latency (cycles)", "64K chase (cycles/load)"});
  Json rep_list = Json::array();
  for (int i = 0; i < reps.reps(); ++i) {
    const Rep& r = reps.rep(i)[0];
    t.add_row({std::to_string(i), std::to_string(r.read_latency),
               fmt_fixed(r.chase_cpl, 2)});
    Json j = Json::object();
    j["seed"] = static_cast<std::int64_t>(r.seed);
    j["read_latency_cycles"] = r.read_latency;
    j["chase_cycles_per_load"] = r.chase_cpl;
    rep_list.push_back(std::move(j));
  }
  if (opts.verbose) t.print(std::cout);

  Json out = Json::object();
  out["reps"] = std::move(rep_list);
  out["read_latency_cycles"] = per_rep_json(reps, [](std::span<const Rep> r) {
    return static_cast<double>(r[0].read_latency);
  });
  out["chase_cycles_per_load"] = per_rep_json(
      reps, [](std::span<const Rep> r) { return r[0].chase_cpl; });
  return out;
}

// --- fig2_breakdown -------------------------------------------------------

Json run_fig2(const RunOptions& opts) {
  struct Config {
    const char* name;
    double clock_hz;
  };
  static constexpr Config kConfigs[] = {
      {"Real system", 1.43e9},
      {"FPGA + RTL memory controller", 50e6},
      {"FPGA + software memory controller", 50e6},
      {"FPGA + software MC + time scaling", 1.43e9},
  };

  auto make_cfg = [](std::size_t which, std::uint64_t seed) {
    switch (which) {
      case 0: {
        // Real system: GHz-class processor, hardware memory controller.
        sys::SystemConfig real = seeded_ts(seed);
        real.mode = timescale::SystemMode::kReference;
        real.proc_domain = timescale::DomainConfig{Frequency{1'430'000'000},
                                                   Frequency{1'430'000'000}};
        return real;
      }
      case 1: {
        // FPGA + RTL MC: slow processor, hardware-speed MC (PiDRAM-like
        // platform before adding a software controller).
        sys::SystemConfig fpga_rtl = seeded_nts(seed);
        fpga_rtl.mode = timescale::SystemMode::kReference;
        fpga_rtl.proc_domain = timescale::DomainConfig{
            Frequency::megahertz(50), Frequency::megahertz(50)};
        fpga_rtl.core = cpu::pidram_inorder_core();
        fpga_rtl.hardware_mc = true;
        fpga_rtl.mc_sched_latency = Cycles{2};  // Two stages at 50 MHz.
        return fpga_rtl;
      }
      case 2: return seeded_nts(seed);  // FPGA + software MC, no scaling.
      default: return seeded_ts(seed);  // FPGA + software MC + scaling.
    }
  };

  const auto all = sweep(
      opts, std::size(kConfigs), [&](std::uint64_t seed, std::size_t which) {
        return measure_request_breakdown(make_cfg(which, seed),
                                        kConfigs[which].clock_hz);
      });

  // The paper's three shape claims, evaluated on one repetition's configs.
  struct ShapeChecks {
    bool memory_constant, smc_stretches_sched, ts_restores;
  };
  auto shape_checks = [](std::span<const RequestBreakdown> b) {
    return ShapeChecks{
        std::abs(b[0].memory_ns - b[2].memory_ns) < 0.5 * b[0].memory_ns,
        b[2].scheduling_ns > 3.0 * b[1].scheduling_ns,
        std::abs(b[3].processing_ns - b[0].processing_ns) <
            0.2 * b[0].processing_ns};
  };

  Json rows = Json::array();
  TextTable t;
  t.set_header({"Configuration", "Processing (ns)", "Scheduling (ns)",
                "Main memory (ns)"});
  for (std::size_t which = 0; which < std::size(kConfigs); ++which) {
    const RequestBreakdown& b = all.rep(0)[which];
    t.add_row({kConfigs[which].name, fmt_fixed(b.processing_ns, 1),
               fmt_fixed(b.scheduling_ns, 1), fmt_fixed(b.memory_ns, 1)});
    Json j = Json::object();
    j["config"] = kConfigs[which].name;
    j["processing_ns"] = b.processing_ns;
    j["scheduling_ns"] = b.scheduling_ns;
    j["memory_ns"] = b.memory_ns;
    rows.push_back(std::move(j));
  }

  const auto [memory_constant, smc_stretches_sched, ts_restores] =
      shape_checks(all.rep(0));

  if (opts.verbose) {
    t.print(std::cout);
    std::cout << "\nExpected shape (paper Fig. 2): FPGA configs stretch\n"
                 "processing; the software MC stretches scheduling; main\n"
                 "memory stays constant; time scaling restores the real\n"
                 "system's proportions on the emulated timeline.\n";
    std::cout << "\nChecks: memory-constant=" << (memory_constant ? "yes" : "NO")
              << " smc-stretches-scheduling="
              << (smc_stretches_sched ? "yes" : "NO")
              << " ts-restores-processing=" << (ts_restores ? "yes" : "NO")
              << "\n";
  }

  Json out = Json::object();
  out["configs"] = std::move(rows);
  Json checks = Json::object();
  checks["memory_constant"] = memory_constant;
  checks["smc_stretches_scheduling"] = smc_stretches_sched;
  checks["ts_restores_processing"] = ts_restores;
  out["checks"] = std::move(checks);
  // Per-repetition aggregate: do the Fig. 2 shape checks hold on every
  // repetition's synthetic chip?
  Json rep_checks = Json::array();
  bool all_pass = true;
  for (int r = 0; r < all.reps(); ++r) {
    const ShapeChecks c = shape_checks(all.rep(r));
    const bool ok =
        c.memory_constant && c.smc_stretches_sched && c.ts_restores;
    all_pass = all_pass && ok;
    rep_checks.push_back(ok);
  }
  out["checks_per_rep"] = std::move(rep_checks);
  out["checks_all_reps_pass"] = all_pass;
  return out;
}

// --- fig8_latency_profile -------------------------------------------------

Json run_fig8(const RunOptions& opts) {
  std::vector<std::uint64_t> sizes;
  for (std::uint64_t kib = 1; kib <= 16 * 1024; kib *= 2) {
    sizes.push_back(kib * 1024);
  }

  struct Point {
    double nts = 0, ts = 0, a57 = 0;
  };
  const auto all = sweep(
      opts, sizes.size(), [&](std::uint64_t seed, std::size_t point) {
        const std::uint64_t bytes = sizes[point];

        // Real board: A57 at 1.43 GHz with the Jetson Nano's 2 MiB L2,
        // served by a hardware memory controller (reference mode).
        sys::SystemConfig a57 = seeded_ts(seed);
        a57.mode = timescale::SystemMode::kReference;
        a57.proc_domain = timescale::DomainConfig{Frequency{1'430'000'000},
                                                  Frequency{1'430'000'000}};
        a57.caches = cpu::jetson_nano_caches();

        Point p;
        p.nts = cycles_per_load(seeded_nts(seed), bytes);
        p.ts = cycles_per_load(seeded_ts(seed), bytes);
        p.a57 = cycles_per_load(a57, bytes);
        return p;
      });

  TextTable t;
  t.set_header({"Size (KiB)", "EasyDRAM - No Time Scaling",
                "EasyDRAM - Time Scaling", "Cortex A57 (2 MiB L2)"});
  Json rows = Json::array();
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const Point& p = all.rep(0)[i];
    t.add_row({std::to_string(sizes[i] / 1024), fmt_fixed(p.nts, 1),
               fmt_fixed(p.ts, 1), fmt_fixed(p.a57, 1)});
    Json j = Json::object();
    j["bytes"] = sizes[i];
    j["no_time_scaling"] = p.nts;
    j["time_scaling"] = p.ts;
    j["cortex_a57"] = p.a57;
    rows.push_back(std::move(j));
  }

  if (opts.verbose) {
    t.print(std::cout);
    std::cout
        << "\nExpected shape (paper Fig. 8): the No-Time-Scaling curve\n"
           "shows a much lower main-memory plateau (few tens of cycles at\n"
           "50 MHz); Time Scaling tracks the Cortex A57 profile, with the\n"
           "L2->memory transition at 512 KiB instead of 2 MiB because the\n"
           "EasyDRAM build has a smaller L2 (noted in the paper).\n";
  }

  Json out = Json::object();
  out["points"] = std::move(rows);
  // Per-repetition aggregate: the time-scaled main-memory plateau (largest
  // buffer), the number the paper's Fig. 8 comparison hinges on.
  out["plateau_time_scaling_per_rep"] = per_rep_json(
      all, [](std::span<const Point> r) { return r.back().ts; });
  return out;
}

// --- fig14_sim_speed ------------------------------------------------------

Json run_fig14(const RunOptions& opts) {
  const auto names = workloads::fig13_names();
  const auto all =
      sweep(opts, names.size(), [&](std::uint64_t seed, std::size_t point) {
        return measure_sim_speed(names[point], seed);
      });

  TextTable t;
  t.set_header({"Workload", "EasyDRAM (MHz)", "Ramulator 2.0 (MHz)", "Ratio"});
  Json rows = Json::array();
  std::vector<double> ratios;
  for (std::size_t i = 0; i < names.size(); ++i) {
    const SimSpeed& s = all.rep(0)[i];
    ratios.push_back(s.ratio);
    t.add_row({std::string(names[i]), fmt_fixed(s.easy_mhz, 2),
               fmt_fixed(s.ram_mhz, 2), fmt_fixed(s.ratio, 1) + "x"});
    Json j = Json::object();
    j["workload"] = names[i];
    j["easydram_mhz"] = s.easy_mhz;
    j["ramulator_mhz"] = s.ram_mhz;
    j["ratio"] = s.ratio;
    rows.push_back(std::move(j));
  }
  const double geo = geomean(ratios, GeomeanPolicy::kSkipNonPositive);
  t.add_row({"geomean", "", "", fmt_fixed(geo, 1) + "x"});

  if (opts.verbose) {
    t.print(std::cout);
    Summary s;
    for (double v : ratios) s.add(v);
    std::cout << "\nPaper: EasyDRAM averages 5.9x (max 20.3x) faster than\n"
                 "Ramulator 2.0, with the gap growing as memory intensity falls\n"
                 "(durbin, ~0.01 LLC MPKC, shows the maximum). Measured here:\n"
                 "avg " << fmt_fixed(s.mean(), 1) << "x, max "
              << fmt_fixed(s.max(), 1)
              << "x. Note: the Ramulator column depends on host CPU speed; the\n"
                 "EasyDRAM column is a deterministic model output. The host-\n"
                 "speed overhaul made this repository's Ramulator baseline\n"
                 "itself ~2.5x faster, so measured ratios here are smaller\n"
                 "than the paper's (and than pre-overhaul runs) by exactly\n"
                 "that baseline speedup — a host artifact, not a model change.\n";
  }

  Json out = Json::object();
  out["host_clock_dependent"] = true;  // Ramulator MHz reads the host clock.
  out["workloads"] = std::move(rows);
  out["ratio_geomean"] = geo;
  out["ratio"] = summary_json(ratios);
  // Per-repetition aggregate over the host-clock-dependent ratio geomean.
  out["ratio_geomean_per_rep"] =
      per_rep_json(all, [](std::span<const SimSpeed> r) {
        std::vector<double> rs;
        for (const SimSpeed& s : r) rs.push_back(s.ratio);
        return geomean(rs, GeomeanPolicy::kSkipNonPositive);
      });
  return out;
}

// --- table1_platforms -----------------------------------------------------

Json run_table1(const RunOptions& opts) {
  const auto speeds = sweep(opts, 1, [](std::uint64_t seed, std::size_t) {
    sys::EasyDramSystem sysm(seeded_ts(seed));
    auto records = workloads::generate_kernel("gemver");
    cpu::VectorTrace trace(std::move(records));
    const cpu::RunResult r = sysm.run(trace);
    return static_cast<double>(r.cycles) / sysm.wall().seconds();
  });
  const double speed_hz = speeds.rep(0)[0];

  if (opts.verbose) {
    TextTable t;
    t.set_header({"Platform", "Real DRAM", "Flexible MC", "Eval. CPU cycles/s",
                  "Accurate perf.", "Easily configurable"});
    t.add_row({"Commercial systems", "yes", "no", "billions", "yes", "no"});
    t.add_row({"Software simulators", "no", "yes (C/C++)", "~10K - ~1M", "yes",
               "yes"});
    t.add_row({"FPGA-based simulators", "no", "no", "~4M - ~100M", "yes", "yes"});
    t.add_row({"DRAM testing platforms", "DDR3/4", "no", "N/A", "no", "no"});
    t.add_row({"FPGA-based emulators", "DDR3/4", "HDL", "50M - 200M", "no",
               "yes"});
    t.add_row({"EasyDRAM (this repro)", "DDR4 (modelled)", "yes (C/C++)",
               fmt_fixed(speed_hz / 1e6, 1) + "M (measured)", "yes", "yes"});
    t.print(std::cout);
    std::cout << "\nPaper reports ~10M evaluated CPU cycles/s for EasyDRAM.\n"
              << "Measured here on gemver: " << fmt_fixed(speed_hz / 1e6, 2)
              << "M emulated cycles per modelled-FPGA second.\n";
  }

  Json out = Json::object();
  out["workload"] = "gemver";
  out["eval_cycles_per_second"] = speed_hz;
  out["eval_cycles_per_second_reps"] =
      per_rep_json(speeds, [](std::span<const double> r) { return r[0]; });
  out["paper_reference_cycles_per_second"] = 10e6;
  return out;
}

}  // namespace

void register_system_scenarios(ScenarioRegistry& r) {
  r.add({"quickstart",
         "2-second smoke run: one cold read + a 64 KiB pointer chase",
         "EasyDRAM (DSN 2025), Listing 1 shape", &run_quickstart});
  r.add({"fig2_breakdown",
         "Memory-request time breakdown across four system configurations",
         "EasyDRAM (DSN 2025), Fig. 2", &run_fig2});
  r.add({"fig8_latency_profile",
         "lmbench cycles-per-load profile over 1 KiB .. 16 MiB buffers",
         "EasyDRAM (DSN 2025), Fig. 8", &run_fig8});
  r.add({"fig14_sim_speed",
         "Simulation speed (MHz) of EasyDRAM vs the Ramulator-2.0 baseline",
         "EasyDRAM (DSN 2025), Fig. 14", &run_fig14});
  r.add({"table1_platforms",
         "Platform comparison with this reproduction's measured speed",
         "EasyDRAM (DSN 2025), Table 1", &run_table1});
}

}  // namespace easydram::cli
