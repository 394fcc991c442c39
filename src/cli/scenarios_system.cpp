// System-level scenarios: the quickstart smoke run, the Fig. 2 request
// breakdown, the Fig. 8 latency profile, the Fig. 14 simulation-speed
// study, and the Table 1 platform comparison.

#include <array>
#include <cmath>
#include <string>
#include <vector>

#include "cli/measure.hpp"
#include "cli/scenario.hpp"
#include "common/stats.hpp"
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

  Json rep_list = Json::array();
  for (int i = 0; i < reps.reps(); ++i) {
    const Rep& r = reps.rep(i)[0];
    Json j = Json::object();
    j["seed"] = r.seed;
    j["read_latency_cycles"] = r.read_latency;
    j["chase_cycles_per_load"] = r.chase_cpl;
    rep_list.push_back(std::move(j));
  }

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
  for (std::size_t which = 0; which < std::size(kConfigs); ++which) {
    const RequestBreakdown& b = all.rep(0)[which];
    Json j = Json::object();
    j["config"] = kConfigs[which].name;
    j["processing_ns"] = b.processing_ns;
    j["scheduling_ns"] = b.scheduling_ns;
    j["memory_ns"] = b.memory_ns;
    rows.push_back(std::move(j));
  }

  const auto [memory_constant, smc_stretches_sched, ts_restores] =
      shape_checks(all.rep(0));

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

  Json rows = Json::array();
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const Point& p = all.rep(0)[i];
    Json j = Json::object();
    j["bytes"] = sizes[i];
    j["no_time_scaling"] = p.nts;
    j["time_scaling"] = p.ts;
    j["cortex_a57"] = p.a57;
    rows.push_back(std::move(j));
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

  Json rows = Json::array();
  std::vector<double> ratios;
  for (std::size_t i = 0; i < names.size(); ++i) {
    const SimSpeed& s = all.rep(0)[i];
    ratios.push_back(s.ratio);
    Json j = Json::object();
    j["workload"] = names[i];
    j["easydram_mhz"] = s.easy_mhz;
    j["ramulator_mhz"] = s.ram_mhz;
    j["ratio"] = s.ratio;
    rows.push_back(std::move(j));
  }
  const double geo = geomean(ratios, GeomeanPolicy::kSkipNonPositive);

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
         "EasyDRAM (DSN 2025), Listing 1 shape", &run_quickstart,
         {{"reps",
           {{"seed", "seed"},
            {"read_latency_cycles", "read latency (cycles)"},
            {"chase_cycles_per_load", "64K chase (cycles/load)"}}}}});
  r.add({"fig2_breakdown",
         "Memory-request time breakdown across four system configurations",
         "EasyDRAM (DSN 2025), Fig. 2", &run_fig2,
         {{"configs",
           {{"config", "Configuration"},
            {"processing_ns", "Processing (ns)", 1},
            {"scheduling_ns", "Scheduling (ns)", 1},
            {"memory_ns", "Main memory (ns)", 1}}},
          {"checks",
           {{"memory_constant", "memory constant"},
            {"smc_stretches_scheduling", "SMC stretches scheduling"},
            {"ts_restores_processing", "TS restores processing"}}}},
         "Expected shape (paper Fig. 2): FPGA configs stretch\n"
         "processing; the software MC stretches scheduling; main\n"
         "memory stays constant; time scaling restores the real\n"
         "system's proportions on the emulated timeline."});
  r.add({"fig8_latency_profile",
         "lmbench cycles-per-load profile over 1 KiB .. 16 MiB buffers",
         "EasyDRAM (DSN 2025), Fig. 8", &run_fig8,
         {{"points",
           {{"bytes", "Size (bytes)"},
            {"no_time_scaling", "EasyDRAM - No Time Scaling", 1},
            {"time_scaling", "EasyDRAM - Time Scaling", 1},
            {"cortex_a57", "Cortex A57 (2 MiB L2)", 1}}}},
         "Expected shape (paper Fig. 8): the No-Time-Scaling curve\n"
         "shows a much lower main-memory plateau (few tens of cycles at\n"
         "50 MHz); Time Scaling tracks the Cortex A57 profile, with the\n"
         "L2->memory transition at 512 KiB instead of 2 MiB because the\n"
         "EasyDRAM build has a smaller L2 (noted in the paper)."});
  r.add({"fig14_sim_speed",
         "Simulation speed (MHz) of EasyDRAM vs the Ramulator-2.0 baseline",
         "EasyDRAM (DSN 2025), Fig. 14", &run_fig14,
         {{"workloads",
           {{"workload", "Workload"},
            {"easydram_mhz", "EasyDRAM (MHz)"},
            {"ramulator_mhz", "Ramulator 2.0 (MHz)"},
            {"ratio", "Ratio", 1}}},
          {"",
           {{"ratio_geomean", "ratio geomean", 1},
            {"ratio.mean", "ratio mean", 1},
            {"ratio.p95", "ratio p95", 1}}}},
         "Paper: EasyDRAM averages 5.9x (max 20.3x) faster than\n"
         "Ramulator 2.0, with the gap growing as memory intensity falls\n"
         "(durbin, ~0.01 LLC MPKC, shows the maximum). Note: the Ramulator\n"
         "column depends on host CPU speed; the EasyDRAM column is a\n"
         "deterministic model output. The host-speed overhaul made this\n"
         "repository's Ramulator baseline itself ~2.5x faster, so measured\n"
         "ratios here are smaller than the paper's (and than pre-overhaul\n"
         "runs) by exactly that baseline speedup — a host artifact, not a\n"
         "model change."});
  r.add({"table1_platforms",
         "Platform comparison with this reproduction's measured speed",
         "EasyDRAM (DSN 2025), Table 1", &run_table1,
         {{"",
           {{"workload", "workload"},
            {"eval_cycles_per_second", "evaluated cycles/s", 0},
            {"paper_reference_cycles_per_second", "paper (cycles/s)", 0}}}},
         "Evaluated cycles/s = emulated cycles per modelled-FPGA second.\n"
         "Paper Table 1 (real DRAM / flexible MC / eval. CPU cycles/s /\n"
         "accurate perf. / easily configurable):\n"
         "  Commercial systems      yes     no           billions     yes  no\n"
         "  Software simulators     no      yes (C/C++)  ~10K - ~1M   yes  yes\n"
         "  FPGA-based simulators   no      no           ~4M - ~100M  yes  yes\n"
         "  DRAM testing platforms  DDR3/4  no           N/A          no   no\n"
         "  FPGA-based emulators    DDR3/4  HDL          50M - 200M   no   yes\n"
         "  EasyDRAM                DDR4    yes (C/C++)  ~10M         yes  yes"});
}

}  // namespace easydram::cli
