// Validation and ablation scenarios: the §6 time-scaling validation study
// and the DESIGN.md ablations (row-batch draining, scheduling policy,
// software vs hardware memory controller).

#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cli/measure.hpp"
#include "cli/scenario.hpp"
#include "common/stats.hpp"
#include "smc/scheduler.hpp"
#include "workloads/lmbench.hpp"
#include "workloads/polybench.hpp"

namespace easydram::cli {
namespace {

// --- validation_timescale -------------------------------------------------

Json run_validation(const RunOptions& opts) {
  struct Entry {
    std::string name;
    std::vector<cpu::TraceRecord> (*polybench)() = nullptr;  // Null = lmbench.
  };
  std::vector<Entry> entries;
  for (const auto& kernel : workloads::all_kernels()) {
    entries.push_back({std::string(kernel.name), kernel.generate});
  }
  entries.push_back({"lmbench-lat-mem-rd", nullptr});

  struct Point {
    std::int64_t ref_cycles = 0;
    std::int64_t ts_cycles = 0;
    double err_pct = 0;
  };
  const auto all =
      sweep(opts, entries.size(), [&](std::uint64_t seed, std::size_t point) {
        const Entry& e = entries[point];
        const std::vector<cpu::TraceRecord> records =
            e.polybench != nullptr ? e.polybench()
                                   : workloads::make_lmbench_chase(2 << 20, 4);

        sys::SystemConfig ts_cfg = sys::validation_time_scaling();
        ts_cfg.variation.seed = seed;
        sys::EasyDramSystem ts(ts_cfg);
        cpu::SpanTrace t1(records);
        const auto r_ts = ts.run(t1);

        sys::SystemConfig ref_cfg = sys::validation_reference();
        ref_cfg.variation.seed = seed;
        sys::EasyDramSystem ref(ref_cfg);
        cpu::SpanTrace t2(records);
        const auto r_ref = ref.run(t2);

        Point p;
        p.ref_cycles = r_ref.cycles;
        p.ts_cycles = r_ts.cycles;
        p.err_pct = 100.0 *
                    std::abs(static_cast<double>(r_ts.cycles - r_ref.cycles)) /
                    static_cast<double>(r_ref.cycles);
        return p;
      });

  Summary err_summary;
  std::vector<double> errors;
  Json rows = Json::array();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Point& p = all.rep(0)[i];
    err_summary.add(p.err_pct);
    errors.push_back(p.err_pct);
    Json j = Json::object();
    j["workload"] = entries[i].name;
    j["reference_cycles"] = p.ref_cycles;
    j["time_scaled_cycles"] = p.ts_cycles;
    j["error_pct"] = p.err_pct;
    rows.push_back(std::move(j));
  }

  Json out = Json::object();
  out["workloads"] = std::move(rows);
  Json summary = Json::object();
  summary["error_pct_mean"] = err_summary.mean();
  summary["error_pct_max"] = err_summary.max();
  summary["error_pct_p50"] = p50(errors);
  summary["error_pct_p95"] = p95(errors);
  summary["paper_bound_avg_pct"] = 0.1;
  summary["paper_bound_max_pct"] = 1.0;
  // Per-repetition aggregate: the worst-case error of each rep's chip.
  summary["error_pct_max_per_rep"] =
      per_rep_json(all, [](std::span<const Point> r) {
        double worst = 0;
        for (const Point& p : r) worst = std::max(worst, p.err_pct);
        return worst;
      });
  out["summary"] = std::move(summary);
  return out;
}

// --- ablation_batch_limit -------------------------------------------------

Json run_batch_limit(const RunOptions& opts) {
  static constexpr std::size_t kLimits[] = {16, 4, 1};
  const auto all = sweep(
      opts, std::size(kLimits), [](std::uint64_t seed, std::size_t point) {
        sys::SystemConfig cfg = sys::jetson_nano_time_scaling();
        cfg.variation.seed = seed;
        cfg.row_batch_limit = kLimits[point];
        return run_kernel_cycles(cfg, "gesummv").count;
      });

  const auto base = static_cast<double>(all.rep(0)[0]);  // limit=16.
  Json rows = Json::array();
  for (std::size_t i = 0; i < std::size(kLimits); ++i) {
    const std::int64_t cycles = all.rep(0)[i];
    Json j = Json::object();
    j["row_batch_limit"] = kLimits[i];
    j["cycles"] = cycles;
    j["overhead_vs_16_pct"] =
        100.0 * (static_cast<double>(cycles) / base - 1.0);
    rows.push_back(std::move(j));
  }

  Json out = Json::object();
  out["workload"] = "gesummv";
  out["limits"] = std::move(rows);
  // Per-repetition aggregate: overhead of limit=1 over limit=16.
  out["overhead_limit1_pct_per_rep"] =
      per_rep_json(all, [](std::span<const std::int64_t> r) {
        return 100.0 *
               (static_cast<double>(r[2]) / static_cast<double>(r[0]) - 1.0);
      });
  return out;
}

// --- ablation_scheduler ---------------------------------------------------

Json run_scheduler(const RunOptions& opts) {
  struct Policy {
    const char* name;
    std::unique_ptr<smc::Scheduler> (*make)();
  };
  static constexpr Policy kPolicies[] = {
      {"FCFS",
       [] { return std::unique_ptr<smc::Scheduler>(new smc::FcfsScheduler()); }},
      {"FR-FCFS",
       [] {
         return std::unique_ptr<smc::Scheduler>(new smc::FrfcfsScheduler());
       }},
      {"PAR-BS(8)",
       [] {
         return std::unique_ptr<smc::Scheduler>(new smc::BatchScheduler(8));
       }},
      {"BLISS(4)",
       [] {
         return std::unique_ptr<smc::Scheduler>(new smc::BlacklistScheduler(4));
       }},
  };
  const auto all = sweep(
      opts, std::size(kPolicies), [](std::uint64_t seed, std::size_t point) {
        sys::SystemConfig cfg = sys::jetson_nano_time_scaling();
        cfg.variation.seed = seed;
        cfg.scheduler_factory = kPolicies[point].make;
        return run_kernel_cycles(cfg, "mvt").count;
      });

  Json rows = Json::array();
  for (std::size_t i = 0; i < std::size(kPolicies); ++i) {
    const std::int64_t cycles = all.rep(0)[i];
    Json j = Json::object();
    j["policy"] = kPolicies[i].name;
    j["cycles"] = cycles;
    rows.push_back(std::move(j));
  }

  Json out = Json::object();
  out["workload"] = "mvt";
  out["policies"] = std::move(rows);
  // Per-repetition aggregate: FCFS slowdown relative to FR-FCFS.
  out["fcfs_over_frfcfs_per_rep"] =
      per_rep_json(all, [](std::span<const std::int64_t> r) {
        return static_cast<double>(r[0]) / static_cast<double>(r[1]);
      });
  return out;
}

// --- ablation_hardware_mc -------------------------------------------------

Json run_hardware_mc(const RunOptions& opts) {
  const auto all = sweep(opts, 2, [](std::uint64_t seed, std::size_t point) {
    sys::SystemConfig cfg = sys::jetson_nano_time_scaling();
    cfg.variation.seed = seed;
    if (point == 1) {
      cfg.hardware_mc = true;
      cfg.mc_sched_latency = Cycles{8};
    }
    return run_kernel_cycles(cfg, "trisolv").count;
  });

  Json rows = Json::array();
  for (std::size_t i = 0; i < 2; ++i) {
    Json j = Json::object();
    j["controller"] = i == 0 ? "software" : "hardware";
    j["cycles"] = all.rep(0)[i];
    rows.push_back(std::move(j));
  }

  Json out = Json::object();
  out["workload"] = "trisolv";
  out["controllers"] = std::move(rows);
  // Per-repetition aggregate: software-over-hardware cycle ratio.
  out["software_over_hardware_per_rep"] =
      per_rep_json(all, [](std::span<const std::int64_t> r) {
        return static_cast<double>(r[0]) / static_cast<double>(r[1]);
      });
  return out;
}

}  // namespace

void register_validation_scenarios(ScenarioRegistry& r) {
  r.add({"validation_timescale",
         "Time-scaling validation: 28 PolyBench kernels + lmbench, error vs "
         "a 1 GHz reference",
         "EasyDRAM (DSN 2025), Section 6", &run_validation,
         {{"workloads",
           {{"workload", "Workload"},
            {"reference_cycles", "Reference 1GHz (cycles)"},
            {"time_scaled_cycles", "TS 100MHz->1GHz (cycles)"},
            {"error_pct", "Error (%)", 4}}},
          {"summary",
           {{"error_pct_mean", "mean error (%)", 4},
            {"paper_bound_avg_pct", "paper bound"},
            {"error_pct_max", "max error (%)", 4},
            {"paper_bound_max_pct", "paper bound"}}}},
         "Paper: time scaling keeps the average error below 0.1% and the\n"
         "maximum below 1% against the 1 GHz reference."});
  r.add({"ablation_batch_limit",
         "Row-hit batch draining limit sweep (gesummv cycles)",
         "DESIGN.md ablation A1 (beyond the paper)", &run_batch_limit,
         {{"limits",
           {{"row_batch_limit", "row_batch_limit"},
            {"cycles", "cycles"},
            {"overhead_vs_16_pct", "vs limit=16 (%)", 1}}}}});
  r.add({"ablation_scheduler",
         "Scheduling policy comparison: FCFS/FR-FCFS/PAR-BS/BLISS (mvt)",
         "DESIGN.md ablation A2 (beyond the paper)", &run_scheduler,
         {{"policies", {{"policy", "policy"}, {"cycles", "cycles"}}}}});
  r.add({"ablation_hardware_mc",
         "Software vs fixed-function hardware memory controller (trisolv)",
         "DESIGN.md ablation A3 (beyond the paper)", &run_hardware_mc,
         {{"controllers", {{"controller", "controller"}, {"cycles", "cycles"}}}},
         "software: the SMC's own cycles are charged; hardware: a fixed\n"
         "8-cycle scheduling pipeline."});
}

}  // namespace easydram::cli
