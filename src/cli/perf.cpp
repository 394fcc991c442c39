// Host-performance harness: times the throughput-sensitive paths of the
// simulator on the *host* clock. Besides these, only fig14's Ramulator
// column and the repository benchmark (e2ebench/) read a real clock. The
// timings quantify how fast the simulation itself runs, not anything the
// paper models, and they exist so every change can diff
// BENCH_results.json against its predecessor.

#include "cli/perf.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ostream>
#include <span>
#include <stdexcept>
#include <thread>

#include "cli/measure.hpp"
#include "common/contracts.hpp"
#include "common/stats.hpp"
#include "sys/system.hpp"

namespace easydram::cli {
namespace {

std::int64_t scaled(const PerfOptions& opts, std::int64_t budget) {
  const auto n = static_cast<std::int64_t>(
      static_cast<double>(budget) * opts.scale);
  return std::max<std::int64_t>(n, 1);
}

sys::SystemConfig harness_config(const PerfOptions& opts) {
  sys::SystemConfig cfg = sys::jetson_nano_time_scaling();
  cfg.variation.seed = opts.run.seed;
  cfg.geometry.channels = opts.run.channels;
  cfg.geometry.ranks_per_channel = opts.run.ranks;
  cfg.mapping = opts.run.mapping;
  return cfg;
}

/// Drives `n` independent stride-64 requests straight into the memory
/// backend (no core model in the way) and waits for every completion —
/// the request-lifecycle hot path: submit, FIFO, request table, scheduler,
/// batch drain, response ring. Returns the requests driven.
std::int64_t micro_burst(const PerfOptions& opts, bool writes) {
  sys::EasyDramSystem sysm(harness_config(opts));
  const std::int64_t n = scaled(opts, 16384);
  std::vector<std::uint64_t> ids;
  ids.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const auto addr = static_cast<std::uint64_t>(i) * 64;
    const auto now = 100 + i;
    ids.push_back(writes ? sysm.submit_write(addr, now)
                         : sysm.submit_read(addr, now));
  }
  for (const std::uint64_t id : ids) sysm.wait(id);
  return n;
}

std::int64_t micro_read_burst(const PerfOptions& opts) {
  return micro_burst(opts, /*writes=*/false);
}

std::int64_t micro_write_burst(const PerfOptions& opts) {
  return micro_burst(opts, /*writes=*/true);
}

/// Dependent (pointer-chase-style) reads: one outstanding request at a
/// time, so per-request overhead — not batching — dominates. This is the
/// pattern the fig8/fig14 workloads drive through the core model.
std::int64_t micro_dependent_reads(const PerfOptions& opts) {
  sys::EasyDramSystem sysm(harness_config(opts));
  const std::int64_t n = scaled(opts, 4096);
  std::int64_t now = 100;
  for (std::int64_t i = 0; i < n; ++i) {
    // Stride one row (8 KiB) so every access opens a fresh row.
    const auto addr = static_cast<std::uint64_t>(i) * 8192;
    now = sysm.wait(sysm.submit_read(addr, now)).release_cycle + 1;
  }
  return n;
}

/// Scenario-wrapped benches: run the registered scenario and time the
/// whole run. `fig14_sim_speed` is the paper's simulation-speed study
/// (EasyDRAM model + Ramulator baseline, PolyBench kernels end to end);
/// `channel_scaling` sweeps the multi-channel subsystem, where most pumped
/// channels are idle and the idle-channel fast path pays off.
std::int64_t scenario_bench(std::string_view name, const PerfOptions& opts,
                            std::uint32_t channels) {
  const Scenario* s = ScenarioRegistry::instance().find(name);
  EASYDRAM_EXPECTS(s != nullptr);
  RunOptions run = opts.run;
  run.iters = 1;
  run.threads = 1;
  run.channels = std::max(run.channels, channels);
  run_scenario(*s, run);
  return 0;
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Host seconds of `reps` back-to-back calls of `fn`, one entry per call:
/// the timing loop every bench and detail sweep shares.
template <typename Fn>
std::vector<double> time_reps(int reps, Fn&& fn) {
  std::vector<double> secs;
  secs.reserve(static_cast<std::size_t>(std::max(reps, 0)));
  for (int rep = 0; rep < reps; ++rep) {
    const double t0 = now_seconds();
    fn();
    secs.push_back(now_seconds() - t0);
  }
  return secs;
}

Json to_json(std::span<const double> values) {
  Json a = Json::array();
  for (const double v : values) a.push_back(v);
  return a;
}

/// One variant of a detail sweep: times `opts.warmup` discarded plus
/// `opts.reps` measured calls of `fn`, reduced like the benches
/// themselves, and writes the series, best, median and CV into `out` under
/// keys starting with `prefix`. Returns the reduction.
template <typename Fn>
RepStats time_variant(const PerfOptions& opts, Json& out,
                      const std::string& prefix, Fn&& fn) {
  const std::vector<double> secs = time_reps(opts.warmup + opts.reps, fn);
  const RepStats r = reduce_reps(secs, opts.warmup);
  const std::span<const double> all(secs);
  const auto wu = static_cast<std::size_t>(opts.warmup);
  out[prefix + "warmup_host_seconds"] = to_json(all.first(wu));
  out[prefix + "host_seconds_per_rep"] = to_json(all.subspan(wu));
  out[prefix + "host_seconds_best"] = r.best;
  out[prefix + "host_seconds_median"] = r.median;
  out[prefix + "cv"] = r.cv;
  return r;
}

/// Error-pipeline host overhead: a stride-64 write-then-read burst with
/// SEC-DED ECC and patrol scrub enabled. The write half exercises the
/// encoder (check-bit fabrication per line), the read half the decoder and
/// the CE/UE classification; patrol scrub rides every refresh slot the run
/// consumes. `detail` re-times the identical burst with the pipeline
/// disabled (the default-off path every other bench measures) and reports
/// the relative overhead docs/bench.md tracks.
std::int64_t ecc_rw_burst(const PerfOptions& opts, bool ecc,
                          Picoseconds* wall = nullptr) {
  sys::SystemConfig cfg = harness_config(opts);
  cfg.ecc.enabled = ecc;
  cfg.ecc.scrub = ecc;
  sys::EasyDramSystem sysm(cfg);
  const std::int64_t n = scaled(opts, 8192);
  std::vector<std::uint64_t> ids;
  ids.reserve(static_cast<std::size_t>(2 * n));
  for (std::int64_t i = 0; i < n; ++i) {
    ids.push_back(
        sysm.submit_write(static_cast<std::uint64_t>(i) * 64, 100 + i));
  }
  for (std::int64_t i = 0; i < n; ++i) {
    ids.push_back(
        sysm.submit_read(static_cast<std::uint64_t>(i) * 64, 100 + n + i));
  }
  for (const std::uint64_t id : ids) sysm.wait(id);
  if (wall != nullptr) *wall = sysm.wall();
  return 2 * n;
}

std::int64_t ecc_scrub_overhead_run(const PerfOptions& opts) {
  return ecc_rw_burst(opts, /*ecc=*/true);
}

Json ecc_scrub_overhead_detail(const PerfOptions& opts) {
  Json d = Json::object();
  d["requests"] = 2 * scaled(opts, 8192);
  const double ecc_best =
      time_variant(opts, d, "ecc_", [&] { ecc_rw_burst(opts, true); }).best;
  const double base_best =
      time_variant(opts, d, "baseline_", [&] { ecc_rw_burst(opts, false); })
          .best;
  d["overhead_percent"] =
      base_best > 0.0 ? (ecc_best - base_best) / base_best * 100.0 : 0.0;
  // Modeled (emulated-time) cost of the pipeline — deterministic, unlike
  // the host timings: the extra emulated cycles ECC charges and scrub
  // slots add to the same burst.
  Picoseconds ecc_wall{};
  Picoseconds base_wall{};
  ecc_rw_burst(opts, /*ecc=*/true, &ecc_wall);
  ecc_rw_burst(opts, /*ecc=*/false, &base_wall);
  d["ecc_emulated_ps"] = ecc_wall.count;
  d["baseline_emulated_ps"] = base_wall.count;
  d["emulated_overhead_percent"] =
      base_wall.count > 0
          ? static_cast<double>(ecc_wall.count - base_wall.count) /
                static_cast<double>(base_wall.count) * 100.0
          : 0.0;
  return d;
}

/// QoS-scheduler host overhead: the same 4-stream tagged read burst driven
/// through each scheduling policy. Stream-aware policies walk the request
/// table with per-stream bookkeeping (blacklists, service ranks, cluster
/// windows) on every pick, and per-stream latency tracking is on — this
/// bench prices that host-side cost against the stock FR-FCFS pick loop.
std::int64_t qos_sched_burst(const PerfOptions& opts,
                             smc::SchedulerKind kind) {
  sys::SystemConfig cfg = harness_config(opts);
  cfg.sched = kind;
  cfg.track_stream_latency = true;
  sys::EasyDramSystem sysm(cfg);
  const std::int64_t n = scaled(opts, 16384);
  std::vector<std::uint64_t> ids;
  ids.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    sysm.set_stream(static_cast<std::uint32_t>(i % 4));
    ids.push_back(
        sysm.submit_read(static_cast<std::uint64_t>(i) * 64, 100 + i));
  }
  for (const std::uint64_t id : ids) sysm.wait(id);
  return n;
}

std::int64_t qos_scheduler_overhead_run(const PerfOptions& opts) {
  // Headline timing: TCM, the policy with the most per-pick bookkeeping.
  return qos_sched_burst(opts, smc::SchedulerKind::kTcm);
}

Json qos_scheduler_overhead_detail(const PerfOptions& opts) {
  Json d = Json::object();
  d["requests"] = scaled(opts, 16384);
  d["streams"] = 4;
  double frfcfs_best = 0.0;
  Json points = Json::array();
  for (const smc::SchedulerKind kind :
       {smc::SchedulerKind::kFrfcfs, smc::SchedulerKind::kParbs,
        smc::SchedulerKind::kBliss, smc::SchedulerKind::kAtlas,
        smc::SchedulerKind::kTcm}) {
    Json p = Json::object();
    p["sched"] = smc::to_string(kind);
    const RepStats r =
        time_variant(opts, p, "", [&] { qos_sched_burst(opts, kind); });
    if (kind == smc::SchedulerKind::kFrfcfs) frfcfs_best = r.best;
    p["overhead_vs_frfcfs_percent"] =
        frfcfs_best > 0.0 ? (r.best - frfcfs_best) / frfcfs_best * 100.0
                          : 0.0;
    points.push_back(std::move(p));
  }
  d["points"] = std::move(points);
  return d;
}

struct PerfBench {
  std::string_view name;
  std::string_view summary;
  /// Times one rep and returns the requests it drove (null for
  /// scenario-wrapped benches).
  std::int64_t (*run)(const PerfOptions&) = nullptr;
  /// Optional structured side-measurement attached to the bench's JSON as
  /// `detail` (null for benches without one).
  Json (*detail)(const PerfOptions&) = nullptr;
  /// Registered scenario a scenario-wrapped bench runs whole (empty when
  /// `run` is set), on at least `min_channels` channels.
  std::string_view scenario = {};
  std::uint32_t min_channels = 1;
};

constexpr PerfBench kBenches[] = {
    {.name = "micro_read_burst",
     .summary = "16384 independent stride-64 reads through submit/wait",
     .run = &micro_read_burst},
    {.name = "micro_write_burst",
     .summary = "16384 independent stride-64 writes through submit/wait",
     .run = &micro_write_burst},
    {.name = "micro_dependent_reads",
     .summary = "4096 dependent row-miss reads, one outstanding at a time",
     .run = &micro_dependent_reads},
    {.name = "fig14_sim_speed",
     .summary =
         "Full fig14_sim_speed scenario (PolyBench on EasyDRAM + Ramulator)",
     .scenario = "fig14_sim_speed"},
    {.name = "channel_scaling",
     .summary = "Full channel_scaling scenario at >= 8 channels",
     .scenario = "channel_scaling",
     .min_channels = 8},
    {.name = "ecc_scrub_overhead",
     .summary =
         "Write+read burst with SEC-DED ECC and patrol scrub vs default-off",
     .run = &ecc_scrub_overhead_run,
     .detail = &ecc_scrub_overhead_detail},
    {.name = "mitigation_overhead",
     .summary = "Full mitigation_overhead scenario (hammer + blend under "
                "PARA/Graphene)",
     .scenario = "mitigation_overhead"},
    {.name = "raidr_refresh",
     .summary = "Full raidr_baseline scenario (REF savings of "
                "retention-aware refresh)",
     .scenario = "raidr_baseline"},
    {.name = "qos_scheduler_overhead",
     .summary = "4-stream tagged read burst under each QoS policy vs FR-FCFS",
     .run = &qos_scheduler_overhead_run,
     .detail = &qos_scheduler_overhead_detail},
    {.name = "stream_sweep",
     .summary =
         "Full stream_sweep scenario (STREAM kernels across 8 working sets)",
     .scenario = "stream_sweep"},
    {.name = "latency_sweep",
     .summary =
         "Full latency_sweep scenario (pointer chase across 8 working sets)",
     .scenario = "latency_sweep"},
};

std::int64_t run_bench(const PerfBench& b, const PerfOptions& opts) {
  if (b.scenario.empty()) return b.run(opts);
  return scenario_bench(b.scenario, opts, b.min_channels);
}

}  // namespace

std::vector<PerfBenchOutcome> run_perf_benches(const PerfOptions& opts) {
  EASYDRAM_EXPECTS(opts.reps >= 1);
  EASYDRAM_EXPECTS(opts.warmup >= 0);
  for (const std::string& name : opts.only) {
    const bool known = std::any_of(
        std::begin(kBenches), std::end(kBenches),
        [&name](const PerfBench& b) { return b.name == name; });
    if (!known) throw std::runtime_error("unknown perf bench: " + name);
  }

  std::vector<PerfBenchOutcome> outcomes;
  for (const PerfBench& b : kBenches) {
    if (!opts.only.empty() &&
        std::find(opts.only.begin(), opts.only.end(), b.name) ==
            opts.only.end()) {
      continue;
    }
    PerfBenchOutcome o;
    o.name = std::string(b.name);
    o.summary = std::string(b.summary);
    o.warmup = opts.warmup;
    o.host_seconds = time_reps(opts.warmup + opts.reps,
                               [&] { o.work_items = run_bench(b, opts); });
    o.finite = std::all_of(
        o.host_seconds.begin(), o.host_seconds.end(),
        [](double dt) { return std::isfinite(dt) && dt > 0.0; });
    if (b.detail != nullptr) o.detail = b.detail(opts);
    outcomes.push_back(std::move(o));
  }
  return outcomes;
}

Json perf_results_json(const PerfOptions& opts,
                       const std::vector<PerfBenchOutcome>& outcomes) {
  Json doc = Json::object();
  doc["schema"] = "easydram-bench-v2";
  doc["generator"] = "easydram_cli --perf";
  doc["reps"] = opts.reps;
  doc["warmup_reps"] = opts.warmup;
  doc["scale"] = opts.scale;
  doc["seed"] = static_cast<std::int64_t>(opts.run.seed);
  doc["host_cores"] =
      static_cast<std::int64_t>(std::thread::hardware_concurrency());
  bool all_finite = true;

  Json benches = Json::array();
  for (const PerfBenchOutcome& o : outcomes) {
    Json j = Json::object();
    j["name"] = o.name;
    j["summary"] = o.summary;
    j["work_items"] = o.work_items;
    // The warmup series is recorded for transparency but excluded from
    // every statistic; host_seconds_per_rep keeps its v1 meaning (the
    // measured series only).
    const auto wu = static_cast<std::size_t>(
        std::min<std::size_t>(static_cast<std::size_t>(o.warmup),
                              o.host_seconds.size()));
    Json warm = Json::array();
    for (std::size_t i = 0; i < wu; ++i) warm.push_back(o.host_seconds[i]);
    j["warmup_host_seconds"] = std::move(warm);
    Json secs = Json::array();
    for (std::size_t i = wu; i < o.host_seconds.size(); ++i) {
      secs.push_back(o.host_seconds[i]);
    }
    j["host_seconds_per_rep"] = std::move(secs);
    if (o.finite && o.host_seconds.size() > wu) {
      const RepStats r = reduce_reps(o.host_seconds, static_cast<int>(wu));
      j["host_seconds_best"] = r.best;
      j["host_seconds_mean"] = r.mean;
      j["host_seconds_median"] = r.median;
      j["host_seconds_p95"] = r.p95;
      j["host_seconds_stddev"] = r.stddev;
      j["cv"] = r.cv;
      if (o.work_items > 0 && r.median > 0.0) {
        j["requests_per_second_median"] =
            static_cast<double>(o.work_items) / r.median;
      }
      if (o.work_items > 0 && r.best > 0.0) {
        j["requests_per_second_best"] =
            static_cast<double>(o.work_items) / r.best;
      }
    }
    if (o.detail.is_object()) j["detail"] = o.detail;
    j["finite"] = o.finite;
    all_finite = all_finite && o.finite;
    benches.push_back(std::move(j));
  }
  doc["benches"] = std::move(benches);
  // Crash-free and every measurement finite/positive. tools/check_bench.py
  // additionally validates the schema, thresholds each bench's CV, and
  // compares medians against a same-host baseline.
  doc["all_finite"] = all_finite;
  return doc;
}

void print_perf_table(std::ostream& os, const Json& results) {
  // Keys a bench lacks (no statistics when a rep was non-finite, no rate
  // without work items) print as "-".
  print_table(os,
              {"benches",
               {{"name", "Bench"},
                {"host_seconds_median", "median (s)", 4},
                {"host_seconds_best", "best (s)", 4},
                {"cv", "cv", 3},
                {"work_items", "reqs"},
                {"requests_per_second_median", "req/s (median)", 0}}},
              results);
  os << "Host-clock measurements: load-dependent by design. Warmup reps\n"
        "are discarded; the median is the headline and cv = stddev/median\n"
        "is the stability score tools/check_bench.py thresholds. Cross-PR\n"
        "comparisons should use the same machine (see docs/bench.md).\n";
}

void list_perf_benches(std::ostream& os) {
  for (const PerfBench& b : kBenches) {
    os << b.name << "\n    " << b.summary << "\n";
  }
}

}  // namespace easydram::cli
