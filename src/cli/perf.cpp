// Host-performance harness: times what no other harness in the repository
// times on the *host* clock — Fig. 14's simulation-speed study, the host
// cost of the opt-in subsystems (ECC scrub, RowHammer mitigation, RAIDR,
// the QoS schedulers) and the working-set sweeps. e2ebench/ times the
// end-to-end workloads and bench_micro the hot paths below them. The
// timings quantify how fast the simulation itself runs, not anything the
// paper models, and they exist so every change can diff
// BENCH_results.json against its predecessor.

#include "cli/perf.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <ostream>
#include <span>
#include <stdexcept>
#include <thread>

#include "common/contracts.hpp"
#include "sys/system.hpp"

namespace easydram::cli {
namespace {

/// What one run of a variant reports besides its host time.
struct VariantRun {
  std::int64_t requests = 0;  ///< Requests driven (0 for a scenario run).
  Picoseconds wall{};         ///< Emulated wall (0 for a scenario run).
};

/// One timed workload of a bench. `run` receives the variant's own label,
/// so variants of one bench share a function and differ by label.
struct Variant {
  std::string_view label;
  VariantRun (*run)(const PerfOptions&, std::string_view label);
};

/// A variant's host seconds, warmup reps first, with the result of its
/// last run and the reduction of the series (empty when a sample is
/// non-finite or non-positive).
struct VariantSeries {
  std::string_view label;
  std::vector<double> secs;
  VariantRun last;
  std::optional<RepStats> stats;
};

struct PerfBench {
  std::string_view name;
  std::string_view summary;
  /// Timed once each per rep, in this order.
  std::vector<Variant> variants;
  /// Label of the variant whose series is the bench's headline; empty
  /// names the first variant.
  std::string_view headline = {};
  /// Optional structured payload built from every variant's series,
  /// attached to the bench's JSON as `detail`.
  Json (*detail)(std::span<const VariantSeries>) = nullptr;
};

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

/// Runs the registered scenario named `label` whole, at one rep on one
/// thread: a partial scenario would not measure the artifact the bench is
/// named after.
VariantRun scenario_run(const PerfOptions& opts, std::string_view label) {
  const Scenario* s = ScenarioRegistry::instance().find(label);
  EASYDRAM_EXPECTS(s != nullptr);
  RunOptions run = opts.run;
  run.iters = 1;
  run.threads = 1;
  run_scenario(*s, run);
  return {};
}

/// Error-pipeline host overhead: a stride-64 write-then-read burst with
/// SEC-DED ECC and patrol scrub on (variant "ecc") or off ("baseline", the
/// default every other bench runs). The write half exercises the encoder
/// (check-bit fabrication per line), the read half the decoder and the
/// CE/UE classification; patrol scrub rides every refresh slot the run
/// consumes.
VariantRun ecc_rw_burst(const PerfOptions& opts, std::string_view label) {
  const bool ecc = label == "ecc";
  EASYDRAM_EXPECTS(ecc || label == "baseline");
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
  return {2 * n, sysm.wall()};
}

/// QoS-scheduler host overhead: a 4-stream tagged read burst under the
/// policy named by `label`. Stream-aware policies walk the request table
/// with per-stream bookkeeping (blacklists, service ranks, cluster
/// windows) on every pick, and per-stream latency tracking is on — this
/// prices that host-side cost against the stock FR-FCFS pick loop.
VariantRun qos_sched_burst(const PerfOptions& opts, std::string_view label) {
  const std::optional<smc::SchedulerKind> kind = smc::parse_scheduler(label);
  EASYDRAM_EXPECTS(kind.has_value());
  sys::SystemConfig cfg = harness_config(opts);
  cfg.sched = *kind;
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
  return {n, sysm.wall()};
}

Json to_json(std::span<const double> values) {
  Json a = Json::array();
  for (const double v : values) a.push_back(v);
  return a;
}

/// Writes a reduced series into `out` under keys starting with `prefix`:
/// the warmup and measured samples, best, median and CV.
void write_series(Json& out, const std::string& prefix,
                  const VariantSeries& s) {
  const std::span<const double> all(s.secs);
  const auto wu = static_cast<std::size_t>(s.stats->warmup);
  out[prefix + "warmup_host_seconds"] = to_json(all.first(wu));
  out[prefix + "host_seconds_per_rep"] = to_json(all.subspan(wu));
  out[prefix + "host_seconds_best"] = s.stats->best;
  out[prefix + "host_seconds_median"] = s.stats->median;
  out[prefix + "cv"] = s.stats->cv;
}

double overhead_percent(double value, double base) {
  return base > 0.0 ? (value - base) / base * 100.0 : 0.0;
}

/// Host overhead of the ECC variant over the baseline, and the modeled
/// (emulated-time) cost of the pipeline — the extra emulated time ECC and
/// scrub slots add to the same burst, deterministic unlike the host
/// timings, read from the timed runs themselves.
Json ecc_scrub_overhead_detail(std::span<const VariantSeries> series) {
  const VariantSeries& ecc = series[0];
  const VariantSeries& base = series[1];
  EASYDRAM_EXPECTS(ecc.label == "ecc" && base.label == "baseline");
  Json d = Json::object();
  d["requests"] = ecc.last.requests;
  write_series(d, "ecc_", ecc);
  write_series(d, "baseline_", base);
  d["overhead_percent"] =
      overhead_percent(ecc.stats->best, base.stats->best);
  d["ecc_emulated_ps"] = ecc.last.wall.count;
  d["baseline_emulated_ps"] = base.last.wall.count;
  d["emulated_overhead_percent"] =
      overhead_percent(static_cast<double>(ecc.last.wall.count),
                       static_cast<double>(base.last.wall.count));
  return d;
}

/// Every policy's series, with its best-of host overhead over FR-FCFS.
Json qos_scheduler_overhead_detail(std::span<const VariantSeries> series) {
  EASYDRAM_EXPECTS(series[0].label == "frfcfs");
  Json d = Json::object();
  d["requests"] = series[0].last.requests;
  d["streams"] = 4;
  Json points = Json::array();
  for (const VariantSeries& s : series) {
    Json p = Json::object();
    p["sched"] = s.label;
    write_series(p, "", s);
    p["overhead_vs_frfcfs_percent"] =
        overhead_percent(s.stats->best, series[0].stats->best);
    points.push_back(std::move(p));
  }
  d["points"] = std::move(points);
  return d;
}

const std::vector<PerfBench>& benches() {
  static const std::vector<PerfBench> kBenches = {
      {.name = "fig14_sim_speed",
       .summary = "Full fig14_sim_speed scenario (PolyBench on EasyDRAM + "
                  "Ramulator)",
       .variants = {{"fig14_sim_speed", &scenario_run}}},
      {.name = "ecc_scrub_overhead",
       .summary =
           "Write+read burst with SEC-DED ECC and patrol scrub vs default-off",
       .variants = {{"ecc", &ecc_rw_burst}, {"baseline", &ecc_rw_burst}},
       .headline = "ecc",
       .detail = &ecc_scrub_overhead_detail},
      {.name = "mitigation_overhead",
       .summary = "Full mitigation_overhead scenario (hammer + blend under "
                  "PARA/Graphene)",
       .variants = {{"mitigation_overhead", &scenario_run}}},
      {.name = "raidr_refresh",
       .summary = "Full raidr_baseline scenario (REF savings of "
                  "retention-aware refresh)",
       .variants = {{"raidr_baseline", &scenario_run}}},
      {.name = "qos_scheduler_overhead",
       .summary =
           "4-stream tagged read burst under each QoS policy vs FR-FCFS",
       .variants = {{"frfcfs", &qos_sched_burst},
                    {"parbs", &qos_sched_burst},
                    {"bliss", &qos_sched_burst},
                    {"atlas", &qos_sched_burst},
                    {"tcm", &qos_sched_burst}},
       .headline = "tcm",
       .detail = &qos_scheduler_overhead_detail},
      {.name = "stream_sweep",
       .summary = "Full stream_sweep scenario (STREAM kernels across 8 "
                  "working sets)",
       .variants = {{"stream_sweep", &scenario_run}}},
      {.name = "latency_sweep",
       .summary = "Full latency_sweep scenario (pointer chase across 8 "
                  "working sets)",
       .variants = {{"latency_sweep", &scenario_run}}},
  };
  return kBenches;
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The one timing loop: each variant in order runs `opts.warmup` reps,
/// then `opts.reps` measured ones back to back, so its warmup reps warm
/// the very state its measured reps reuse. Returns one series per
/// variant, each reduced once.
std::vector<VariantSeries> time_reps(const PerfOptions& opts,
                                     std::span<const Variant> variants) {
  std::vector<VariantSeries> series;
  for (const Variant& v : variants) {
    VariantSeries& s = series.emplace_back();
    s.label = v.label;
    for (int rep = 0; rep < opts.warmup + opts.reps; ++rep) {
      const double t0 = now_seconds();
      s.last = v.run(opts, v.label);
      s.secs.push_back(now_seconds() - t0);
    }
    if (std::all_of(s.secs.begin(), s.secs.end(),
                    [](double dt) { return std::isfinite(dt) && dt > 0.0; })) {
      s.stats = reduce_reps(s.secs, opts.warmup);
    }
  }
  return series;
}

}  // namespace

std::vector<PerfBenchOutcome> run_perf_benches(const PerfOptions& opts) {
  EASYDRAM_EXPECTS(opts.reps >= 1);
  EASYDRAM_EXPECTS(opts.warmup >= 0);
  for (const std::string& name : opts.only) {
    const bool known = std::any_of(
        benches().begin(), benches().end(),
        [&name](const PerfBench& b) { return b.name == name; });
    if (!known) throw std::runtime_error("unknown perf bench: " + name);
  }

  std::vector<PerfBenchOutcome> outcomes;
  for (const PerfBench& b : benches()) {
    if (!opts.only.empty() &&
        std::find(opts.only.begin(), opts.only.end(), b.name) ==
            opts.only.end()) {
      continue;
    }
    const std::vector<VariantSeries> series = time_reps(opts, b.variants);
    const auto head = std::find_if(
        series.begin(), series.end(), [&b](const VariantSeries& s) {
          return b.headline.empty() || s.label == b.headline;
        });
    EASYDRAM_EXPECTS(head != series.end());
    PerfBenchOutcome o;
    o.name = std::string(b.name);
    o.summary = std::string(b.summary);
    o.work_items = head->last.requests;
    o.warmup = opts.warmup;
    o.host_seconds = head->secs;
    const bool finite = std::all_of(
        series.begin(), series.end(),
        [](const VariantSeries& s) { return s.stats.has_value(); });
    if (finite) {
      o.stats = head->stats;
      if (b.detail != nullptr) o.detail = b.detail(series);
    }
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
  doc["seed"] = opts.run.seed;
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
    const std::span<const double> all(o.host_seconds);
    const std::size_t wu =
        std::min(static_cast<std::size_t>(o.warmup), all.size());
    j["warmup_host_seconds"] = to_json(all.first(wu));
    j["host_seconds_per_rep"] = to_json(all.subspan(wu));
    if (const std::optional<RepStats>& r = o.stats) {
      j["host_seconds_best"] = r->best;
      j["host_seconds_mean"] = r->mean;
      j["host_seconds_median"] = r->median;
      j["host_seconds_p95"] = r->p95;
      j["host_seconds_stddev"] = r->stddev;
      j["cv"] = r->cv;
      if (o.work_items > 0 && r->median > 0.0) {
        j["requests_per_second_median"] =
            static_cast<double>(o.work_items) / r->median;
      }
      if (o.work_items > 0 && r->best > 0.0) {
        j["requests_per_second_best"] =
            static_cast<double>(o.work_items) / r->best;
      }
    }
    if (o.detail.is_object()) j["detail"] = o.detail;
    j["finite"] = o.stats.has_value();
    all_finite = all_finite && o.stats.has_value();
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
  for (const PerfBench& b : benches()) {
    os << b.name << "\n    " << b.summary << "\n";
  }
}

}  // namespace easydram::cli
