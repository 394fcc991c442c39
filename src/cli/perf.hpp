#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "cli/json.hpp"
#include "cli/measure.hpp"
#include "cli/scenario.hpp"

namespace easydram::cli {

/// Options of the host-performance harness (`easydram_cli --perf`). The
/// shared RunOptions supply the seed and the memory-system shape; the
/// harness-specific knobs bound how long a run takes so CI can use a short
/// budget while perf investigations use a long one.
struct PerfOptions {
  RunOptions run;
  int reps = 3;  ///< Measured repetitions per bench (median is the headline).
  /// Warmup repetitions run and timed before the measured ones but
  /// excluded from every statistic (cold caches, allocator growth — the
  /// systematic first-run cost the v2 contract discards; see docs/bench.md).
  int warmup = 1;
  /// Multiplier on the request budgets of the two benches that drive the
  /// memory system directly (ecc_scrub_overhead, qos_scheduler_overhead).
  /// The five scenario benches (fig14_sim_speed, mitigation_overhead,
  /// raidr_refresh, stream_sweep, latency_sweep) always run their full
  /// scenario — a partial scenario would not measure the artifact the
  /// bench is named after; use --scenario to skip them when a short run
  /// matters more than coverage.
  double scale = 1.0;
  std::vector<std::string> only;  ///< Bench-name filter; empty = all.
};

/// One bench's timed outcome: the series of its headline variant.
struct PerfBenchOutcome {
  std::string name;
  std::string summary;
  std::int64_t work_items = 0;  ///< Requests driven per rep (0 = untracked).
  /// One entry per repetition: the first `warmup` entries are the warmup
  /// runs, the rest are the measured series RepStats reduces.
  std::vector<double> host_seconds;
  int warmup = 0;  ///< Leading warmup entries in host_seconds.
  /// The reduction of host_seconds; empty when a sample of any of the
  /// bench's variants was non-finite or non-positive.
  std::optional<RepStats> stats;
  /// Bench-specific structured payload built from every variant's series
  /// (null unless the bench provides one): the ECC and QoS overhead
  /// benches report their per-variant timings here.
  Json detail;
};

/// Runs the seven registered host-performance benches (see
/// list_perf_benches) and returns their outcomes. Each bench is a list of
/// variants, and every variant runs exactly `warmup + reps` times: one for
/// each scenario bench, ecc/baseline for ecc_scrub_overhead, one per
/// policy for qos_scheduler_overhead. Throws on an unknown name in
/// `opts.only`.
std::vector<PerfBenchOutcome> run_perf_benches(const PerfOptions& opts);

/// Wraps outcomes in the machine-readable BENCH_results.json document
/// (schema "easydram-bench-v2" — see docs/bench.md): every bench carries
/// the warmup-discarded RepStats reduction (median/p95/stddev/CV, best
/// kept for v1 continuity) and the document records host-core metadata so
/// tools/check_bench.py can skip cross-host median comparisons.
Json perf_results_json(const PerfOptions& opts,
                       const std::vector<PerfBenchOutcome>& outcomes);

/// Prints the human-readable summary table, drawn from the `benches` rows
/// of a perf_results_json document.
void print_perf_table(std::ostream& os, const Json& results);

/// Lists the registered perf benches (name + summary), one per line.
void list_perf_benches(std::ostream& os);

}  // namespace easydram::cli
