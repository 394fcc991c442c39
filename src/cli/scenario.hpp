#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "cli/json.hpp"
#include "cli/render.hpp"
#include "common/contracts.hpp"
#include "smc/addr_map.hpp"
#include "smc/scheduler.hpp"

namespace easydram::cli {

/// Options shared by every experiment scenario. Defaults reproduce the
/// paper-shape outputs of the original standalone benches: seed matches the
/// dram::VariationConfig default, one repetition, sequential execution, and
/// the paper's 1-channel/1-rank row-linear memory system.
struct RunOptions {
  std::uint64_t seed = 0x5AFA2125ULL;
  int iters = 1;    ///< Independent repetitions aggregated into the summary.
  int threads = 1;  ///< Host threads running independent sweep tasks.

  /// Memory-system shape (--channels/--ranks/--mapping). The paper
  /// figure/table scenarios always run the 1x1 defaults they were validated
  /// against; the memory-system scenarios (channel_scaling,
  /// rank_interleaving) honor these as sweep upper bounds / extra points.
  std::uint32_t channels = 1;
  std::uint32_t ranks = 1;
  smc::MappingKind mapping = smc::MappingKind::kLinear;

  /// Forced scheduling policy (--sched). Unset by default: scenarios keep
  /// their validated per-experiment policies and the envelope omits the
  /// key, so every pre-existing golden output is unchanged. When set, the
  /// qos_* scenarios restrict their policy sweeps to this policy and other
  /// scenarios that build stock systems honor it via SystemConfig::sched.
  std::optional<smc::SchedulerKind> sched;
};

/// Deterministic per-repetition seed stream. Repetition 0 keeps the
/// caller's seed so `--iters 1` (the default) reproduces the single-run
/// output; later repetitions draw statistically independent streams.
std::uint64_t rep_seed(const RunOptions& opts, int rep);

/// Aggregate of one headline metric across the run's repetitions: the
/// per-rep values plus mean/stddev/p50/p95. Every scenario folds at least
/// one such aggregate into its payload, so `--iters N` always contributes
/// to the JSON (per-sweep detail rows still describe repetition 0).
Json rep_metric_json(std::span<const double> per_rep);

/// Runs task(0) .. task(n-1) on min(threads, n) threads, each pulling the
/// next index from a shared counter; inline on the caller when that is one
/// thread. Every task runs even if another throws; the lowest-index task's
/// exception is then rethrown on the caller.
void run_tasks(int threads, std::size_t n,
               const std::function<void(std::size_t)>& task);

/// The cells of one seeded sweep, `reps() x points` of them, rep-major.
template <typename T>
class Sweep {
 public:
  Sweep(std::vector<T> cells, int reps, std::size_t points)
      : cells_(std::move(cells)), reps_(reps), points_(points) {}

  int reps() const { return reps_; }

  /// Repetition r's cells, in point order.
  std::span<const T> rep(int r) const {
    EASYDRAM_EXPECTS(r >= 0 && r < reps_);
    return std::span<const T>(cells_).subspan(
        static_cast<std::size_t>(r) * points_, points_);
  }

 private:
  std::vector<T> cells_;
  int reps_;
  std::size_t points_;
};

/// Builds cell (rep, point) = fn(rep_seed(opts, rep), point) for every
/// rep < opts.iters and point < points, sharded over opts.threads (see
/// run_tasks). Each cell depends only on its seed and point, so the result
/// is identical at any thread count.
template <typename Fn>
auto sweep(const RunOptions& opts, std::size_t points, Fn&& fn)
    -> Sweep<std::invoke_result_t<Fn&, std::uint64_t, std::size_t>> {
  using T = std::invoke_result_t<Fn&, std::uint64_t, std::size_t>;
  static_assert(!std::is_same_v<T, bool>, "std::vector<bool> has no span");
  std::vector<T> cells(static_cast<std::size_t>(opts.iters) * points);
  run_tasks(opts.threads, cells.size(), [&](std::size_t i) {
    cells[i] = fn(rep_seed(opts, static_cast<int>(i / points)), i % points);
  });
  return Sweep<T>(std::move(cells), opts.iters, points);
}

/// rep_metric_json of f(s.rep(r)), one double per repetition.
template <typename T, typename F>
Json per_rep_json(const Sweep<T>& s, F&& f) {
  std::vector<double> values;
  values.reserve(static_cast<std::size_t>(s.reps()));
  for (int r = 0; r < s.reps(); ++r) values.push_back(f(s.rep(r)));
  return rep_metric_json(values);
}

/// One registered experiment: a figure/table reproducer or an ablation.
/// `run` executes the sweep under the given options and returns the
/// machine-readable result payload, the single source of every output: it
/// prints nothing, and print_scenario draws the human-readable view from
/// the payload with `tables` and `claim`. Scenarios are pure functions of
/// RunOptions: a fixed (seed, iters) pair yields an identical payload at
/// any --threads value, except where a scenario explicitly measures the
/// host clock (fig14).
struct Scenario {
  std::string_view name;
  std::string_view summary;
  std::string_view paper_ref;
  Json (*run)(const RunOptions& opts);
  std::vector<TableSpec> tables = {};  ///< The verbose tables, in order.
  std::string_view claim = {};  ///< Expected-shape prose after the tables.
};

/// Name-keyed registry of every scenario, populated at first use from the
/// per-module registration hooks (explicit calls, not static initializers,
/// so scenarios survive static-library dead stripping).
class ScenarioRegistry {
 public:
  static ScenarioRegistry& instance();

  void add(const Scenario& s);
  const Scenario* find(std::string_view name) const;
  std::span<const Scenario> all() const { return scenarios_; }

 private:
  ScenarioRegistry();

  std::vector<Scenario> scenarios_;  ///< Sorted by name.
};

/// Runs one scenario and wraps its payload in the standard envelope
/// (scenario, paper_ref, seed, iters, threads, results).
Json run_scenario(const Scenario& s, const RunOptions& opts);

/// Prints one run_scenario document for a human: the banner, each of
/// `s.tables` drawn from its `results`, then `s.claim`. Returns the cells
/// that did not resolve (see print_table); a correct spec returns none.
std::vector<std::string> print_scenario(std::ostream& os, const Scenario& s,
                                        const Json& run_doc);

/// main() of the `easydram_cli` tool. Flags: --scenario NAME (at least
/// one unless --list, --help or --perf), --list, --seed N, --iters N,
/// --threads N, --out PATH, --quiet, --help; see print_usage for the rest.
int scenario_main(int argc, char** argv);

}  // namespace easydram::cli
