// Retention-aware refresh (RAIDR-style) scenarios: REF-issue savings of
// the skipping policy on a benign workload, the savings' sensitivity to
// the chip's retention weakness, the interplay with the RowHammer
// mitigators (skipped stripes stop resetting victim counters), and the
// misbinning risk of an incomplete retention-profiling pass, checked
// against the device's retention ground truth. Fourth technique family of
// this repository (after RowClone, reduced-tRCD, and the RowHammer
// mitigators), exercising the refresh pacing machinery from the opposite
// direction to the mitigators' *extra* refreshes.

#include <string>
#include <vector>

#include "cli/measure.hpp"
#include "cli/scenario.hpp"
#include "common/rng.hpp"
#include "workloads/hammer.hpp"

namespace easydram::cli {
namespace {

using smc::RefreshKind;
using smc::mitigation::MitigationKind;

/// The refresh-stress trace: memory-light but time-rich. Refresh pacing is
/// paced by *emulated* time (one slot per tREFI), so the subject here is
/// how many tREFI slots a run spans, not its bandwidth: each dependent
/// row-miss load executes after a long non-memory gap, and 320 records
/// span ~5 ms of emulated time — ~630 refresh slots, enough for a stable
/// measured skip rate (the phase-spread schedule skips at the steady-state
/// rate from slot 0) and, in the time-compressed misbinning chamber, ~10
/// full refresh rounds.
constexpr std::size_t kStressRecords = 320;
constexpr std::uint32_t kStressGapInstructions = 22000;

std::vector<cpu::TraceRecord> refresh_stress_trace() {
  std::vector<cpu::TraceRecord> records;
  records.reserve(kStressRecords);
  for (std::size_t i = 0; i < kStressRecords; ++i) {
    // One fresh row each.
    records.emplace_back(cpu::Op::kLoadDependent,
                         static_cast<std::uint64_t>(i) * 8192,
                         kStressGapInstructions);
  }
  return records;
}

sys::SystemConfig refresh_config(std::uint64_t seed, RefreshKind kind) {
  sys::SystemConfig cfg = sys::jetson_nano_time_scaling();
  cfg.variation.seed = seed;
  cfg.refresh = kind;
  return cfg;
}

/// One measured run: refresh activity, optional hammer/retention ground
/// truth, throughput.
struct RefreshOutcome {
  std::int64_t issued = 0;
  std::int64_t skipped = 0;
  std::int64_t slots = 0;
  std::int64_t requests = 0;
  double wall_us = 0;
  std::int64_t exposure = 0;
  std::int64_t neighbor_refreshes = 0;
  std::int64_t violations = 0;
  double overshoot_us = 0;
  smc::RaidrBinStats bins{};
};

RefreshOutcome run_trace(const sys::SystemConfig& cfg,
                         std::vector<cpu::TraceRecord> records) {
  sys::EasyDramSystem sysm(cfg);
  cpu::VectorTrace trace(std::move(records));
  sysm.run(trace);
  RefreshOutcome o;
  const smc::ApiStats s = sysm.smc_stats();
  o.issued = s.refreshes_issued;
  o.skipped = s.refreshes_skipped;
  o.slots = sysm.refresh_slots_consumed();
  o.requests = s.requests_received;
  o.wall_us = sysm.wall().microseconds();
  o.exposure = sysm.max_hammer_exposure();
  o.neighbor_refreshes = sysm.mitigation_stats().neighbor_refreshes;
  o.violations = sysm.retention_violations();
  o.overshoot_us = sysm.max_retention_overshoot().microseconds();
  o.bins = sysm.refresh_bin_stats();
  return o;
}

double reduction_pct(const RefreshOutcome& o) {
  return o.slots > 0
             ? 100.0 * static_cast<double>(o.skipped) / static_cast<double>(o.slots)
             : 0.0;
}

Json outcome_json(const RefreshOutcome& o, const dram::TimingParams& t) {
  Json j = Json::object();
  j["refreshes_issued"] = o.issued;
  j["refreshes_skipped"] = o.skipped;
  j["refresh_slots"] = o.slots;
  j["ref_reduction_pct"] = reduction_pct(o);
  // Command-slot/energy proxy: every skipped REF returns one tRFC of
  // all-bank busy time (and the refresh energy a REF burns) to the rank.
  j["refresh_busy_saved_us"] = Picoseconds{t.tRFC.count * o.skipped}.microseconds();
  j["requests"] = o.requests;
  j["wall_us"] = o.wall_us;
  return j;
}

Json bins_json(const smc::RaidrBinStats& b) {
  Json j = Json::object();
  j["stripes_total"] = b.stripes_total;
  j["stripes_x1"] = b.stripes_x1;
  j["stripes_x2"] = b.stripes_x2;
  j["stripes_x4"] = b.stripes_x4;
  j["rows_profiled"] = b.rows_profiled;
  j["issue_fraction_predicted"] = b.issue_fraction;
  return j;
}

// --- raidr_baseline -------------------------------------------------------

constexpr RefreshKind kRefreshKinds[] = {RefreshKind::kAllRows,
                                         RefreshKind::kRaidr};

/// The headline savings run: the identical benign trace under the all-rows
/// regime and under RAIDR. The all-rows run must skip nothing; the RAIDR
/// run's measured reduction must track the profiled binning's predicted
/// issue fraction (the classic ~60-75% REF reduction).
Json run_raidr_baseline(const RunOptions& opts) {
  const std::vector<cpu::TraceRecord> trace = refresh_stress_trace();

  const auto all = sweep(opts, std::size(kRefreshKinds),
                         [&](std::uint64_t seed, std::size_t point) {
                           return run_trace(
                               refresh_config(seed, kRefreshKinds[point]),
                               trace);
                         });

  const dram::TimingParams timing = dram::ddr4_1333();
  Json rows = Json::array();
  for (std::size_t ki = 0; ki < std::size(kRefreshKinds); ++ki) {
    const RefreshOutcome& o = all.rep(0)[ki];
    Json j = outcome_json(o, timing);
    j["refresh"] = smc::to_string(kRefreshKinds[ki]);
    if (kRefreshKinds[ki] == RefreshKind::kRaidr) j["bins"] = bins_json(o.bins);
    rows.push_back(std::move(j));
  }

  Json out = Json::object();
  out["workload"] = "refresh_stress";
  out["stress_records"] = static_cast<std::int64_t>(kStressRecords);
  out["kinds"] = std::move(rows);
  out["ref_reduction_pct_per_rep"] = per_rep_json(
      all, [](std::span<const RefreshOutcome> r) {
        return reduction_pct(r[1]);
      });
  return out;
}

// --- raidr_savings --------------------------------------------------------

/// Scale factors on the retention-weakness probabilities: 0 = an ideal
/// all-strong chip (maximum savings), 1 = the calibrated default, larger =
/// leakier chips whose weak stripes erode the savings.
constexpr double kWeaknessFactors[] = {0.0, 1.0, 8.0, 64.0};

Json run_raidr_savings(const RunOptions& opts) {
  const std::vector<cpu::TraceRecord> trace = refresh_stress_trace();

  const auto all = sweep(
      opts, std::size(kWeaknessFactors),
      [&](std::uint64_t seed, std::size_t point) {
        const double f = kWeaknessFactors[point];
        sys::SystemConfig cfg = refresh_config(seed, RefreshKind::kRaidr);
        cfg.variation.retention_p_weakest *= f;
        cfg.variation.retention_p_weak *= f;
        return run_trace(cfg, trace);
      });

  const dram::TimingParams timing = dram::ddr4_1333();
  Json rows = Json::array();
  for (std::size_t i = 0; i < std::size(kWeaknessFactors); ++i) {
    const RefreshOutcome& o = all.rep(0)[i];
    Json j = outcome_json(o, timing);
    j["weakness_factor"] = kWeaknessFactors[i];
    j["bins"] = bins_json(o.bins);
    rows.push_back(std::move(j));
  }

  Json out = Json::object();
  out["workload"] = "refresh_stress";
  out["points"] = std::move(rows);
  out["default_reduction_pct_per_rep"] = per_rep_json(
      all, [](std::span<const RefreshOutcome> r) {
        return reduction_pct(r[1]);
      });
  return out;
}

// --- raidr_vs_mitigation --------------------------------------------------

constexpr MitigationKind kMitKinds[] = {
    MitigationKind::kNone,
    MitigationKind::kPara,
    MitigationKind::kGraphene,
};

/// Interplay with the RowHammer mitigators on a double-sided hammer loop:
/// a skipped stripe's victim counters keep accumulating (periodic REFs no
/// longer reset them), so unmitigated exposure under RAIDR is at least the
/// all-rows exposure, while the targeted-refresh mitigators — which do not
/// depend on the periodic stripe sweep — still bound it.
Json run_raidr_vs_mitigation(const RunOptions& opts) {
  workloads::HammerParams hp;
  hp.pattern = workloads::HammerPattern::kDoubleSided;
  const std::vector<cpu::TraceRecord> trace = [&] {
    const sys::SystemConfig cfg = refresh_config(0, RefreshKind::kAllRows);
    const auto mapper = smc::make_mapper(cfg.mapping, cfg.geometry);
    std::vector<cpu::TraceRecord> t = workloads::make_hammer_trace(hp, *mapper);
    // Stretch the attack over ~2.7 ms of emulated time so the run crosses
    // the victim stripe's REF slot (row 1030 -> stripe 257, slot 257 at
    // ~2 ms): under all_rows that slot resets the victim counters mid-run;
    // under RAIDR the stripe's (strong) bin skips round 0 and the full
    // exposure accumulates.
    for (cpu::TraceRecord& r : t) r.gap_instructions = 1300;
    return t;
  }();

  const std::size_t n_mit = std::size(kMitKinds);
  const std::size_t n = std::size(kRefreshKinds) * n_mit;
  const auto all = sweep(opts, n, [&](std::uint64_t seed, std::size_t cell) {
    sys::SystemConfig cfg =
        refresh_config(seed, kRefreshKinds[cell / n_mit]);
    cfg.track_row_hammer = true;
    cfg.mitigation.kind = kMitKinds[cell % n_mit];
    // Same PARA stream seeding as the rowhammer scenarios: mixed so it
    // never aliases the chip's variation stream, deterministic at any
    // --threads value.
    cfg.mitigation.seed = hash_mix(seed, 0x4A77E12u);
    return run_trace(cfg, trace);
  });

  const dram::TimingParams timing = dram::ddr4_1333();
  Json rows = Json::array();
  for (std::size_t cell = 0; cell < n; ++cell) {
    const RefreshOutcome& o = all.rep(0)[cell];
    const RefreshKind rk = kRefreshKinds[cell / n_mit];
    const MitigationKind mk = kMitKinds[cell % n_mit];
    Json j = outcome_json(o, timing);
    j["refresh"] = smc::to_string(rk);
    j["mitigation"] = smc::mitigation::to_string(mk);
    j["exposure"] = o.exposure;
    j["neighbor_refreshes"] = o.neighbor_refreshes;
    rows.push_back(std::move(j));
  }

  // Headline per repetition: the worst mitigated exposure under RAIDR —
  // the number that must stay far below the unmitigated baselines for the
  // two subsystems to compose safely.
  bool raidr_never_lowers_exposure = true;
  for (int r = 0; r < all.reps(); ++r) {
    const std::span<const RefreshOutcome> cells = all.rep(r);
    raidr_never_lowers_exposure = raidr_never_lowers_exposure &&
                                  cells[n_mit].exposure >= cells[0].exposure;
  }

  Json out = Json::object();
  out["hammer_rounds"] = hp.rounds;
  out["cells"] = std::move(rows);
  out["raidr_never_lowers_unmitigated_exposure"] = raidr_never_lowers_exposure;
  out["mitigated_raidr_exposure_per_rep"] =
      per_rep_json(all, [&](std::span<const RefreshOutcome> r) {
        std::int64_t worst = 0;
        for (std::size_t mi = 1; mi < n_mit; ++mi) {
          worst = std::max(worst, r[n_mit + mi].exposure);
        }
        return static_cast<double>(worst);
      });
  return out;
}

// --- raidr_misbinning -----------------------------------------------------

/// Profiler sampling strides: 1 = exhaustive (no misbinning possible), 256
/// = one row in 256 sampled (weak rows almost surely missed).
constexpr std::uint32_t kStrides[] = {1, 4, 16, 64, 256};

/// Time-compressed retention chamber: 64 REF slots cover the array (~500 us
/// per round at the default tREFI), with the retention model rescaled to
/// match, so a millisecond-scale emulated run spans many full refresh
/// rounds and under-refreshed stripes actually overshoot their retention.
sys::SystemConfig misbinning_config(std::uint64_t seed, std::uint32_t stride) {
  using namespace easydram::literals;
  sys::SystemConfig cfg = refresh_config(seed, RefreshKind::kRaidr);
  cfg.geometry.refresh_window_refs = 64;  // Round = 64 x tREFI ~ 499 us.
  // Base retention bin just above the compressed round duration (the same
  // ~12% margin real tREFW keeps below the 64 ms retention floor).
  cfg.variation.retention_base = 560_us;
  // A stripe is now 512 rows x 16 banks = 8192 rows: scale the per-row
  // weakness probabilities down so the stripe-level bin mix keeps a
  // dominant strongest bin with a visible weak minority (~8% of stripes
  // in x1, ~25% in x2 at these values).
  cfg.variation.retention_p_weakest = 1e-5;
  cfg.variation.retention_p_weak = 4e-5;
  cfg.track_retention = true;
  cfg.retention_profiler.sample_stride = stride;
  return cfg;
}

Json run_raidr_misbinning(const RunOptions& opts) {
  const std::vector<cpu::TraceRecord> trace = refresh_stress_trace();

  const auto all = sweep(
      opts, std::size(kStrides), [&](std::uint64_t seed, std::size_t point) {
        return run_trace(misbinning_config(seed, kStrides[point]), trace);
      });

  const dram::TimingParams timing = dram::ddr4_1333();
  Json rows = Json::array();
  for (std::size_t i = 0; i < std::size(kStrides); ++i) {
    const RefreshOutcome& o = all.rep(0)[i];
    Json j = outcome_json(o, timing);
    j["sample_stride"] = static_cast<std::int64_t>(kStrides[i]);
    j["bins"] = bins_json(o.bins);
    j["retention_violations"] = o.violations;
    j["max_retention_overshoot_us"] = o.overshoot_us;
    rows.push_back(std::move(j));
  }

  // Per-repetition: exhaustive profiling must never violate retention; the
  // sparsest profile's violation count is the risk headline.
  bool exhaustive_always_safe = true;
  for (int r = 0; r < all.reps(); ++r) {
    exhaustive_always_safe =
        exhaustive_always_safe && all.rep(r)[0].violations == 0;
  }

  Json out = Json::object();
  out["workload"] = "refresh_stress";
  out["window_refs"] = 64;
  out["points"] = std::move(rows);
  out["exhaustive_always_safe"] = exhaustive_always_safe;
  out["sparse_violations_per_rep"] =
      per_rep_json(all, [](std::span<const RefreshOutcome> r) {
        return static_cast<double>(r.back().violations);
      });
  return out;
}

}  // namespace

void register_refresh_scenarios(ScenarioRegistry& r) {
  r.add({"raidr_baseline",
         "REF-issue reduction of retention-aware refresh on a benign trace",
         "EasyDRAM (DSN 2025), extension beyond §7-§8; RAIDR (ISCA 2012)",
         &run_raidr_baseline,
         {{"kinds",
           {{"refresh", "Refresh"},
            {"refreshes_issued", "REF issued"},
            {"refreshes_skipped", "REF skipped"},
            {"ref_reduction_pct", "reduction (%)", 1},
            {"refresh_busy_saved_us", "busy saved (us)", 1},
            {"wall_us", "wall (us)", 1}}}},
         "RAIDR bins refresh stripes by their weakest row's modeled\n"
         "retention (64/128/256 ms classes) and skips REF slots whose\n"
         "stripe is not yet due. Reduction = skipped / total slots;\n"
         "busy saved = skipped REFs x tRFC returned to the rank."});
  r.add({"raidr_savings",
         "Refresh savings vs retention-weakness of the synthetic chip",
         "EasyDRAM (DSN 2025), extension beyond §7-§8; RAIDR (ISCA 2012)",
         &run_raidr_savings,
         {{"points",
           {{"weakness_factor", "Weakness x", 0},
            {"bins.stripes_x1", "x1 stripes"},
            {"bins.stripes_x2", "x2 stripes"},
            {"bins.stripes_x4", "x4 stripes"},
            {"bins.issue_fraction_predicted", "predicted issue fraction", 3},
            {"ref_reduction_pct", "measured reduction (%)", 1}}}},
         "Measured reduction (%) should track 100 x (1 - predicted\n"
         "issue fraction); a leakier chip (more x1/x2 stripes) erodes\n"
         "the savings toward zero."});
  r.add({"raidr_vs_mitigation",
         "Skipped-stripe hammer exposure with and without PARA/Graphene",
         "EasyDRAM (DSN 2025), extension beyond §7-§8; RAIDR (ISCA 2012)",
         &run_raidr_vs_mitigation,
         {{"cells",
           {{"refresh", "Refresh"},
            {"mitigation", "Mitigation"},
            {"exposure", "exposure"},
            {"neighbor_refreshes", "neighbor refreshes"},
            {"refreshes_issued", "REF issued"},
            {"refreshes_skipped", "REF skipped"}}}},
         "Skipping stripes removes some periodic victim-counter\n"
         "resets, so unmitigated exposure under raidr must be >= the\n"
         "all_rows exposure; PARA/Graphene bound it either way because\n"
         "their targeted refreshes are ACT-driven, not stripe-driven."});
  r.add({"raidr_misbinning",
         "Retention violations from sparse profiling (time-compressed)",
         "EasyDRAM (DSN 2025), extension beyond §7-§8; RAIDR (ISCA 2012)",
         &run_raidr_misbinning,
         {{"points",
           {{"sample_stride", "Stride"},
            {"bins.rows_profiled", "rows profiled"},
            {"bins.stripes_x1", "x1 stripes"},
            {"bins.stripes_x2", "x2 stripes"},
            {"bins.stripes_x4", "x4 stripes"},
            {"ref_reduction_pct", "REF reduction (%)", 1},
            {"retention_violations", "violations"},
            {"max_retention_overshoot_us", "worst overshoot (us)", 1}}}},
         "Violations = issued REFs whose stripe went unrefreshed\n"
         "longer than its weakest row's modeled retention (device\n"
         "ground truth). Exhaustive profiling (stride 1) must report\n"
         "zero; sparse profiles miss weak rows, overbin their\n"
         "stripes, and accumulate violations."});
}

}  // namespace easydram::cli
