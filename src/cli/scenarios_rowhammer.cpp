// RowHammer scenarios: bitflip-window exposure of aggressor access
// patterns under no mitigation, PARA, and the Graphene-style counter
// tracker, plus the throughput overhead mitigation costs a benign
// workload. Repository extensions beyond the paper's two technique
// families (§7 RowClone, §8 reduced-tRCD): the mitigation subsystem is the
// third "rapidly prototyped maintenance technique" the EasyDRAM pitch
// calls for, and it leans on the same EasyAPI/Bender machinery.

#include <string>
#include <vector>

#include "cli/measure.hpp"
#include "cli/scenario.hpp"
#include "common/rng.hpp"
#include "workloads/hammer.hpp"
#include "workloads/polybench.hpp"

namespace easydram::cli {
namespace {

using smc::mitigation::MitigationKind;

constexpr workloads::HammerPattern kPatterns[] = {
    workloads::HammerPattern::kSingleSided,
    workloads::HammerPattern::kDoubleSided,
    workloads::HammerPattern::kManySided,
};

/// Hammer iterations per kernel. At ~2 ACTs per round on the double-sided
/// victim this builds a four-digit unmitigated exposure in a run short
/// enough for CI, with both mitigations holding a >4x margin below it.
constexpr int kHammerRounds = 1200;

/// PolyBench prefix length and hammer-burst spacing of the blended mix.
constexpr std::size_t kBlendBackgroundRecords = 24000;
constexpr std::size_t kBlendBurstPeriod = 64;

/// The blend's background kernel: trisolv is the shortest PolyBench trace,
/// so the prefix is representative without dominating generation time.
constexpr std::string_view kBlendKernel = "trisolv";

sys::SystemConfig hammer_config(std::uint64_t seed, MitigationKind kind) {
  sys::SystemConfig cfg = sys::jetson_nano_time_scaling();
  cfg.variation.seed = seed;
  cfg.track_row_hammer = true;
  cfg.mitigation.kind = kind;
  // PARA's stream is seeded from the scenario RNG (mixed so it never
  // aliases the synthetic chip's variation stream): deterministic at any
  // --threads value, independent across repetitions.
  cfg.mitigation.seed = hash_mix(seed, 0x4A77E12u);
  return cfg;
}

/// One measured run: exposure, mitigation activity, throughput.
struct HammerOutcome {
  std::int64_t exposure = 0;
  std::int64_t acts_observed = 0;
  std::int64_t triggers = 0;
  std::int64_t neighbor_refreshes = 0;
  std::int64_t requests = 0;
  double wall_us = 0;
};

HammerOutcome run_trace(const sys::SystemConfig& cfg,
                        std::vector<cpu::TraceRecord> records) {
  sys::EasyDramSystem sysm(cfg);
  cpu::VectorTrace trace(std::move(records));
  sysm.run(trace);
  HammerOutcome o;
  o.exposure = sysm.max_hammer_exposure();
  const smc::mitigation::MitigationStats ms = sysm.mitigation_stats();
  o.acts_observed = ms.acts_observed;
  o.triggers = ms.triggers;
  o.neighbor_refreshes = ms.neighbor_refreshes;
  o.requests = sysm.smc_stats().requests_received;
  o.wall_us = sysm.wall().microseconds();
  return o;
}

/// The scenarios' hammer kernels are pure functions of the pattern (the
/// default geometry/mapping, kHammerRounds): generate each once and let
/// every (repetition, policy) run replay a copy.
workloads::HammerParams scenario_hammer_params(workloads::HammerPattern pattern) {
  workloads::HammerParams p;
  p.pattern = pattern;
  p.rounds = kHammerRounds;
  return p;
}

std::vector<cpu::TraceRecord> scenario_hammer_trace(
    workloads::HammerPattern pattern) {
  const sys::SystemConfig cfg = hammer_config(0, MitigationKind::kNone);
  const auto mapper = smc::make_mapper(cfg.mapping, cfg.geometry);
  return workloads::make_hammer_trace(scenario_hammer_params(pattern), *mapper);
}

Json outcome_json(const HammerOutcome& o) {
  Json j = Json::object();
  j["exposure"] = o.exposure;
  j["acts_observed"] = o.acts_observed;
  j["triggers"] = o.triggers;
  j["neighbor_refreshes"] = o.neighbor_refreshes;
  j["requests"] = o.requests;
  j["wall_us"] = o.wall_us;
  j["req_per_us"] = o.wall_us > 0 ? static_cast<double>(o.requests) / o.wall_us
                                  : 0.0;
  return j;
}

/// Shared body of the three per-policy scenarios: every aggressor pattern
/// under one mitigation kind. The headline number is `max_exposure` — the
/// worst bitflip-window exposure any pattern achieved — which the
/// mitigated scenarios must report strictly below the baseline's (pinned
/// by tests/test_mitigation.cpp).
Json run_rowhammer(const RunOptions& opts, MitigationKind kind) {
  std::vector<std::vector<cpu::TraceRecord>> traces;
  traces.reserve(std::size(kPatterns));
  for (const workloads::HammerPattern pattern : kPatterns) {
    traces.push_back(scenario_hammer_trace(pattern));
  }

  const auto all =
      sweep(opts, traces.size(), [&](std::uint64_t seed, std::size_t point) {
        return run_trace(hammer_config(seed, kind), traces[point]);
      });

  Json rows = Json::array();
  for (std::size_t pi = 0; pi < traces.size(); ++pi) {
    Json j = outcome_json(all.rep(0)[pi]);
    j["pattern"] = workloads::to_string(kPatterns[pi]);
    rows.push_back(std::move(j));
  }

  // Headline: the worst exposure over EVERY pattern and repetition (PARA
  // is probabilistic per repetition seed, so a later rep can beat rep 0).
  auto rep_exposure = [](std::span<const HammerOutcome> r) {
    std::int64_t m = 0;
    for (const HammerOutcome& o : r) m = std::max(m, o.exposure);
    return m;
  };
  std::int64_t max_exposure = 0;
  for (int r = 0; r < all.reps(); ++r) {
    max_exposure = std::max(max_exposure, rep_exposure(all.rep(r)));
  }

  Json out = Json::object();
  out["mitigation"] = smc::mitigation::to_string(kind);
  out["hammer_rounds"] = kHammerRounds;
  out["patterns"] = std::move(rows);
  out["max_exposure"] = max_exposure;
  out["max_exposure_per_rep"] =
      per_rep_json(all, [&](std::span<const HammerOutcome> r) {
        return static_cast<double>(rep_exposure(r));
      });
  return out;
}

Json run_rowhammer_baseline(const RunOptions& opts) {
  return run_rowhammer(opts, MitigationKind::kNone);
}
Json run_rowhammer_para(const RunOptions& opts) {
  return run_rowhammer(opts, MitigationKind::kPara);
}
Json run_rowhammer_graphene(const RunOptions& opts) {
  return run_rowhammer(opts, MitigationKind::kGraphene);
}

// --- mitigation_overhead --------------------------------------------------

constexpr MitigationKind kKinds[] = {
    MitigationKind::kNone,
    MitigationKind::kPara,
    MitigationKind::kGraphene,
};

struct OverheadOutcome {
  HammerOutcome hammer;  ///< Pure double-sided hammer (worst case for cost).
  HammerOutcome blend;   ///< Hammer bursts inside a PolyBench prefix.
};

/// Wall-time cost of running each policy, on the pure attack loop and on
/// the blended attacker+application mix, against the unmitigated run of
/// the identical trace.
Json run_mitigation_overhead(const RunOptions& opts) {
  // Both traces are seed-independent (PolyBench generators are
  // parameterless, the hammer kernel is a pure function of the pattern);
  // build each once and let every (repetition, policy) run copy it.
  const std::vector<cpu::TraceRecord> hammer =
      scenario_hammer_trace(workloads::HammerPattern::kDoubleSided);
  const std::vector<cpu::TraceRecord> kernel =
      workloads::generate_kernel(kBlendKernel);
  const std::span<const cpu::TraceRecord> background(
      kernel.data(), std::min(kBlendBackgroundRecords, kernel.size()));
  const std::vector<cpu::TraceRecord> blend = [&] {
    const sys::SystemConfig cfg = hammer_config(0, MitigationKind::kNone);
    const auto mapper = smc::make_mapper(cfg.mapping, cfg.geometry);
    return workloads::make_hammer_blend(
        scenario_hammer_params(workloads::HammerPattern::kDoubleSided), *mapper,
        background, kBlendBurstPeriod);
  }();

  const auto all = sweep(
      opts, std::size(kKinds), [&](std::uint64_t seed, std::size_t point) {
        const MitigationKind kind = kKinds[point];
        OverheadOutcome o;
        o.hammer = run_trace(hammer_config(seed, kind), hammer);
        o.blend = run_trace(hammer_config(seed, kind), blend);
        return o;
      });

  Json rows = Json::array();
  const std::span<const OverheadOutcome> rep0 = all.rep(0);
  const double base_hammer_us = rep0[0].hammer.wall_us;
  const double base_blend_us = rep0[0].blend.wall_us;
  for (std::size_t ki = 0; ki < rep0.size(); ++ki) {
    const OverheadOutcome& o = rep0[ki];
    const double hammer_over = o.hammer.wall_us / base_hammer_us - 1.0;
    const double blend_over = o.blend.wall_us / base_blend_us - 1.0;
    Json j = Json::object();
    j["mitigation"] = smc::mitigation::to_string(kKinds[ki]);
    j["hammer"] = outcome_json(o.hammer);
    j["blend"] = outcome_json(o.blend);
    j["hammer_overhead_pct"] = hammer_over * 100.0;
    j["blend_overhead_pct"] = blend_over * 100.0;
    rows.push_back(std::move(j));
  }

  Json out = Json::object();
  out["hammer_rounds"] = kHammerRounds;
  out["blend_kernel"] = kBlendKernel;
  out["blend_background_records"] =
      static_cast<std::int64_t>(background.size());
  out["blend_burst_period"] = static_cast<std::int64_t>(kBlendBurstPeriod);
  out["kinds"] = std::move(rows);
  // Per-repetition aggregate: PARA's blended-workload overhead, the number
  // a deployment decision would hinge on.
  out["para_blend_overhead_pct_per_rep"] =
      per_rep_json(all, [](std::span<const OverheadOutcome> r) {
        return (r[1].blend.wall_us / r[0].blend.wall_us - 1.0) * 100.0;
      });
  return out;
}

/// The per-pattern table and the exposure claim the three per-policy
/// scenarios share.
std::vector<TableSpec> rowhammer_tables() {
  return {{"patterns",
           {{"pattern", "Pattern"},
            {"exposure", "exposure (acts)"},
            {"neighbor_refreshes", "neighbor refreshes"},
            {"requests", "requests"},
            {"wall_us", "wall (us)", 1},
            {"req_per_us", "req/us"}}}};
}

constexpr std::string_view kRowhammerClaim =
    "Exposure = max activations any victim row absorbed\n"
    "between two refreshes of that row (the number a RowHammer\n"
    "threshold is compared against). Mitigated runs must land\n"
    "far below the unmitigated baseline at a modest\n"
    "neighbor-refresh cost.";

}  // namespace

void register_rowhammer_scenarios(ScenarioRegistry& r) {
  r.add({"rowhammer_baseline",
         "Bitflip-window exposure of hammer patterns, no mitigation",
         "EasyDRAM (DSN 2025), extension beyond §7-§8",
         &run_rowhammer_baseline, rowhammer_tables(), kRowhammerClaim});
  r.add({"rowhammer_para",
         "Hammer exposure under the PARA probabilistic mitigator",
         "EasyDRAM (DSN 2025), extension beyond §7-§8", &run_rowhammer_para,
         rowhammer_tables(), kRowhammerClaim});
  r.add({"rowhammer_graphene",
         "Hammer exposure under the Graphene-style counter tracker",
         "EasyDRAM (DSN 2025), extension beyond §7-§8",
         &run_rowhammer_graphene, rowhammer_tables(), kRowhammerClaim});
  r.add({"mitigation_overhead",
         "Throughput cost of PARA/Graphene vs the unmitigated baseline",
         "EasyDRAM (DSN 2025), extension beyond §7-§8",
         &run_mitigation_overhead,
         {{"kinds",
           {{"mitigation", "Mitigation"},
            {"hammer.exposure", "hammer exposure"},
            {"hammer_overhead_pct", "hammer overhead (%)"},
            {"blend_overhead_pct", "blend overhead (%)"},
            {"hammer.neighbor_refreshes", "hammer neighbor refreshes"},
            {"blend.neighbor_refreshes", "blend neighbor refreshes"}}}},
         "Overhead = extra FPGA wall time vs the unmitigated run\n"
         "of the identical trace. The pure hammer loop is the\n"
         "worst case (every ACT is observable attack traffic); the\n"
         "blend shows what a benign application pays."});
}

}  // namespace easydram::cli
