// Multi-tenant QoS scenarios: mixed tenant traffic (latency-sensitive
// pointer chase, STREAM-style bandwidth hogs, a RowHammer adversary)
// interleaved into one N-stream request flow, measured per stream. These
// are repository extensions beyond the paper's single-tenant case studies:
// the software memory controller makes scheduling a C++ policy swap, so
// the QoS scheduler family (PAR-BS / BLISS / ATLAS / TCM) and static bank
// partitioning are exactly the kind of experiment EasyDRAM exists to make
// cheap.
//
// Every tenant's working set must be memory-resident for the scheduler to
// matter, so these scenarios scale the cache hierarchy down with the
// CI-sized footprints (real multi-tenant working sets dwarf any LLC).

#include <string>
#include <utility>
#include <vector>

#include "cli/measure.hpp"
#include "cli/scenario.hpp"
#include "common/stats.hpp"
#include "cpu/trace.hpp"
#include "sys/system.hpp"
#include "workloads/mixed.hpp"

namespace easydram::cli {
namespace {

using workloads::TenantKind;
using workloads::TenantSpec;

constexpr std::uint64_t kKiB = 1024;
constexpr std::uint64_t kTenantSpacing = 64 * 1024 * 1024;

/// One modeled-latency distribution (emulated processor cycles).
struct StreamLatency {
  std::int64_t requests = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

StreamLatency summarize(const CountHistogram& samples) {
  StreamLatency s;
  s.requests = static_cast<std::int64_t>(samples.count());
  if (samples.count() == 0) return s;
  // A histogram is the multiset alone, so every reduction is independent
  // of the order in which channels drained their completions.
  s.mean = samples.mean();
  s.p50 = samples.percentile(50.0);
  s.p95 = samples.percentile(95.0);
  s.p99 = samples.percentile(99.0);
  return s;
}

/// Everything one trace run yields for the QoS studies.
struct QosRun {
  std::vector<StreamLatency> streams;
  smc::ApiStats stats;
  smc::mitigation::MitigationStats mitigation;
};

QosRun run_records(const sys::SystemConfig& cfg,
                   std::vector<cpu::TraceRecord> records,
                   std::size_t n_streams) {
  sys::EasyDramSystem sysm(cfg);
  cpu::VectorTrace trace(std::move(records));
  sysm.run(trace);
  QosRun r;
  const auto& samples = sysm.stream_latency_samples();
  static const CountHistogram kEmpty;
  r.streams.reserve(n_streams);
  for (std::size_t s = 0; s < n_streams; ++s) {
    r.streams.push_back(summarize(s < samples.size() ? samples[s] : kEmpty));
  }
  r.stats = sysm.smc_stats();
  r.mitigation = sysm.mitigation_stats();
  return r;
}

sys::SystemConfig qos_config(std::uint64_t seed, smc::SchedulerKind sched,
                             smc::MappingKind mapping =
                                 smc::MappingKind::kLinear) {
  sys::SystemConfig cfg = sys::jetson_nano_time_scaling();
  cfg.variation.seed = seed;
  cfg.sched = sched;
  cfg.mapping = mapping;
  cfg.track_stream_latency = true;
  cfg.caches.l1 = {4 * 1024, 4, 64};
  cfg.caches.l2 = {16 * 1024, 8, 64};
  return cfg;
}

/// The policy sweep: the scenario's validated default list, unless --sched
/// forces a single policy.
std::vector<smc::SchedulerKind> sweep_policies(
    const RunOptions& opts, std::initializer_list<smc::SchedulerKind> defaults) {
  if (opts.sched.has_value()) return {*opts.sched};
  return defaults;
}

std::string policy_name(smc::SchedulerKind kind) {
  return std::string(smc::make_scheduler(kind)->name());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// max/min slowdown — 1.0 is perfectly fair, large is starvation.
double unfairness(std::span<const double> slowdowns) {
  double lo = 0.0;
  double hi = 0.0;
  for (const double s : slowdowns) {
    if (s <= 0.0) continue;
    if (lo == 0.0 || s < lo) lo = s;
    if (s > hi) hi = s;
  }
  return ratio(hi, lo);
}

Json stream_json(const TenantSpec& spec, const StreamLatency& lat,
                 double slowdown = 0.0) {
  Json j = Json::object();
  j["stream"] = static_cast<std::int64_t>(spec.stream);
  j["kind"] = workloads::to_string(spec.kind);
  j["requests"] = lat.requests;
  j["mean_cycles"] = lat.mean;
  j["p50_cycles"] = lat.p50;
  j["p95_cycles"] = lat.p95;
  j["p99_cycles"] = lat.p99;
  if (slowdown > 0.0) j["slowdown_vs_alone"] = slowdown;
  return j;
}

void add_sched_counters(Json& j, const smc::ApiStats& stats) {
  j["sched_picks"] = stats.sched_picks;
  j["sched_row_hits"] = stats.sched_row_hits;
  j["sched_row_conflicts"] = stats.sched_row_conflicts;
  j["sched_entries_scanned"] = stats.sched_entries_scanned;
}

// --- qos_mixed_tenants ----------------------------------------------------

std::vector<TenantSpec> four_tenants() {
  std::vector<TenantSpec> t(4);
  t[0].kind = TenantKind::kPointerChase;
  t[0].footprint_bytes = 32 * kKiB;
  t[1].kind = TenantKind::kStreamCopy;
  t[1].footprint_bytes = 64 * kKiB;
  t[2].kind = TenantKind::kStreamCopy;
  t[2].footprint_bytes = 64 * kKiB;
  t[3].kind = TenantKind::kHammer;
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i].stream = static_cast<std::uint32_t>(i);
    t[i].base_addr = i * kTenantSpacing;
  }
  return t;
}

/// Per-stream latency/fairness of the 4-tenant mix under each policy, with
/// slowdown-vs-alone from per-tenant solo runs on the identical system.
Json run_qos_mixed_tenants(const RunOptions& opts) {
  const std::vector<smc::SchedulerKind> policies = sweep_policies(
      opts, {smc::SchedulerKind::kFrfcfs, smc::SchedulerKind::kBliss,
             smc::SchedulerKind::kAtlas, smc::SchedulerKind::kTcm});
  const std::vector<TenantSpec> tenants = four_tenants();

  struct Task {
    QosRun mixed;
    std::vector<double> slowdown;  ///< Per tenant, mixed mean / solo mean.
  };
  const auto all = sweep(
      opts, policies.size(), [&](std::uint64_t seed, std::size_t point) {
        const sys::SystemConfig cfg = qos_config(seed, policies[point]);
        const smc::LinearMapper mapper(cfg.geometry);
        workloads::MixedTrace mix =
            workloads::make_mixed_trace(tenants, mapper);

        Task t;
        t.mixed = run_records(cfg, std::move(mix.interleaved), tenants.size());
        for (std::size_t i = 0; i < tenants.size(); ++i) {
          const QosRun solo = run_records(cfg, mix.solo[i], tenants.size());
          t.slowdown.push_back(ratio(t.mixed.streams[tenants[i].stream].mean,
                                     solo.streams[tenants[i].stream].mean));
        }
        return t;
      });

  Json rows = Json::array();
  for (std::size_t pi = 0; pi < policies.size(); ++pi) {
    const Task& t = all.rep(0)[pi];
    const double unfair = unfairness(t.slowdown);
    Json j = Json::object();
    j["policy"] = policy_name(policies[pi]);
    j["sched"] = smc::to_string(policies[pi]);
    Json streams = Json::array();
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      streams.push_back(stream_json(tenants[i],
                                    t.mixed.streams[tenants[i].stream],
                                    t.slowdown[i]));
    }
    j["streams"] = std::move(streams);
    j["unfairness_max_over_min"] = unfair;
    add_sched_counters(j, t.mixed.stats);
    rows.push_back(std::move(j));
  }

  Json out = Json::object();
  Json tj = Json::array();
  for (const TenantSpec& spec : tenants) {
    Json j = Json::object();
    j["stream"] = static_cast<std::int64_t>(spec.stream);
    j["kind"] = workloads::to_string(spec.kind);
    j["footprint_bytes"] = static_cast<std::int64_t>(spec.footprint_bytes);
    j["passes"] = spec.passes;
    tj.push_back(std::move(j));
  }
  out["tenants"] = std::move(tj);
  out["policies"] = std::move(rows);
  // Per-repetition aggregate: unfairness under the sweep's first policy
  // (FR-FCFS by default — the baseline the QoS policies are judged against).
  out["baseline_unfairness_per_rep"] = per_rep_json(
      all, [](std::span<const Task> r) { return unfairness(r[0].slowdown); });
  return out;
}

// --- qos_tenant_scaling ---------------------------------------------------

std::vector<TenantSpec> scaling_tenants(std::size_t n) {
  std::vector<TenantSpec> t(n);
  t[0].kind = TenantKind::kPointerChase;
  t[0].footprint_bytes = 32 * kKiB;
  for (std::size_t i = 1; i < n; ++i) {
    t[i].kind = TenantKind::kStreamCopy;
    t[i].footprint_bytes = 32 * kKiB;
  }
  for (std::size_t i = 0; i < n; ++i) {
    t[i].stream = static_cast<std::uint32_t>(i);
    t[i].base_addr = i * kTenantSpacing;
  }
  return t;
}

/// Victim (pointer-chase) tail latency as the hog count grows, FR-FCFS vs
/// BLISS. No solo baselines — the axis is the tenant count, and the
/// per-stream mean spread stands in for fairness.
Json run_qos_tenant_scaling(const RunOptions& opts) {
  const std::vector<smc::SchedulerKind> policies = sweep_policies(
      opts, {smc::SchedulerKind::kFrfcfs, smc::SchedulerKind::kBliss});
  const std::size_t counts[] = {2, 4, 8};

  const auto all = sweep(
      opts, std::size(counts) * policies.size(),
      [&](std::uint64_t seed, std::size_t point) {
        const std::size_t n = counts[point / policies.size()];
        const sys::SystemConfig cfg =
            qos_config(seed, policies[point % policies.size()]);
        const smc::LinearMapper mapper(cfg.geometry);
        workloads::MixedTrace mix =
            workloads::make_mixed_trace(scaling_tenants(n), mapper);
        return run_records(cfg, std::move(mix.interleaved), n);
      });

  Json rows = Json::array();
  for (std::size_t ci = 0; ci < std::size(counts); ++ci) {
    for (std::size_t pi = 0; pi < policies.size(); ++pi) {
      const QosRun& r = all.rep(0)[ci * policies.size() + pi];
      double lo = 0.0;
      double hi = 0.0;
      for (const StreamLatency& s : r.streams) {
        if (s.mean <= 0.0) continue;
        if (lo == 0.0 || s.mean < lo) lo = s.mean;
        if (s.mean > hi) hi = s.mean;
      }
      const double spread = ratio(hi, lo);
      Json j = Json::object();
      j["tenants"] = static_cast<std::int64_t>(counts[ci]);
      j["policy"] = policy_name(policies[pi]);
      j["sched"] = smc::to_string(policies[pi]);
      j["victim_p95_cycles"] = r.streams[0].p95;
      j["victim_mean_cycles"] = r.streams[0].mean;
      j["stream_mean_spread"] = spread;
      add_sched_counters(j, r.stats);
      rows.push_back(std::move(j));
    }
  }

  Json out = Json::object();
  out["points"] = std::move(rows);
  // Per-rep aggregate: victim p95 at the widest mix, last policy relative
  // to first (BLISS / FR-FCFS by default; 1.0 for a forced single policy).
  out["widest_tail_ratio_last_over_first_policy_per_rep"] =
      per_rep_json(all, [&](std::span<const QosRun> r) {
        const std::span<const QosRun> widest = r.last(policies.size());
        return ratio(widest.back().streams[0].p95,
                     widest.front().streams[0].p95);
      });
  return out;
}

// --- qos_mitigation -------------------------------------------------------

std::vector<TenantSpec> victim_adversary_tenants() {
  std::vector<TenantSpec> t(2);
  t[0].kind = TenantKind::kPointerChase;
  t[0].footprint_bytes = 32 * kKiB;
  t[1].kind = TenantKind::kHammer;
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i].stream = static_cast<std::uint32_t>(i);
    t[i].base_addr = i * kTenantSpacing;
  }
  return t;
}

/// Who pays for RowHammer mitigation in a multi-tenant mix: a chase victim
/// against a hammer adversary, PARA off/on, FR-FCFS vs BLISS. PARA's
/// targeted refreshes are triggered by the adversary's ACT storm but are
/// served by the shared controller — the question is whether the victim's
/// latency absorbs them.
Json run_qos_mitigation(const RunOptions& opts) {
  const std::vector<smc::SchedulerKind> policies = sweep_policies(
      opts, {smc::SchedulerKind::kFrfcfs, smc::SchedulerKind::kBliss});
  const std::vector<TenantSpec> tenants = victim_adversary_tenants();
  const bool para_points[] = {false, true};

  struct Task {
    QosRun mixed;
    double victim_slowdown = 0.0;
  };
  const auto all = sweep(
      opts, std::size(para_points) * policies.size(),
      [&](std::uint64_t seed, std::size_t point) {
        sys::SystemConfig cfg =
            qos_config(seed, policies[point % policies.size()]);
        if (para_points[point / policies.size()]) {
          cfg.mitigation.kind = smc::mitigation::MitigationKind::kPara;
          cfg.mitigation.seed = seed;
        }
        const smc::LinearMapper mapper(cfg.geometry);
        workloads::MixedTrace mix =
            workloads::make_mixed_trace(tenants, mapper);
        Task t;
        t.mixed = run_records(cfg, std::move(mix.interleaved), tenants.size());
        const QosRun solo = run_records(cfg, mix.solo[0], tenants.size());
        t.victim_slowdown =
            ratio(t.mixed.streams[0].mean, solo.streams[0].mean);
        return t;
      });

  Json rows = Json::array();
  for (std::size_t mi = 0; mi < std::size(para_points); ++mi) {
    for (std::size_t pi = 0; pi < policies.size(); ++pi) {
      const Task& t = all.rep(0)[mi * policies.size() + pi];
      Json j = Json::object();
      j["mitigation"] = para_points[mi] ? "para" : "none";
      j["policy"] = policy_name(policies[pi]);
      j["sched"] = smc::to_string(policies[pi]);
      j["victim"] = stream_json(tenants[0], t.mixed.streams[0],
                                t.victim_slowdown);
      j["adversary"] = stream_json(tenants[1], t.mixed.streams[1]);
      j["neighbor_refreshes"] = t.mixed.mitigation.neighbor_refreshes;
      j["mitigation_triggers"] = t.mixed.mitigation.triggers;
      add_sched_counters(j, t.mixed.stats);
      rows.push_back(std::move(j));
    }
  }

  Json out = Json::object();
  out["points"] = std::move(rows);
  // Victim p95 with PARA over without, under the first policy.
  out["victim_para_tax_first_policy_per_rep"] =
      per_rep_json(all, [&](std::span<const Task> r) {
        return ratio(r[policies.size()].mixed.streams[0].p95,
                     r[0].mixed.streams[0].p95);
      });
  return out;
}

// --- qos_bank_partition ---------------------------------------------------

/// Scheduler-free isolation: the same 4-tenant mix under the
/// line-interleaved mapping (tenants share every bank) vs static bank
/// partitioning (each tenant's slice owns a quarter of the banks), both
/// under plain FR-FCFS. Partitioning makes cross-tenant row conflicts
/// structurally impossible — visible in the victim's tail and in the
/// controller's row-conflict counter.
Json run_qos_bank_partition(const RunOptions& opts) {
  const smc::SchedulerKind policy =
      sweep_policies(opts, {smc::SchedulerKind::kFrfcfs}).front();
  const smc::MappingKind mappings[] = {smc::MappingKind::kLineInterleaved,
                                       smc::MappingKind::kBankPartition};

  // Place each tenant at the base of its own quarter of the physical
  // space: under bankpart that is exactly one bank partition; under the
  // line mapping the same addresses stripe over every bank (the contended
  // baseline).
  const dram::Geometry geo;  // The paper's 1x1 default, as qos_config uses.
  const std::uint64_t quarter = geo.capacity_bytes() / 4;
  std::vector<TenantSpec> tenants(4);
  tenants[0].kind = TenantKind::kPointerChase;
  tenants[0].footprint_bytes = 32 * kKiB;
  for (std::size_t i = 1; i < tenants.size(); ++i) {
    tenants[i].kind = TenantKind::kStreamCopy;
    tenants[i].footprint_bytes = 64 * kKiB;
  }
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    tenants[i].stream = static_cast<std::uint32_t>(i);
    tenants[i].base_addr = i * quarter;
  }

  const auto all = sweep(
      opts, std::size(mappings), [&](std::uint64_t seed, std::size_t point) {
        const smc::MappingKind mapping = mappings[point];
        sys::SystemConfig cfg = qos_config(seed, policy, mapping);
        const auto mapper =
            smc::make_mapper(mapping, cfg.geometry, cfg.bank_partitions);
        workloads::MixedTrace mix =
            workloads::make_mixed_trace(tenants, *mapper);
        return run_records(cfg, std::move(mix.interleaved), tenants.size());
      });

  Json rows = Json::array();
  for (std::size_t mi = 0; mi < std::size(mappings); ++mi) {
    const QosRun& r = all.rep(0)[mi];
    Json j = Json::object();
    j["mapping"] = smc::to_string(mappings[mi]);
    j["policy"] = policy_name(policy);
    Json streams = Json::array();
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      streams.push_back(stream_json(tenants[i], r.streams[i]));
    }
    j["streams"] = std::move(streams);
    add_sched_counters(j, r.stats);
    rows.push_back(std::move(j));
  }

  Json out = Json::object();
  out["partitions"] = static_cast<std::int64_t>(4);
  out["points"] = std::move(rows);
  out["victim_p95_line_over_bankpart_per_rep"] =
      per_rep_json(all, [](std::span<const QosRun> r) {
        return ratio(r[0].streams[0].p95, r[1].streams[0].p95);
      });
  return out;
}

}  // namespace

void register_qos_scenarios(ScenarioRegistry& r) {
  r.add({"qos_mixed_tenants",
         "4-tenant mixed traffic: per-stream tails and fairness per policy",
         "EasyDRAM (DSN 2025), extension: multi-tenant QoS",
         &run_qos_mixed_tenants,
         {{"policies",
           {{"policy", "Policy"},
            {"streams.0.p50_cycles", "chase p50", 0},
            {"streams.0.p95_cycles", "chase p95", 0},
            {"streams.0.p99_cycles", "chase p99", 0},
            {"streams.0.slowdown_vs_alone", "chase slowdown"},
            {"streams.1.slowdown_vs_alone", "copy slowdown"},
            {"streams.2.slowdown_vs_alone", "copy slowdown"},
            {"streams.3.slowdown_vs_alone", "hammer slowdown"},
            {"unfairness_max_over_min", "unfairness"}}}},
         "Expected shape: FR-FCFS serves the copy tenants' row-hit\n"
         "trains first, so the pointer chase (one dependent miss at a\n"
         "time) eats the queueing delay — its slowdown and the\n"
         "max/min unfairness are the baseline's worst numbers. The\n"
         "QoS policies cap (BLISS), rank (ATLAS), or cluster (TCM)\n"
         "the hogs and pull the chase's tail latency back down."});
  r.add({"qos_tenant_scaling",
         "Victim tail latency at 2/4/8 tenants, FR-FCFS vs BLISS",
         "EasyDRAM (DSN 2025), extension: multi-tenant QoS",
         &run_qos_tenant_scaling,
         {{"points",
           {{"tenants", "Tenants"},
            {"policy", "Policy"},
            {"victim_p95_cycles", "chase p95", 0},
            {"victim_mean_cycles", "chase mean", 0},
            {"stream_mean_spread", "mean spread"}}}},
         "Observed shape (default seed): the victim's tail grows\n"
         "with every added hog under both policies. BLISS gives the\n"
         "same victim p95 and mean as FR-FCFS at 4 and 8 tenants and\n"
         "differs at 2 only in the stream mean spread: blacklisting\n"
         "the hogs does not shorten the victim's tail in this mix, so\n"
         "the widest-mix tail ratio reads 1."});
  r.add({"qos_mitigation",
         "Chase victim vs hammer adversary with PARA off/on per policy",
         "EasyDRAM (DSN 2025), extension: multi-tenant QoS",
         &run_qos_mitigation,
         {{"points",
           {{"mitigation", "Mitigation"},
            {"policy", "Policy"},
            {"victim.p95_cycles", "victim p95", 0},
            {"victim.slowdown_vs_alone", "victim slowdown"},
            {"adversary.mean_cycles", "adversary mean", 0},
            {"neighbor_refreshes", "neighbor refreshes"}}}},
         "Observed shape (default seed): the adversary's ACT storm\n"
         "triggers PARA's targeted refreshes, which queue at the\n"
         "shared controller like any other work and raise the\n"
         "victim's slowdown but not its p95. FR-FCFS and BLISS give\n"
         "identical rows with PARA off and on: BLISS does not shield\n"
         "the victim from that tax in this mix."});
  r.add({"qos_bank_partition",
         "Tenant isolation: line-interleaved vs static bank partitions",
         "EasyDRAM (DSN 2025), extension: multi-tenant QoS",
         &run_qos_bank_partition,
         {{"points",
           {{"mapping", "Mapping"},
            {"streams.0.p50_cycles", "chase p50", 0},
            {"streams.0.p95_cycles", "chase p95", 0},
            {"sched_row_hits", "row hits"},
            {"sched_row_conflicts", "row conflicts"}}}},
         "Expected shape: line interleaving strews every tenant\n"
         "over every bank, so the hogs keep closing the rows the\n"
         "chase is about to need; bank partitioning pins each tenant\n"
         "to its own banks, cutting cross-tenant row conflicts to\n"
         "zero by construction — no scheduler cooperation needed."});
}

}  // namespace easydram::cli
