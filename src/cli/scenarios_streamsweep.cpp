// Working-set characterization scenarios: STREAM bandwidth kernels and a
// dependent-load pointer chase, each swept across ~8 working-set sizes
// spanning the modelled hierarchy's L1 -> LLC -> DRAM transitions. These
// are the es989-exemplar-style bandwidth-vs-size / latency-vs-size curves,
// run entirely on emulated time — every number is a pure function of the
// configuration, so both scenarios are golden-hashed and bit-identical at
// any host parallelism.
//
// Like the qos_* scenarios, the cache hierarchy is scaled down (8 KiB L1,
// 64 KiB L2) so the whole sweep spans L1-resident to DRAM-bound footprints
// at CI-sized traces. The bandwidth sweep additionally runs the core in
// its in-order (blocking-load) configuration: the out-of-order model
// retires cache-hitting independent loads for free, which would make the
// L1 and L2 plateaus indistinguishable — exposing each level's service
// latency in the sustained rate is exactly what the curve is for.

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "cli/scenario.hpp"
#include "cpu/trace.hpp"
#include "sys/system.hpp"
#include "workloads/streamsweep.hpp"

namespace easydram::cli {
namespace {

using workloads::LatencySweepParams;
using workloads::StreamKernel;
using workloads::StreamSweepParams;

constexpr std::uint64_t kSweepL1Bytes = 8 * 1024;
constexpr std::uint64_t kSweepL2Bytes = 64 * 1024;
/// Checkpoint indices into sweep_working_sets: comfortably L1-resident
/// (l1/2), past L1 but comfortably L2-resident (l2/2), and far past L2
/// (8*l2) — the three plateaus the monotonicity contract compares.
constexpr std::size_t kL1Point = 0;
constexpr std::size_t kL2Point = 3;
constexpr std::size_t kDramPoint = 7;

/// Measured passes scale inversely with the footprint so small working
/// sets amortize their cold start over more traffic while DRAM-bound
/// points stay CI-cheap; one warm pass primes the caches outside the
/// measured window either way.
int measured_passes_for(std::uint64_t working_set_bytes) {
  const std::uint64_t p = (128 * 1024) / working_set_bytes;
  return static_cast<int>(std::clamp<std::uint64_t>(p, 2, 32));
}

sys::SystemConfig sweep_config(const RunOptions& opts, std::uint64_t seed,
                               bool blocking_loads) {
  sys::SystemConfig cfg = sys::jetson_nano_time_scaling();
  cfg.variation.seed = seed;
  cfg.caches.l1 = {kSweepL1Bytes, 4, 64};
  cfg.caches.l2 = {kSweepL2Bytes, 8, 64};
  cfg.core.blocking_loads = blocking_loads;
  if (opts.sched.has_value()) cfg.sched = *opts.sched;
  return cfg;
}

/// One marker-bounded trace run: the cycles between the two markers plus
/// the whole-run counters.
struct TraceRun {
  std::int64_t measured_cycles = 0;
  cpu::RunResult run;
};

TraceRun run_trace(const sys::SystemConfig& cfg,
                   std::vector<cpu::TraceRecord> records) {
  sys::EasyDramSystem sysm(cfg);
  cpu::VectorTrace trace(std::move(records));
  TraceRun t;
  t.run = sysm.run(trace);
  EASYDRAM_EXPECTS(t.run.markers.size() == 2);
  t.measured_cycles = t.run.markers[1] - t.run.markers[0];
  return t;
}

double per_kilocycle(std::uint64_t units, std::int64_t cycles) {
  return cycles > 0
             ? static_cast<double>(units) * 1000.0 / static_cast<double>(cycles)
             : 0.0;
}

// --- stream_sweep ---------------------------------------------------------

struct StreamPoint {
  StreamSweepParams params;
  TraceRun t;
  std::uint64_t measured_bytes = 0;
  double bytes_per_kcycle = 0.0;
};

Json run_stream_sweep(const RunOptions& opts) {
  const std::vector<std::uint64_t> sizes =
      workloads::sweep_working_sets(kSweepL1Bytes, kSweepL2Bytes);
  const auto kernels = std::size(workloads::kAllStreamKernels);

  // Points: every size of the first kernel, then of the next.
  const auto all = sweep(
      opts, kernels * sizes.size(), [&](std::uint64_t seed, std::size_t point) {
        StreamPoint pt;
        pt.params.kernel = workloads::kAllStreamKernels[point / sizes.size()];
        pt.params.working_set_bytes = sizes[point % sizes.size()];
        pt.params.measured_passes =
            measured_passes_for(pt.params.working_set_bytes);
        const sys::SystemConfig cfg =
            sweep_config(opts, seed, /*blocking_loads=*/true);
        pt.t = run_trace(cfg, workloads::make_stream_trace(pt.params));
        pt.measured_bytes =
            workloads::stream_bytes_per_pass(pt.params) *
            static_cast<std::uint64_t>(pt.params.measured_passes);
        pt.bytes_per_kcycle =
            per_kilocycle(pt.measured_bytes, pt.t.measured_cycles);
        return pt;
      });
  const std::span<const StreamPoint> rep0 = all.rep(0);

  bool monotone = true;
  Json kernel_rows = Json::array();
  for (std::size_t ki = 0; ki < kernels; ++ki) {
    const std::span<const StreamPoint> pts =
        rep0.subspan(ki * sizes.size(), sizes.size());
    Json j = Json::object();
    j["kernel"] = workloads::to_string(workloads::kAllStreamKernels[ki]);
    j["arrays"] = static_cast<std::int64_t>(
        workloads::stream_array_count(workloads::kAllStreamKernels[ki]));
    Json points = Json::array();
    for (std::size_t si = 0; si < sizes.size(); ++si) {
      const StreamPoint& pt = pts[si];
      Json p = Json::object();
      p["working_set_bytes"] =
          static_cast<std::int64_t>(pt.params.working_set_bytes);
      p["lines_per_array"] =
          static_cast<std::int64_t>(workloads::stream_lines_per_array(pt.params));
      p["measured_passes"] = pt.params.measured_passes;
      p["measured_bytes"] = static_cast<std::int64_t>(pt.measured_bytes);
      p["measured_cycles"] = pt.t.measured_cycles;
      p["bytes_per_kcycle"] = pt.bytes_per_kcycle;
      p["l1_misses"] = pt.t.run.l1_misses;
      p["l2_misses"] = pt.t.run.l2_misses;
      points.push_back(std::move(p));
    }
    j["points"] = std::move(points);
    const double l1 = pts[kL1Point].bytes_per_kcycle;
    const double l2 = pts[kL2Point].bytes_per_kcycle;
    const double dram = pts[kDramPoint].bytes_per_kcycle;
    const bool k_monotone = l1 > l2 && l2 > dram;
    monotone = monotone && k_monotone;
    j["monotone_bandwidth_drop"] = k_monotone;
    j["l1_over_l2_bandwidth"] = l2 > 0.0 ? l1 / l2 : 0.0;
    j["l2_over_dram_bandwidth"] = dram > 0.0 ? l2 / dram : 0.0;
    kernel_rows.push_back(std::move(j));
  }

  Json out = Json::object();
  out["l1_bytes"] = static_cast<std::int64_t>(kSweepL1Bytes);
  out["l2_bytes"] = static_cast<std::int64_t>(kSweepL2Bytes);
  Json sj = Json::array();
  for (const std::uint64_t s : sizes) {
    sj.push_back(static_cast<std::int64_t>(s));
  }
  out["working_set_bytes"] = std::move(sj);
  out["kernels"] = std::move(kernel_rows);
  out["monotone_bandwidth_drop_all_kernels"] = monotone;
  // Per-repetition aggregate: the copy kernel's L1-over-DRAM bandwidth
  // ratio — the whole-curve compression the hierarchy buys.
  out["copy_l1_over_dram_bandwidth_per_rep"] =
      per_rep_json(all, [](std::span<const StreamPoint> pts) {
        const double dram = pts[kDramPoint].bytes_per_kcycle;
        return dram > 0.0 ? pts[kL1Point].bytes_per_kcycle / dram : 0.0;
      });
  return out;
}

// --- latency_sweep --------------------------------------------------------

struct LatencyPoint {
  LatencySweepParams params;
  TraceRun t;
  std::uint64_t measured_loads = 0;
  double cycles_per_load = 0.0;
};

Json run_latency_sweep(const RunOptions& opts) {
  const std::vector<std::uint64_t> sizes =
      workloads::sweep_working_sets(kSweepL1Bytes, kSweepL2Bytes);

  const auto all =
      sweep(opts, sizes.size(), [&](std::uint64_t seed, std::size_t point) {
        LatencyPoint pt;
        pt.params.working_set_bytes = sizes[point];
        pt.params.measured_passes =
            measured_passes_for(pt.params.working_set_bytes);
        // The chase permutation is part of the workload, not the chip: its
        // seed stays fixed across repetitions (like lmbench's), while the
        // chip's variation seed follows the rep stream.
        const sys::SystemConfig cfg =
            sweep_config(opts, seed, /*blocking_loads=*/false);
        pt.t = run_trace(cfg, workloads::make_latency_trace(pt.params));
        pt.measured_loads =
            workloads::latency_loads_per_pass(pt.params) *
            static_cast<std::uint64_t>(pt.params.measured_passes);
        pt.cycles_per_load =
            pt.measured_loads > 0
                ? static_cast<double>(pt.t.measured_cycles) /
                      static_cast<double>(pt.measured_loads)
                : 0.0;
        return pt;
      });
  const std::span<const LatencyPoint> rep0 = all.rep(0);

  Json points = Json::array();
  for (std::size_t si = 0; si < sizes.size(); ++si) {
    const LatencyPoint& pt = rep0[si];
    Json p = Json::object();
    p["working_set_bytes"] =
        static_cast<std::int64_t>(pt.params.working_set_bytes);
    p["lines"] = static_cast<std::int64_t>(
        workloads::latency_loads_per_pass(pt.params));
    p["measured_passes"] = pt.params.measured_passes;
    p["measured_loads"] = static_cast<std::int64_t>(pt.measured_loads);
    p["measured_cycles"] = pt.t.measured_cycles;
    p["cycles_per_load"] = pt.cycles_per_load;
    p["l2_misses"] = pt.t.run.l2_misses;
    points.push_back(std::move(p));
  }

  const double l1 = rep0[kL1Point].cycles_per_load;
  const double l2 = rep0[kL2Point].cycles_per_load;
  const double dram = rep0[kDramPoint].cycles_per_load;
  const bool monotone = l1 < l2 && l2 < dram;

  Json out = Json::object();
  out["l1_bytes"] = static_cast<std::int64_t>(kSweepL1Bytes);
  out["l2_bytes"] = static_cast<std::int64_t>(kSweepL2Bytes);
  out["points"] = std::move(points);
  out["monotone_latency_rise"] = monotone;
  out["dram_over_l1_latency_per_rep"] =
      per_rep_json(all, [](std::span<const LatencyPoint> pts) {
        return pts[kL1Point].cycles_per_load > 0.0
                   ? pts[kDramPoint].cycles_per_load /
                         pts[kL1Point].cycles_per_load
                   : 0.0;
      });
  return out;
}

}  // namespace

void register_streamsweep_scenarios(ScenarioRegistry& r) {
  r.add({"stream_sweep",
         "STREAM copy/scale/add/triad bandwidth across L1/LLC/DRAM sizes",
         "EasyDRAM (DSN 2025), extension: workload characterization",
         &run_stream_sweep,
         {{"kernels",
           {{"kernel", "B/kcycle at"},
            {"points.0.bytes_per_kcycle", "4K", 1},
            {"points.1.bytes_per_kcycle", "8K", 1},
            {"points.2.bytes_per_kcycle", "16K", 1},
            {"points.3.bytes_per_kcycle", "32K", 1},
            {"points.4.bytes_per_kcycle", "64K", 1},
            {"points.5.bytes_per_kcycle", "128K", 1},
            {"points.6.bytes_per_kcycle", "256K", 1},
            {"points.7.bytes_per_kcycle", "512K", 1}}}},
         "Expected shape: each kernel's sustained rate is flat while\n"
         "the arrays fit a level, then drops at every capacity wall —\n"
         "L1-resident points stream at hit speed, the L2 plateau pays\n"
         "the L2 service latency per line, and past the LLC every\n"
         "pass goes to DRAM (plus writeback traffic). The in-order\n"
         "core configuration makes each level's latency visible in\n"
         "the rate; see docs/scenarios.md."});
  r.add({"latency_sweep",
         "Dependent-load pointer-chase latency across L1/LLC/DRAM sizes",
         "EasyDRAM (DSN 2025), extension: workload characterization",
         &run_latency_sweep,
         {{"points",
           {{"working_set_bytes", "Working set (bytes)"},
            {"measured_loads", "loads"},
            {"cycles_per_load", "cycles/load"}}}},
         "Expected shape: the chase's single-cycle permutation makes\n"
         "every load depend on the previous one, so cycles/load is the\n"
         "exposed latency of whichever level holds the working set —\n"
         "the L1 hit time, then the L2 service latency, then the full\n"
         "DRAM round trip (row misses dominating, since the chase\n"
         "order strews lines across rows)."});
}

}  // namespace easydram::cli
