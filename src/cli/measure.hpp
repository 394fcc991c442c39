#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "sys/system.hpp"
#include "workloads/copyinit.hpp"

namespace easydram::cli {

/// The v2 measurement contract's reduction of one timed repetition series
/// (see docs/bench.md): the first `warmup` samples are discarded (cold
/// caches, allocator growth, frequency ramp — systematic, not noise), and
/// the summary statistics describe the `measured` remainder. The median is
/// the headline (robust to one-sided noise spikes), `best` is kept for
/// continuity with the v1 best-of-N files, and `cv` (stddev / median) is
/// the stability score the CI gate thresholds.
struct RepStats {
  int warmup = 0;    ///< Samples discarded from the front.
  int measured = 0;  ///< Samples the statistics describe.
  double best = 0.0;
  double mean = 0.0;
  double median = 0.0;
  double p95 = 0.0;
  double stddev = 0.0;
  double cv = 0.0;  ///< stddev / median; 0 when the median is 0.
};

/// Reduces `samples` (warmup series first, measured series after) under
/// the contract above. Throws StatsError when fewer than one measured
/// sample remains or when any sample is non-finite or negative — a bench
/// that produced NaN must fail loudly, not average it away.
RepStats reduce_reps(std::span<const double> samples, int warmup);

/// Outcome of one Copy/Init measurement.
struct CopyInitResult {
  Cycles measured_cycles{};  ///< Between the two markers.
  std::int64_t rowclones = 0;
  std::int64_t fallbacks = 0;
};

/// Builds a fresh EasyDRAM system for `cfg`, prepares the RowClone
/// allocation plan (verification runs uncharged, as setup), pre-loads the
/// source/pattern rows, and runs one Copy or Init workload variant.
CopyInitResult run_copyinit_easydram(const sys::SystemConfig& cfg,
                                     workloads::CopyInitParams params,
                                     std::size_t rows, int verify_trials = 8);

/// Execution-time speedup of the RowClone variant over the CPU load/store
/// baseline on an EasyDRAM system (Figs. 10/11 measurement).
double copyinit_speedup_easydram(const sys::SystemConfig& cfg,
                                 workloads::CopyInitParams::Kind kind,
                                 std::size_t rows, bool clflush);

/// The same speedup on the Ramulator-2.0-like software simulator, with its
/// modelling gap (paper footnote 6): every RowClone pair succeeds.
double copyinit_speedup_ramulator(workloads::CopyInitParams::Kind kind,
                                  std::size_t rows, bool clflush);

/// Fig. 2 components of one dependent-load memory request.
struct RequestBreakdown {
  double processing_ns = 0;
  double scheduling_ns = 0;
  double memory_ns = 0;
};

/// One dependent load miss with a fixed instruction preamble, measured on
/// the given system configuration. Components: processing = preamble
/// instructions at the processor's clock; memory = DRAM-interface busy
/// time; scheduling = everything else in the request's latency.
RequestBreakdown measure_request_breakdown(const sys::SystemConfig& cfg,
                                           double clock_hz);

/// Average cycles per load of the lmbench pointer chase over a buffer of
/// `buffer_bytes` (Fig. 8 measurement). Pass count scales inversely with
/// the buffer so cold misses do not dominate small buffers.
double cycles_per_load(const sys::SystemConfig& cfg,
                       std::uint64_t buffer_bytes,
                       std::uint64_t chase_seed = 0x17B);

/// Execution cycles of one named PolyBench kernel on a fresh system.
Cycles run_kernel_cycles(const sys::SystemConfig& cfg,
                         std::string_view kernel);

/// Fig. 13 per-kernel result: tRCD-reduction speedup on EasyDRAM (Bloom-
/// directed, run to completion) and on the Ramulator-2.0-like baseline
/// (per-row profiled values), plus the kernel's memory intensity.
struct TrcdSpeedup {
  double easy = 0;
  double ram = 0;
  double mpkc = 0;  ///< L2 (LLC) misses per kilo-cycle, baseline run.
};

TrcdSpeedup measure_trcd_speedup(std::string_view kernel, std::uint64_t seed);

/// Fig. 14 per-kernel result. `ram_mhz` divides simulated cycles by *host*
/// wall-clock — the one measurement in this repository that reads a real
/// clock, so it is load-dependent and non-deterministic by design.
struct SimSpeed {
  double easy_mhz = 0;
  double ram_mhz = 0;
  double ratio = 0;
};

SimSpeed measure_sim_speed(std::string_view kernel, std::uint64_t seed);

}  // namespace easydram::cli
