// End-to-end bench program: runs one workload of the repository
// benchmark in this process and prints one JSON document with every raw
// measurement. e2ebench/run_bench.py reduces the documents of many runs.
//
// One run is: input generation and system construction (the set-up, timed
// on its own), one discarded warmup rep, then measured reps until both
// `--reps` and `--seconds` are satisfied. Every workload is a closed loop:
// the core (or the burst client) waits on its own completions.
//
// Layers are measured from outside, through public entry points only. A
// traced rep drives cpu::Core::run through a timing cpu::MemoryBackend
// decorator over EasyDramSystem, then replays the drain that
// EasyDramSystem::run does after its core finishes; it installs a timing
// smc::Scheduler decorator through SystemConfig::scheduler_factory.
// Traced reps must leave every system in the same state as the untraced
// reps, bit for bit; counts come from the untraced reps.
//
//   easydram_bench --workload polybench|burst8|tenants|chase --seed N
//                  [--reps N] [--seconds S] [--scale X] [--trace]

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cli/json.hpp"
#include "common/rng.hpp"
#include "cpu/core.hpp"
#include "cpu/trace.hpp"
#include "smc/addr_map.hpp"
#include "smc/scheduler.hpp"
#include "sys/system.hpp"
#include "workloads/lmbench.hpp"
#include "workloads/mixed.hpp"
#include "workloads/polybench.hpp"

namespace {

using namespace easydram;
using cli::Json;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr std::uint64_t kMiB = 1024 * 1024;

/// FNV-1a over 64-bit values: the model digest every rep must reproduce.
class Digest {
 public:
  void add(std::int64_t v) {
    auto u = static_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ (u & 0xFF)) * 0x100000001B3ULL;
      u >>= 8;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

/// Times every call into the memory system and records each request's
/// modeled latency (release cycle minus issue cycle). Ids are dense from 1
/// per system, so the issue cycles live in a vector indexed by id.
class TimedBackend final : public cpu::MemoryBackend {
 public:
  explicit TimedBackend(cpu::MemoryBackend& inner) : inner_(inner) {}

  void set_stream(std::uint32_t stream) override { inner_.set_stream(stream); }
  std::uint64_t submit_read(std::uint64_t paddr, std::int64_t now) override {
    return timed_submit(now, [&] { return inner_.submit_read(paddr, now); });
  }
  std::uint64_t submit_write(std::uint64_t paddr, std::int64_t now) override {
    return timed_submit(now, [&] { return inner_.submit_write(paddr, now); });
  }
  std::uint64_t submit_rowclone(std::uint64_t src, std::uint64_t dst,
                                std::int64_t now) override {
    return timed_submit(now,
                        [&] { return inner_.submit_rowclone(src, dst, now); });
  }
  std::uint64_t submit_profile(std::uint64_t paddr, Picoseconds trcd,
                               std::int64_t now) override {
    return timed_submit(
        now, [&] { return inner_.submit_profile(paddr, trcd, now); });
  }
  cpu::Completion wait(std::uint64_t id) override {
    const auto t0 = Clock::now();
    const cpu::Completion c = inner_.wait(id);
    wait_s += since(t0);
    ++wait_calls;
    latencies.push_back(c.release_cycle - issue_cycle_[id]);
    return c;
  }

  double submit_s = 0.0;
  double wait_s = 0.0;
  std::int64_t submit_calls = 0;
  std::int64_t wait_calls = 0;
  std::vector<std::int64_t> latencies;

 private:
  template <typename Submit>
  std::uint64_t timed_submit(std::int64_t now, Submit submit) {
    const auto t0 = Clock::now();
    const std::uint64_t id = submit();
    submit_s += since(t0);
    ++submit_calls;
    if (id >= issue_cycle_.size()) issue_cycle_.resize(id + 1);
    issue_cycle_[id] = now;
    return id;
  }

  cpu::MemoryBackend& inner_;
  std::vector<std::int64_t> issue_cycle_;
};

/// Times every scheduling decision of one channel's controller. Each
/// channel gets its own instance, so pump workers never share one; the
/// program sums the instances after the run, when the pump has stopped.
class TimedScheduler final : public smc::Scheduler {
 public:
  explicit TimedScheduler(std::unique_ptr<smc::Scheduler> inner)
      : inner_(std::move(inner)) {}

  std::optional<std::size_t> pick(const smc::PickContext& ctx,
                                  std::size_t& scanned_entries) override {
    const auto t0 = Clock::now();
    const std::optional<std::size_t> r = inner_->pick(ctx, scanned_entries);
    pick_s += since(t0);
    ++picks;
    return r;
  }
  std::string_view name() const override { return inner_->name(); }

  double pick_s = 0.0;
  std::int64_t picks = 0;

 private:
  std::unique_ptr<smc::Scheduler> inner_;
};

/// Host-time split of one traced rep (seconds).
struct LayerTimes {
  double submit_s = 0.0;
  double wait_s = 0.0;
  double drain_s = 0.0;  ///< EasyDramSystem::run's work after the core.
  double pick_s = 0.0;
  std::int64_t submit_calls = 0;
  std::int64_t wait_calls = 0;
  std::int64_t pick_calls = 0;

  void add(const TimedBackend& mem, std::span<TimedScheduler* const> scheds) {
    submit_s += mem.submit_s;
    wait_s += mem.wait_s;
    submit_calls += mem.submit_calls;
    wait_calls += mem.wait_calls;
    for (const TimedScheduler* s : scheds) {
      pick_s += s->pick_s;
      pick_calls += s->picks;
    }
  }
};

/// Modeled outputs of one untraced rep, summed over the rep's systems.
struct Model {
  cpu::RunResult run;  ///< Summed core counters (burst8: none).
  std::int64_t cycles = 0;
  Picoseconds wall{};
  smc::ApiStats smc;
  smc::mitigation::MitigationStats mitigation;

  void add(const cpu::RunResult& r, std::int64_t rep_cycles,
           const sys::EasyDramSystem& sysm) {
    run.instructions += r.instructions;
    run.loads += r.loads;
    run.stores += r.stores;
    run.l1_misses += r.l1_misses;
    run.l2_misses += r.l2_misses;
    cycles += rep_cycles;
    wall += sysm.wall();
    const smc::ApiStats s = sysm.smc_stats();
    smc.requests_received += s.requests_received;
    smc.batches_executed += s.batches_executed;
    smc.commands_executed += s.commands_executed;
    smc.dram_busy += s.dram_busy;
    smc.ecc_corrected += s.ecc_corrected;
    smc.scrub_reads += s.scrub_reads;
    smc.sched_picks += s.sched_picks;
    smc.sched_row_hits += s.sched_row_hits;
    smc.sched_entries_scanned += s.sched_entries_scanned;
    mitigation.neighbor_refreshes += sysm.mitigation_stats().neighbor_refreshes;
  }
};

/// Invariants every rep must satisfy; a rep that breaks one has failed.
struct Checks {
  bool responses_match = true;    ///< Each request got exactly one response.
  bool ecc_clean = true;          ///< No ECC escape, no uncorrectable error.
  bool completions_clean = true;  ///< burst8: dense ids, each completed ok.

  bool ok() const { return responses_match && ecc_clean && completions_clean; }

  void merge(const Checks& o) {
    responses_match = responses_match && o.responses_match;
    ecc_clean = ecc_clean && o.ecc_clean;
    completions_clean = completions_clean && o.completions_clean;
  }

  void check_system(const sys::EasyDramSystem& sysm) {
    const smc::ApiStats s = sysm.smc_stats();
    responses_match =
        responses_match && s.requests_received == s.responses_sent;
    ecc_clean = ecc_clean && s.ecc_escaped == 0 && s.ecc_uncorrectable == 0;
  }
};

/// Everything one rep yields. `digest` covers what the client sees (core
/// results or burst completions) and each system's wall clock and
/// counters; every rep, traced or not, must reproduce it.
struct Rep {
  double host_s = 0.0;
  double construct_s = 0.0;
  std::uint64_t digest = 0;
  Checks checks;
  Model model;
  LayerTimes layers;
  std::vector<std::int64_t> latencies;
};

void digest_run(Digest& d, const cpu::RunResult& r) {
  for (const std::int64_t v :
       {r.cycles, r.instructions, r.loads, r.stores, r.l1_misses,
        r.l2_misses, r.mem_reads, r.mem_writes, r.rowclones,
        r.rowclone_fallbacks, r.flushes}) {
    d.add(v);
  }
  for (const std::int64_t m : r.markers) d.add(m);
}

void digest_system(Digest& d, const sys::EasyDramSystem& sysm) {
  const smc::ApiStats s = sysm.smc_stats();
  for (const std::int64_t v :
       {sysm.wall().count, s.requests_received, s.responses_sent,
        s.batches_executed, s.commands_executed, s.refreshes_issued,
        s.refreshes_skipped, s.dram_busy.count, s.ecc_corrected,
        s.ecc_uncorrectable, s.scrub_reads, s.retries_issued, s.rows_retired,
        s.ecc_escaped, s.sched_picks, s.sched_row_hits, s.sched_row_conflicts,
        s.sched_entries_scanned, sysm.mitigation_stats().neighbor_refreshes}) {
    d.add(v);
  }
}

/// Installs the timing scheduler decorator and collects its instances. The
/// decorator wraps the policy the system would build itself: `sched`, or
/// with kAuto the legacy `use_frfcfs` switch.
sys::SystemConfig traced_config(sys::SystemConfig cfg,
                                std::vector<TimedScheduler*>& scheds) {
  const smc::SchedulerKind kind =
      cfg.sched != smc::SchedulerKind::kAuto ? cfg.sched
      : cfg.use_frfcfs                       ? smc::SchedulerKind::kFrfcfs
                                             : smc::SchedulerKind::kFcfs;
  cfg.scheduler_factory = [&scheds, kind] {
    auto s = std::make_unique<TimedScheduler>(smc::make_scheduler(kind));
    scheds.push_back(s.get());
    return std::unique_ptr<smc::Scheduler>(std::move(s));
  };
  return cfg;
}

/// Records that take a fresh core to `cycles` without a memory access:
/// kDrain records whose instructions add up to `cycles` issue slots.
std::vector<cpu::TraceRecord> advance_to(std::int64_t cycles,
                                         std::uint32_t issue_width) {
  constexpr std::uint64_t kChunk = std::uint64_t{1} << 31;
  std::vector<cpu::TraceRecord> records;
  for (std::uint64_t left = static_cast<std::uint64_t>(cycles) * issue_width;
       left > 0;) {
    const std::uint64_t n = std::min(left, kChunk);
    cpu::TraceRecord r;
    r.op = cpu::Op::kDrain;
    r.gap_instructions = static_cast<std::uint32_t>(n - 1);
    records.push_back(r);
    left -= n;
  }
  return records;
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs from the seed (replacing any previous ones).
  virtual void generate(std::uint64_t seed, double scale) = 0;
  virtual Rep rep(bool traced) = 0;
};

std::size_t scaled(std::size_t n, double scale) {
  return std::max<std::size_t>(1, static_cast<std::size_t>(
                                      static_cast<double>(n) * scale));
}

/// A workload replayed by the core model: one fresh system per trace.
/// Untraced reps go through EasyDramSystem::run. Traced reps drive
/// cpu::Core::run directly over the timing decorators, then replay the
/// rest of EasyDramSystem::run (the final wall-clock reconcile, the pump to
/// idle and out of critical mode, the last completion drain). That work is
/// private to run(), so the replay is run() itself on a trace that only
/// advances its fresh core to the traced core's final cycle.
class TraceWorkload : public Workload {
 public:
  Rep rep(bool traced) override {
    Rep out;
    Digest digest;
    for (const std::vector<cpu::TraceRecord>& records : traces_) {
      std::vector<TimedScheduler*> scheds;
      const sys::SystemConfig cfg =
          traced ? traced_config(cfg_, scheds) : cfg_;
      auto t0 = Clock::now();
      sys::EasyDramSystem sysm(cfg);
      out.construct_s += since(t0);
      cpu::SpanTrace trace(records);
      cpu::RunResult r;
      if (traced) {
        TimedBackend mem(sysm);
        cpu::Core core(cfg.core, cfg.caches);
        t0 = Clock::now();
        r = core.run(trace, mem);
        const std::vector<cpu::TraceRecord> tail =
            advance_to(r.cycles, cfg.core.issue_width);
        cpu::SpanTrace tail_trace(tail);
        const auto t1 = Clock::now();
        sysm.run(tail_trace);
        out.layers.drain_s += since(t1);
        out.host_s += since(t0);
        out.layers.add(mem, scheds);
        out.latencies.insert(out.latencies.end(), mem.latencies.begin(),
                             mem.latencies.end());
      } else {
        t0 = Clock::now();
        r = sysm.run(trace);
        out.host_s += since(t0);
        out.model.add(r, r.cycles, sysm);
      }
      digest_system(digest, sysm);
      digest_run(digest, r);
      out.checks.check_system(sysm);
    }
    out.digest = digest.value();
    return out;
  }

 protected:
  sys::SystemConfig cfg_;
  std::vector<std::vector<cpu::TraceRecord>> traces_;

  void truncate(double scale) {
    if (scale >= 1.0) return;
    for (auto& t : traces_) {
      t.resize(scaled(t.size(), scale));
      t.shrink_to_fit();
    }
  }
};

/// The Fig. 13/14 PolyBench kernels on the paper's Jetson Nano time-scaling
/// target, one channel: the paper's simulation-speed workload.
class PolybenchWorkload final : public TraceWorkload {
 public:
  void generate(std::uint64_t seed, double scale) override {
    static constexpr std::string_view kKernels[] = {
        "gemver", "mvt", "syrk", "gemm", "correlation", "trisolv", "durbin"};
    cfg_ = sys::jetson_nano_time_scaling();
    cfg_.variation.seed = seed;
    traces_.clear();
    // Small scales also drop kernels, so a smoke run stays small.
    const std::size_t kernels =
        std::min(std::size(kKernels), scaled(std::size(kKernels), scale));
    for (std::size_t k = 0; k < kernels; ++k) {
      traces_.push_back(workloads::generate_kernel(kKernels[k]));
    }
    truncate(scale);
  }
};

/// lmbench dependent chase: one request outstanding at a time, so the
/// per-request submit->wait path dominates.
class ChaseWorkload final : public TraceWorkload {
 public:
  void generate(std::uint64_t seed, double scale) override {
    cfg_ = sys::jetson_nano_time_scaling();
    cfg_.variation.seed = seed;
    traces_.clear();
    traces_.push_back(workloads::make_lmbench_chase(16 * kMiB, 4, 0, seed));
    truncate(scale);
  }
};

/// Four tenants (chase, two stream copies, hammer) under ATLAS with PARA,
/// SEC-DED ECC with patrol scrub, and transient fault injection.
class TenantsWorkload final : public TraceWorkload {
 public:
  void generate(std::uint64_t seed, double scale) override {
    cfg_ = sys::jetson_nano_time_scaling();
    cfg_.variation.seed = seed;
    cfg_.sched = smc::SchedulerKind::kAtlas;
    cfg_.mitigation.kind = smc::mitigation::MitigationKind::kPara;
    cfg_.mitigation.seed = seed;
    cfg_.ecc.enabled = true;
    cfg_.ecc.scrub = true;
    cfg_.ecc.scrub_lines_per_slot = 8;
    cfg_.faults.enabled = true;
    cfg_.faults.seed = seed;
    // Only written lines carry check bits, and no tenant reads a line it
    // or another tenant wrote, so the corrections come from the patrol
    // scrubber; the rate is high enough that every seed corrects some.
    // Single-bit upsets only: every one is correctable, so no request (and
    // no scrub read) may end uncorrectable.
    cfg_.faults.transient_read_rate = 1e-2;
    cfg_.faults.transient_double_bit_fraction = 0.0;
    cfg_.track_stream_latency = true;

    using workloads::TenantKind;
    std::vector<workloads::TenantSpec> tenants(4);
    tenants[0].kind = TenantKind::kPointerChase;
    tenants[0].footprint_bytes = 4 * kMiB;
    tenants[1].kind = TenantKind::kStreamCopy;
    tenants[1].footprint_bytes = 8 * kMiB;
    tenants[2].kind = TenantKind::kStreamCopy;
    tenants[2].footprint_bytes = 8 * kMiB;
    tenants[3].kind = TenantKind::kHammer;
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      tenants[i].stream = static_cast<std::uint32_t>(i);
      tenants[i].base_addr = i * 64 * kMiB;
      tenants[i].passes = 4;
    }
    tenants[3].passes = 16;
    const smc::LinearMapper mapper(cfg_.geometry);
    traces_.clear();
    traces_.push_back(workloads::make_mixed_trace(tenants, mapper).interleaved);
    truncate(scale);
  }
};

/// A direct submit/wait client with no core over 8 interleaved channels
/// and 4 pump workers: windows of 4096 requests (3 reads to 1 write, half
/// sequential lines, half seeded random lines in 256 MiB), each submitted
/// in full and then waited on id by id.
class Burst8Workload final : public Workload {
 public:
  void generate(std::uint64_t seed, double scale) override {
    cfg_ = sys::jetson_nano_time_scaling();
    cfg_.variation.seed = seed;
    cfg_.geometry.channels = 8;
    cfg_.mapping = smc::MappingKind::kChannelInterleaved;
    cfg_.tile.incoming_fifo_depth = 512;
    cfg_.pump_workers = 4;

    constexpr std::uint64_t kLines = 256 * kMiB / 64;
    const std::size_t n = kWindow * scaled(128, scale);
    Xoshiro256ss rng(seed);
    reqs_.clear();
    reqs_.reserve(n);
    std::uint64_t seq = rng.next_below(kLines);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t line =
          i % 2 == 0 ? seq++ % kLines : rng.next_below(kLines);
      reqs_.push_back({line * 64, rng.next_below(4) == 0});
    }
  }

  Rep rep(bool traced) override {
    Rep out;
    std::vector<TimedScheduler*> scheds;
    const sys::SystemConfig cfg = traced ? traced_config(cfg_, scheds) : cfg_;
    const auto t0 = Clock::now();
    sys::EasyDramSystem sysm(cfg);
    out.construct_s = since(t0);
    Digest digest;
    if (traced) {
      TimedBackend mem(sysm);
      drive(mem, out, digest);
      out.layers.add(mem, scheds);
      out.latencies = std::move(mem.latencies);
    } else {
      const std::int64_t cycles = drive(sysm, out, digest);
      out.model.add(cpu::RunResult{}, cycles, sysm);
    }
    digest_system(digest, sysm);
    out.digest = digest.value();
    out.checks.check_system(sysm);
    out.checks.responses_match =
        out.checks.responses_match &&
        sysm.smc_stats().requests_received ==
            static_cast<std::int64_t>(reqs_.size());
    return out;
  }

 private:
  static constexpr std::size_t kWindow = 4096;

  struct Req {
    std::uint64_t addr;
    bool write;
  };

  /// The closed loop, timed. Templated so untraced reps call the final
  /// EasyDramSystem directly. Every id must be the next in the dense id
  /// stream (so no id is handed out twice) and must complete cleanly;
  /// each is waited on exactly once. Adds every release cycle to `digest`;
  /// returns the client's final cycle.
  template <typename Mem>
  std::int64_t drive(Mem& mem, Rep& out, Digest& digest) {
    std::vector<std::uint64_t> ids(kWindow);
    std::int64_t now = 100;
    std::uint64_t expected_id = 0;
    bool ok = true;
    const auto t0 = Clock::now();
    for (std::size_t base = 0; base < reqs_.size(); base += kWindow) {
      const std::size_t n = std::min(kWindow, reqs_.size() - base);
      for (std::size_t i = 0; i < n; ++i) {
        const Req& q = reqs_[base + i];
        const auto at = now + static_cast<std::int64_t>(i);
        ids[i] = q.write ? mem.submit_write(q.addr, at)
                         : mem.submit_read(q.addr, at);
        if (expected_id == 0) expected_id = ids[i];
        ok = ok && ids[i] == expected_id++;
      }
      now += static_cast<std::int64_t>(n);
      for (std::size_t i = 0; i < n; ++i) {
        const cpu::Completion c = mem.wait(ids[i]);
        ok = ok && c.ok && c.error == RequestError::kNone;
        now = std::max(now, c.release_cycle);
        digest.add(c.release_cycle);
      }
    }
    out.host_s = since(t0);
    out.checks.completions_clean = ok;
    return now;
  }

  sys::SystemConfig cfg_;
  std::vector<Req> reqs_;
};

std::unique_ptr<Workload> make_workload(std::string_view name) {
  if (name == "polybench") return std::make_unique<PolybenchWorkload>();
  if (name == "burst8") return std::make_unique<Burst8Workload>();
  if (name == "tenants") return std::make_unique<TenantsWorkload>();
  if (name == "chase") return std::make_unique<ChaseWorkload>();
  return nullptr;
}

/// Host-speed probes, taken around the set-ups and every measured rep. A
/// shared host drifts by tens of percent over minutes; run_bench.py
/// divides each timed phase by the probes around it, so the probes must
/// never change. One is a compute loop over a table that fits the core's
/// L2, the other a dependent chase through a table that outgrows every
/// private cache, as the simulator's own working sets do.
constexpr std::size_t kComputeProbeWords = std::size_t{1} << 17;  // 1 MiB
constexpr std::size_t kMemoryProbeWords = std::size_t{1} << 24;   // 64 MiB

/// Resident size of the probes' tables, which peak_rss_mb() leaves out.
constexpr double kProbeTablesMiB =
    static_cast<double>(kComputeProbeWords * sizeof(std::uint64_t) +
                        kMemoryProbeWords * sizeof(std::uint32_t)) /
    static_cast<double>(kMiB);

double probe_compute_s() {
  static std::vector<std::uint64_t> table(kComputeProbeWords);
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  const auto t0 = Clock::now();
  for (int i = 0; i < 6'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::uint64_t& slot = table[x & (table.size() - 1)];
    slot = (slot ^ x) & 1 ? slot + x : slot ^ (x >> 3);
  }
  const double dt = since(t0);
  volatile std::uint64_t sink = table[x & 7];
  (void)sink;
  return dt;
}

double probe_memory_s() {
  // A full-period linear congruential step (odd increment, multiplier
  // 1 mod 4) links every slot into one cycle that jumps across the table.
  static const std::vector<std::uint32_t> next = [] {
    std::vector<std::uint32_t> v(kMemoryProbeWords);
    for (std::uint32_t i = 0; i < v.size(); ++i) {
      v[i] = (i * 1664525u + 1013904223u) & (kMemoryProbeWords - 1);
    }
    return v;
  }();
  std::uint32_t at = 0;
  const auto t0 = Clock::now();
  for (int i = 0; i < 200'000; ++i) at = next[at];
  const double dt = since(t0);
  volatile std::uint32_t sink = at;
  (void)sink;
  return dt;
}

/// Resets the peak resident set to the current one. Repeated set-ups churn
/// the heap, so the peak is reset once the inputs are built and the freed
/// memory is returned; peak_rss_mb() then covers the reps alone, less the
/// probes' tables (built, and so resident, before the reset).
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  for (std::int64_t kib = 0; status >> key;) {
    if (key == "VmHWM:" && status >> kib) {
      return static_cast<double>(kib) / 1024.0 - kProbeTablesMiB;
    }
  }
  return 0.0;
}

/// Probe readings taken around a timed phase.
struct Probes {
  Json compute = Json::array();
  Json memory = Json::array();

  void take() {
    compute.push_back(probe_compute_s());
    memory.push_back(probe_memory_s());
  }
  Json json() {
    Json j = Json::object();
    j["compute_s"] = std::move(compute);
    j["memory_s"] = std::move(memory);
    return j;
  }
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double percentile(std::vector<std::int64_t> xs, double pct) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto idx = static_cast<std::size_t>(
      pct / 100.0 * static_cast<double>(xs.size() - 1) + 0.5);
  return static_cast<double>(xs[idx]);
}

/// Per-layer host times of one traced rep; the core, submit, wait and
/// drain times add up to the rep time.
Json layer_json(const Rep& r) {
  const LayerTimes& l = r.layers;
  Json j = Json::object();
  const double mem_s = l.submit_s + l.wait_s + l.drain_s;
  j["cpu.self_s"] = r.host_s - mem_s;
  j["sys.submit_s"] = l.submit_s;
  j["sys.submit_ns_per_call"] = ratio(l.submit_s * 1e9, l.submit_calls);
  j["sys.wait_s"] = l.wait_s;
  j["sys.wait_ns_per_call"] = ratio(l.wait_s * 1e9, l.wait_calls);
  j["sys.drain_s"] = l.drain_s;
  j["smc.pick_s"] = l.pick_s;
  j["smc.ns_per_pick"] = ratio(l.pick_s * 1e9, l.pick_calls);
  j["smc.below_pick_s"] = mem_s - l.pick_s;
  return j;
}

/// Deterministic counters: model outputs of an untraced rep plus the call
/// counts and request latencies of a traced one.
Json count_json(const Model& m, const LayerTimes& l,
                const std::vector<std::int64_t>& latencies) {
  Json j = Json::object();
  const auto d = [](std::int64_t v) { return static_cast<double>(v); };
  const smc::ApiStats& s = m.smc;
  j["cpu.instructions"] = m.run.instructions;
  j["cpu.l1_miss_ratio"] =
      ratio(d(m.run.l1_misses), d(m.run.loads + m.run.stores));
  j["cpu.l2_miss_ratio"] = ratio(d(m.run.l2_misses), d(m.run.l1_misses));
  j["sys.submit_calls"] = l.submit_calls;
  j["sys.wait_calls"] = l.wait_calls;
  j["smc.picks"] = s.sched_picks;
  j["smc.scanned_per_pick"] =
      ratio(d(s.sched_entries_scanned), d(s.sched_picks));
  j["smc.row_hit_ratio"] = ratio(d(s.sched_row_hits), d(s.sched_picks));
  j["smc.requests"] = s.requests_received;
  j["bender.batches"] = s.batches_executed;
  j["smc.requests_per_batch"] =
      ratio(d(s.requests_received), d(s.batches_executed));
  j["dram.commands"] = s.commands_executed;
  j["dram.commands_per_request"] =
      ratio(d(s.commands_executed), d(s.requests_received));
  j["dram.busy_share"] = ratio(d(s.dram_busy.count), d(m.wall.count));
  j["smc.mitigation.neighbor_refreshes"] = m.mitigation.neighbor_refreshes;
  j["smc.ecc.scrub_reads"] = s.scrub_reads;
  j["smc.ecc.corrected"] = s.ecc_corrected;
  j["modeled_cycles"] = m.cycles;
  j["modeled_wall_ms"] = m.wall.seconds() * 1e3;
  j["fpga_emu_mhz"] = ratio(d(m.cycles), m.wall.seconds() * 1e6);
  j["req_lat_p50_cyc"] = percentile(latencies, 50.0);
  j["req_lat_p99_cyc"] = percentile(latencies, 99.0);
  return j;
}

std::string hex(std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i) {
    s[static_cast<std::size_t>(i)] = kDigits[v & 0xF];
    v >>= 4;
  }
  return s;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int reps = 3;
  double seconds = 0.0;
  double scale = 1.0;
  bool trace = false;
};

int usage() {
  std::cerr << "usage: easydram_bench --workload polybench|burst8|tenants|chase"
               " [--seed N] [--reps N] [--seconds S] [--scale X] [--trace]\n";
  return 2;
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--trace") {
      o.trace = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
      continue;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
    } else if (a == "--reps") {
      o.reps = static_cast<int>(std::strtol(v, &end, 10));
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, &end);
    } else if (a == "--scale") {
      o.scale = std::strtod(v, &end);
    } else {
      return false;
    }
    if (end == v || *end != '\0') return false;
  }
  return !o.workload.empty() && o.reps >= 1 && o.seconds >= 0.0 &&
         o.scale > 0.0;
}

int run(const Options& o) {
  std::unique_ptr<Workload> wl = make_workload(o.workload);
  if (!wl) return usage();

  // At least 5 set-ups, repeated for at least min(1, scale) seconds so that
  // millisecond ones (burst8's) get a steady median while a small-scale
  // smoke run stays short. The probes bracket the set-ups as they bracket
  // every rep.
  Probes setup_probes;
  setup_probes.take();
  Json gen_s = Json::array();
  const double setup_seconds = std::min(1.0, o.scale);
  const auto setup_start = Clock::now();
  for (int i = 0; i < 5 || since(setup_start) < setup_seconds; ++i) {
    const auto t0 = Clock::now();
    wl->generate(o.seed, o.scale);
    gen_s.push_back(since(t0));
  }
  setup_probes.take();
  reset_peak_rss();

  // The discarded warmup rep fixes the reference digest; every measured
  // rep, traced or not, must reproduce it. Counts are the warmup's.
  const Rep ref = wl->rep(false);
  Rep traced;
  Checks checks;
  bool digest_stable = true;
  bool traced_identical = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  const auto record = [&](Rep r, bool is_traced) {
    const bool same = r.digest == ref.digest;
    (is_traced ? traced_identical : digest_stable) &= same;
    checks.merge(r.checks);
    ++attempted;
    if (!same || !r.checks.ok()) ++failed;
    if (is_traced) traced = std::move(r);
  };
  record(ref, false);

  Json host_s = Json::array();
  Json construct_s = Json::array();
  Probes rep_probes;
  Json traced_host_s = Json::array();
  Json layers = Json::array();
  const auto start = Clock::now();
  for (int n = 0; n < o.reps || since(start) < o.seconds; ++n) {
    rep_probes.take();
    Rep r = wl->rep(false);
    host_s.push_back(r.host_s);
    construct_s.push_back(r.construct_s);
    record(std::move(r), false);
    if (o.trace) {
      record(wl->rep(true), true);
      traced_host_s.push_back(traced.host_s);
      layers.push_back(layer_json(traced));
    }
  }
  rep_probes.take();

  Json doc = Json::object();
  doc["workload"] = o.workload;
  doc["seed"] = o.seed;
  doc["scale"] = o.scale;
  doc["gen_s"] = std::move(gen_s);
  doc["setup_probes"] = setup_probes.json();
  doc["construct_s"] = std::move(construct_s);
  doc["host_s"] = std::move(host_s);
  doc["rep_probes"] = rep_probes.json();
  doc["traced_host_s"] = std::move(traced_host_s);
  doc["layers"] = std::move(layers);
  doc["counts"] = count_json(ref.model, traced.layers, traced.latencies);
  doc["requests"] = ref.model.smc.requests_received;
  doc["modeled_cycles"] = ref.model.cycles;
  doc["digest"] = hex(ref.digest);
  Json c = Json::object();
  c["digest_stable"] = digest_stable;
  c["traced_identical"] = traced_identical;
  c["responses_match"] = checks.responses_match;
  c["ecc_clean"] = checks.ecc_clean;
  c["completions_clean"] = checks.completions_clean;
  doc["checks"] = std::move(c);
  doc["attempted_reps"] = attempted;
  doc["failed_reps"] = failed;
  doc["peak_rss_mb"] = peak_rss_mb();
  doc.dump(std::cout);
  std::cout << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) return usage();
  try {
    return run(o);
  } catch (const std::exception& e) {
    std::cerr << "easydram_bench: " << e.what() << "\n";
    return 1;
  }
}
