#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/stats.hpp"
#include "cpu/backend.hpp"
#include "cpu/core.hpp"
#include "cpu/presets.hpp"
#include "dram/device.hpp"
#include "dram/faults.hpp"
#include "smc/bloom.hpp"
#include "smc/controller.hpp"
#include "smc/easyapi.hpp"
#include "smc/ecc.hpp"
#include "smc/mitigation/mitigator.hpp"
#include "smc/refresh_policy.hpp"
#include "smc/retention_profiler.hpp"
#include "smc/rowclone_map.hpp"
#include "smc/trcd_profiler.hpp"
#include "sys/completion.hpp"
#include "tile/tile.hpp"
#include "timescale/timekeeper.hpp"

namespace easydram::sys {

/// Full-system configuration. The defaults model the paper's baseline: an
/// A57-like processor (Jetson Nano target) time-scaled from a 100 MHz FPGA
/// clock, EasyTile with a 100 MHz programmable core, and a single channel,
/// single rank of DDR4-1333. Raise `geometry.channels` /
/// `geometry.ranks_per_channel` and pick a `mapping` to study
/// channel/rank-level parallelism.
struct SystemConfig {
  timescale::SystemMode mode = timescale::SystemMode::kTimeScaling;
  timescale::DomainConfig proc_domain{Frequency::megahertz(100),
                                      Frequency{1'430'000'000}};
  /// Additional fixed hardware scheduling latency per request, in emulated
  /// processor cycles, on top of the SMC program's own (cycle-counted)
  /// scheduling time. The paper's modeled controller *is* the SMC program
  /// re-clocked at the system frequency, so the default is 0; raise it to
  /// model an MC with extra pipeline stages.
  Cycles mc_sched_latency{};

  /// Model a fixed-function RTL memory controller instead: requests cost
  /// only `mc_sched_latency`, never the SMC program's cycle count
  /// (the Fig. 2 "FPGA + RTL memory controller" configuration).
  bool hardware_mc = false;

  cpu::CoreConfig core = cpu::cortex_a57_core();
  cpu::CacheHierConfig caches = cpu::easydram_caches();

  dram::Geometry geometry{};
  dram::TimingParams timing = dram::ddr4_1333();
  dram::VariationConfig variation{};

  tile::TileConfig tile{};
  bool use_frfcfs = true;
  /// Scheduling policy by registry kind (see smc::SchedulerKind / the CLI's
  /// --sched flag). kAuto defers to the legacy `use_frfcfs` switch;
  /// `scheduler_factory` (below) overrides both.
  smc::SchedulerKind sched = smc::SchedulerKind::kAuto;
  /// Physical-to-DRAM address mapping (see smc::MappingKind): row-linear by
  /// default; line-interleaved stripes lines across banks;
  /// channel-interleaved stripes lines across channels.
  smc::MappingKind mapping = smc::MappingKind::kLinear;
  /// Partition count of the kBankPartition mapping (ignored by the other
  /// mappings): the physical space splits into this many equal slices, each
  /// owning a disjoint set of banks. Give each tenant its own slice and no
  /// stream can ever close another's row buffer.
  unsigned bank_partitions = 4;
  Picoseconds reduced_trcd{9000};
  /// Row-hit drain limit of the stock controller (see ControllerOptions).
  std::size_t row_batch_limit = 16;

  /// Optional custom scheduling policy. When set it overrides `use_frfcfs`;
  /// called exactly once per channel, when the system builds that
  /// channel's controller (see examples/custom_scheduler.cpp).
  std::function<std::unique_ptr<smc::Scheduler>()> scheduler_factory;

  /// RowHammer mitigation policy each channel's controller runs (kNone by
  /// default). Channels get independent policy instances; PARA's RNG
  /// stream is `mitigation.seed` mixed with the channel index, so a fixed
  /// seed yields bit-identical runs at any host parallelism.
  smc::mitigation::MitigationConfig mitigation{};

  /// Enables the DRAM devices' ground-truth RowHammer exposure accounting
  /// (see DramDevice::max_hammer_exposure). Off by default: the rowhammer
  /// scenarios turn it on; it adds per-ACT bookkeeping the paper-figure
  /// scenarios never read.
  bool track_row_hammer = false;

  /// Refresh regime each channel's refresh pacing runs (kAllRows by
  /// default — bit-identical to every pre-RAIDR run). kRaidr profiles each
  /// channel's retention field at construction (an uncharged setup phase,
  /// like the paper's offline characterization passes) with
  /// `retention_profiler` options and installs a per-channel
  /// RaidrRefreshPolicy; channels profile independently because they are
  /// physically distinct modules.
  smc::RefreshKind refresh = smc::RefreshKind::kAllRows;
  smc::RetentionProfilerOptions retention_profiler{};

  /// Enables the devices' ground-truth retention-violation accounting
  /// (see DramDevice::retention_violations). Off by default; the
  /// raidr_misbinning scenario turns it on.
  bool track_retention = false;

  /// Deterministic fault injection (dram/faults.hpp), off by default — a
  /// system that never touches this runs bit-identical to one predating
  /// the fault pipeline. Channels get independent fault streams
  /// (`faults.seed` mixed with the channel index, like the variation and
  /// mitigation seeds), so no channel's draws depend on another's. Enabling
  /// hammer-triggered flips auto-enables hammer tracking; retention flips
  /// auto-enable retention tracking (the model reads their bookkeeping).
  dram::FaultConfig faults{};

  /// Controller error pipeline (smc/ecc.hpp): SEC-DED on the read/write
  /// path, patrol scrub piggybacked on refresh slots, bounded retries, and
  /// PPR-style row retirement. Off by default; independent of `faults`
  /// (ECC can run on a fault-free device and vice versa — escapes are only
  /// *interesting* with both on).
  smc::EccConfig ecc{};

  /// Records every completed request's modeled latency (release minus
  /// issue processor cycle) into a per-stream exact histogram (see
  /// EasyDramSystem::stream_latency_samples). Off by default: single-stream
  /// scenarios never read it, and each histogram costs one entry per
  /// distinct latency value.
  bool track_stream_latency = false;

  /// Ignored. The system always pumps its channels with one serial
  /// round-robin loop, as each channel's SMC program runs on its own core.
  /// The field stays only because e2ebench/easydram_bench.cpp assigns it.
  unsigned pump_workers = 1;
};

/// Convenience presets matching the paper's evaluated configurations.
SystemConfig jetson_nano_time_scaling();
SystemConfig pidram_no_time_scaling();
SystemConfig validation_time_scaling();  ///< §6: 100 MHz scaled to 1 GHz.
SystemConfig validation_reference();     ///< §6: direct 1 GHz RTL reference.

/// The assembled EasyDRAM system (Fig. 7): processor model ⇄ memory bus ⇄
/// per-channel EasyTiles (each with a programmable core running its own
/// software memory controller and DRAM Bender engine) ⇄ per-channel DRAM
/// devices, glued by the time-scaling machinery.
///
/// Each channel is an independent slice — device, tile, controller, and its
/// own TimeKeeper — because real channels have independent buses and their
/// memory activity overlaps in time. Processor progress is mirrored into
/// every channel's keeper; the system wall clock is the maximum over
/// channels (the slowest channel finishes last). Requests are routed to
/// their channel by the address mapper's channel bits. With one channel
/// this collapses to a single keeper driven exactly as before.
///
/// Implements cpu::MemoryBackend so any core model / trace can run on it.
/// One instance models one power-on: construct, (optionally) run setup
/// phases such as characterization or RowClone allocation through `api()`,
/// then call run().
///
/// Units: `paddr` arguments are byte addresses in the mapped physical
/// space; `now` arguments are emulated-processor cycles; returned times
/// are Picoseconds of FPGA wall. Thread-safety: one system is driven by
/// one thread. Parameter sweeps build one system per task.
class EasyDramSystem final : public cpu::MemoryBackend {
 public:
  explicit EasyDramSystem(const SystemConfig& cfg);

  // --- Setup-phase access ---------------------------------------------------

  std::uint32_t num_channels() const {
    return static_cast<std::uint32_t>(channels_.size());
  }

  /// Channel 0's interfaces (the whole system for the default geometry).
  smc::EasyApi& api() { return api(0); }
  dram::DramDevice& device() { return device(0); }

  smc::EasyApi& api(std::uint32_t channel);
  dram::DramDevice& device(std::uint32_t channel);

  /// Channel's error-pipeline state (null unless `ecc.enabled`). Exposed
  /// for tests and scenario instrumentation (retirement-map inspection).
  smc::ErrorPolicy* error_policy(std::uint32_t channel);

  /// Verified RowClone pairs. Every controller consults this map: a
  /// kRowClone request whose pair is recorded clonable runs in DRAM, any
  /// other gets a fallback response (so with an empty map every RowClone
  /// falls back).
  smc::RowCloneMap& clone_map() { return clone_map_; }
  const SystemConfig& config() const { return cfg_; }
  const smc::AddressMapper& mapper() const { return *mapper_; }
  /// Channel 0's timeline (identical to every other channel's until
  /// channel-local memory activity diverges).
  const timescale::TimeKeeper& keeper() const { return keeper(0); }
  const timescale::TimeKeeper& keeper(std::uint32_t channel) const;

  /// Installs the weak-row Bloom filter, turning on reduced-tRCD accesses
  /// for rows not flagged weak from the next row opening on. Every
  /// channel's controller consults this one filter, so it must cover every
  /// channel's weak rows — on multi-channel systems build it with
  /// characterize_and_install_weak_rows() rather than a single channel's
  /// smc::build_weak_row_filter.
  void install_weak_row_filter(smc::BloomFilter filter);

  /// Profiles every channel (all ranks) at `threshold`, merges the
  /// per-channel weak-row filters, installs the union, and returns the
  /// aggregate characterization statistics. On a single-channel system
  /// this is exactly smc::build_weak_row_filter + install_weak_row_filter.
  smc::WeakRowFilterStats characterize_and_install_weak_rows(
      std::span<const std::uint32_t> banks, std::uint32_t rows_per_bank,
      Picoseconds threshold, std::size_t filter_bits, std::size_t hashes,
      std::uint32_t lines_per_row = 0);

  // --- cpu::MemoryBackend ---------------------------------------------------

  /// Submit one request at emulated-processor cycle `now` (must be
  /// non-decreasing across calls) and return its completion id; wait(id)
  /// pumps the controllers until that id completes and consumes it (each
  /// id is waitable exactly once). submit_profile's `trcd` is the
  /// Picoseconds ACT->RD spacing to test.
  /// Sets the stream identity stamped onto subsequently submitted requests
  /// (sticky; the core calls this when its trace's stream changes).
  void set_stream(std::uint32_t stream) override { current_stream_ = stream; }

  std::uint64_t submit_read(std::uint64_t paddr, std::int64_t now) override;
  std::uint64_t submit_write(std::uint64_t paddr, std::int64_t now) override;
  std::uint64_t submit_rowclone(std::uint64_t src_paddr, std::uint64_t dst_paddr,
                                std::int64_t now) override;
  std::uint64_t submit_profile(std::uint64_t paddr, Picoseconds trcd,
                               std::int64_t now) override;
  cpu::Completion wait(std::uint64_t id) override;

  // --- Whole-workload execution ----------------------------------------------

  /// Runs `trace` on a fresh core built from the configuration, drains all
  /// outstanding work, and reconciles the wall clock.
  cpu::RunResult run(cpu::TraceSource& trace);

  // --- Results ----------------------------------------------------------------

  /// FPGA wall time consumed so far: the maximum over the per-channel
  /// timelines (drives the Fig. 14 simulation-speed study and the
  /// No-Time-Scaling timeline).
  Picoseconds wall() const;
  /// Aggregate SMC statistics summed over every channel's EasyApi.
  smc::ApiStats smc_stats() const;
  /// Aggregate RowHammer mitigation statistics summed over every channel's
  /// policy instance (all zero when mitigation is kNone).
  smc::mitigation::MitigationStats mitigation_stats() const;
  /// System-wide bitflip-window exposure: the maximum over every channel
  /// device (0 unless `track_row_hammer` was set).
  std::int64_t max_hammer_exposure() const;
  /// Aggregate RAIDR bin histogram summed over every channel's profiled
  /// binning (all-zero, issue_fraction 1.0, when `refresh` is kAllRows).
  smc::RaidrBinStats refresh_bin_stats() const;
  /// Refresh slots consumed across every channel and rank (issued +
  /// skipped; equals smc_stats().refreshes_issued + refreshes_skipped once
  /// the run has drained).
  std::int64_t refresh_slots_consumed() const;
  /// Ground-truth retention violations summed over every channel device
  /// (0 unless `track_retention` was set).
  std::int64_t retention_violations() const;
  /// Worst retention overshoot over every channel device.
  Picoseconds max_retention_overshoot() const;
  /// Per-stream modeled-latency samples (emulated processor cycles, one per
  /// completed request) as exact count histograms indexed by stream id,
  /// recorded when `track_stream_latency` is set. A histogram holds the
  /// multiset alone, so it does not depend on the drain order in which
  /// channels completed their requests.
  const std::vector<CountHistogram>& stream_latency_samples() const {
    return stream_latency_;
  }

 private:
  /// One memory channel and its whole SMC stack, built once in this order:
  /// device (with its tracking flags and fault model), tile, timeline, API,
  /// error policy, mitigator, RAIDR profile, scheduler and controller. The
  /// slice owns every piece, and the controller lives as long as the slice.
  struct ChannelSlice {
    ChannelSlice(const SystemConfig& cfg, const smc::AddressMapper& mapper,
                 const smc::RowCloneMap& clone_map, std::uint32_t channel);
    // The api holds the addresses of the slice's members.
    ChannelSlice(const ChannelSlice&) = delete;
    ChannelSlice& operator=(const ChannelSlice&) = delete;

    dram::DramDevice device;
    tile::EasyTile tile;
    timescale::TimeKeeper keeper;
    smc::EasyApi api;
    /// Check-bit store, CE counts and retirement map (null unless
    /// `ecc.enabled`).
    std::unique_ptr<smc::ErrorPolicy> error_policy;
    /// RowHammer policy the controller feeds (null for kNone).
    std::unique_ptr<smc::mitigation::RowHammerMitigator> mitigator;
    /// Bin histogram of the RAIDR profile (all-zero for kAllRows).
    smc::RaidrBinStats refresh_bin_stats{};
    /// RAIDR refresh pacing (null for kAllRows: EasyApi's null policy IS
    /// the all-rows regime, at zero pacing cost).
    std::unique_ptr<smc::RefreshPolicy> refresh_policy;
    smc::MemoryController controller;
  };

  std::uint64_t submit(tile::Request req, std::uint32_t channel, std::int64_t now);
  /// Channel the line at `paddr` decodes to; skips the mapper entirely on
  /// single-channel systems (the per-request submit hot path).
  std::uint32_t channel_of(std::uint64_t paddr) const;
  /// Runs SMC iterations until `channel`'s FIFO has room.
  void pump_until_fifo_has_room(std::uint32_t channel);
  /// One main-loop iteration of `ch`'s controller: the idle fast path (one
  /// poll-iteration charge) or one controller step plus idle-skip. Returns
  /// whether the controller did real work. Touches only `ch`'s slice.
  bool step_channel(ChannelSlice& ch);
  /// One main-loop iteration of every channel's controller (round-robin).
  bool pump_once();
  /// Pumps until `done()` holds. Every call gets its own full iteration
  /// budget — callers that chain drain phases must not share one guard.
  template <typename DonePred>
  void pump_until(DonePred done, int budget = 100'000'000) {
    int guard = 0;
    while (!done()) {
      pump_once();
      EASYDRAM_EXPECTS(++guard < budget);
    }
  }
  void drain_outgoing();
  /// Adds the completed id's modeled latency to its stream's histogram
  /// (no-op unless cfg_.track_stream_latency). Must run before the
  /// id is consumed — it reads the issue cycle off the completion slot.
  void record_latency(std::uint64_t id, std::uint32_t stream,
                      std::int64_t release_proc_cycle);
  void account_cpu_progress(std::int64_t now);
  bool all_idle() const;

  SystemConfig cfg_;
  std::unique_ptr<smc::AddressMapper> mapper_;
  /// Shared by every channel's controller, so declared before the slices.
  smc::RowCloneMap clone_map_;
  std::optional<smc::BloomFilter> weak_rows_;
  std::vector<std::unique_ptr<ChannelSlice>> channels_;

  std::uint64_t next_id_ = 1;
  std::int64_t last_cpu_cycle_ = 0;
  /// Stream identity stamped onto submitted requests (set_stream).
  std::uint32_t current_stream_ = 0;
  /// Per-stream latency histograms (empty unless track_stream_latency).
  std::vector<CountHistogram> stream_latency_;
  /// Responses drained from the tiles, keyed by the dense request id
  /// stream (the core waits approximately in order; see CompletionRing).
  CompletionRing completed_;
};

}  // namespace easydram::sys
