#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "bender/interpreter.hpp"
#include "bender/program.hpp"
#include "common/units.hpp"
#include "dram/device.hpp"
#include "smc/addr_map.hpp"
#include "smc/bank_state.hpp"
#include "tile/request.hpp"
#include "tile/tile.hpp"
#include "timescale/timekeeper.hpp"

namespace easydram::smc {

class RefreshPolicy;
class ErrorPolicy;

/// Aggregate statistics of one EasyAPI instance.
struct ApiStats {
  std::int64_t requests_received = 0;
  std::int64_t responses_sent = 0;
  std::int64_t batches_executed = 0;
  std::int64_t commands_executed = 0;
  std::int64_t rowclone_attempts = 0;
  std::int64_t rowclone_successes = 0;
  /// REF commands actually sent to the device by refresh_if_due().
  std::int64_t refreshes_issued = 0;
  /// Refresh slots the installed RefreshPolicy elected to skip (0 under
  /// the default all-rows regime). refreshes_issued + refreshes_skipped
  /// equals the refresh slots the pacing machinery consumed.
  std::int64_t refreshes_skipped = 0;
  std::uint32_t violations_seen = 0;
  /// Total DRAM-interface busy time of timeline-charged batches.
  Picoseconds dram_busy{};

  // --- Error pipeline (all zero unless SystemConfig::ecc is enabled) -------
  /// Corrected single-bit errors (CE), demand reads + patrol scrub.
  std::int64_t ecc_corrected = 0;
  /// Detected-uncorrectable errors (UE) after the retry budget.
  std::int64_t ecc_uncorrectable = 0;
  /// Lines read by the patrol scrubber.
  std::int64_t scrub_reads = 0;
  /// Bounded re-reads issued after a demand UE or an unreliable read.
  std::int64_t retries_issued = 0;
  /// Rows retired into the PPR-style spare-row remap.
  std::int64_t rows_retired = 0;
  /// Reads acknowledged ok whose data mismatched the device's ground
  /// truth — the silent-corruption count the pipeline exists to zero.
  std::int64_t ecc_escaped = 0;

  // --- Scheduler counters (host-side bookkeeping, never charged) -----------
  /// Scheduling decisions the policy made (one per served table pick).
  std::int64_t sched_picks = 0;
  /// Picks whose target bank held the requested row open.
  std::int64_t sched_row_hits = 0;
  /// Picks whose target bank held a *different* row open (a precharged
  /// bank counts as neither hit nor conflict).
  std::int64_t sched_row_conflicts = 0;
  /// Table entries examined across all decisions (the quantity the cycle
  /// meter charges schedule_scan_entry for).
  std::int64_t sched_entries_scanned = 0;
};

/// Observer of the DDR command stream an EasyApi instance builds. The
/// RowHammer mitigation path hangs off this: the controller registers
/// itself as the sink, sees every ACT the batch builder queues (plus every
/// periodic REF), and injects targeted neighbor refreshes in response.
/// Setup-mode batches (characterization, catch-up refreshes) never fire
/// `on_act` — offline phases are not demand traffic. `on_refresh` fires
/// for every queued REF, charged or not, because refresh-window bookkeeping
/// tracks the device's real refresh sequence.
class ActSink {
 public:
  virtual void on_act(const dram::DramAddress& a) = 0;
  virtual void on_refresh(std::uint32_t rank) = 0;
  /// A refresh slot the installed RefreshPolicy skipped (refresh_if_due
  /// consumed it without queueing a REF). Lets window-tracking observers
  /// keep retention-window time even though no command issued; defaults
  /// to a no-op and never fires under the all-rows regime.
  virtual void on_refresh_skipped(std::uint32_t /*rank*/) {}

 protected:
  ~ActSink() = default;  ///< Never owned/deleted through the interface.
};

/// EasyAPI (§5.2, Table 2): the high-level C++ interface software memory
/// controllers program against. It wraps the tile's hardware FIFOs, the
/// DRAM Bender command buffer, the readback buffer, and the time-scaling
/// registers, charging the programmable core's cycle costs for every
/// operation so the No-Time-Scaling configuration faithfully suffers the
/// software controller's slowness.
///
/// One EasyApi instance fronts one memory *channel* (one device, one tile,
/// one controller); multi-channel systems own one per channel. Bank-level
/// operations take the bank index within a rank plus a trailing rank
/// argument that defaults to 0, so single-rank controller code is unchanged.
/// EasyApi keeps the channel's effective open rows in one dense array and
/// hands scheduling policies a BankStateView over it (bank_view()), so the
/// per-entry open-row query is an inline load.
///
/// Units: `core_cycles` arguments are programmable-core cycles (the
/// EasyTile's 100 MHz clock); `Picoseconds` arguments are device-timeline
/// durations; `issue_proc_cycle` tags are emulated-processor cycles.
/// Thread-safety: none — an EasyApi belongs to its channel's
/// (single-threaded) controller loop, like everything it fronts.
class EasyApi final {
 public:
  EasyApi(tile::EasyTile& tile, dram::DramDevice& device,
          const AddressMapper& mapper, timescale::TimeKeeper& keeper,
          std::uint32_t channel = 0);

  /// Channel this instance fronts (tags the addresses it builds).
  std::uint32_t channel() const { return channel_; }

  // --- Hardware abstraction library (Table 2, top) -------------------------

  /// True when no *visible* request is pending. Under time scaling a request
  /// becomes visible once the MC emulation point reaches its issue tag
  /// (footnote 2); polling charges one loop-iteration cost.
  bool req_empty();

  /// Moves the request at the head of the hardware FIFO to the scratchpad.
  tile::Request receive_request();

  /// Tags `r` with the release cycle (Fig. 5 step 10) and pushes it to the
  /// outgoing FIFO.
  void enqueue_response(tile::Response&& r);

  /// Critical-mode register (Table 2: set_scheduling_state).
  void set_scheduling_state(bool critical);

  /// Marks the start of servicing the request tagged `issue_proc_cycle`:
  /// the MC emulation point snaps forward to the tag (service cannot begin
  /// before the request exists) and one hardware-MC scheduling latency is
  /// charged to the emulated timeline.
  void note_service_start(std::int64_t issue_proc_cycle);

  /// Charges `core_cycles` of bespoke request-servicing controller logic
  /// (technique code): accrues on the programmable core AND, under time
  /// scaling, on the emulated MC timeline.
  void charge(Cycles core_cycles) { charge_service(core_cycles); }

  /// Charges controller work that overlaps DRAM Bender execution (e.g. the
  /// Bloom-filter lookup for the *next* row activation performed while the
  /// previous batch replays): programmable-core time only, never request
  /// latency.
  void charge_overlapped(Cycles core_cycles) {
    charge_background(core_cycles);
  }

  /// Registers (or clears, with nullptr) the command-stream observer. The
  /// sink must outlive this EasyApi or be cleared before destruction.
  void set_act_sink(ActSink* sink) { act_sink_ = sink; }

  /// Installs (or clears, with nullptr) the refresh-skipping policy
  /// consulted once per refresh slot by refresh_if_due(). Null behaves
  /// exactly like AllRowsRefreshPolicy — every slot issues — at zero cost
  /// on the pacing path. Non-owning: the policy (owned per-channel by the
  /// system layer) must outlive this EasyApi or be cleared first.
  void set_refresh_policy(RefreshPolicy* policy) { refresh_policy_ = policy; }
  RefreshPolicy* refresh_policy() const { return refresh_policy_; }

  /// Installs (or clears) the channel's error policy (smc/ecc.hpp). Two
  /// effects on this EasyApi: the sequence builders remap retired rows to
  /// their spares, and refresh_if_due() drives the patrol scrubber once
  /// per consumed slot (issued or skipped — scrub composes with RAIDR).
  /// Non-owning, system-owned, must outlive this EasyApi or be cleared.
  void set_error_policy(ErrorPolicy* policy) { error_policy_ = policy; }
  ErrorPolicy* error_policy() const { return error_policy_; }

  /// Setup mode: API calls cost nothing on any timeline and batches execute
  /// uncharged. Used by offline phases the paper performs before emulation
  /// begins: DRAM characterization, RowClone pair verification, catch-up
  /// refreshes that overlap compute.
  void set_setup_mode(bool on) { setup_mode_ = on; }
  bool setup_mode() const { return setup_mode_; }

  /// Row currently open in `bank` of `rank`, accounting for commands
  /// already queued in the (unflushed) batch.
  std::optional<std::uint32_t> open_row(std::uint32_t bank,
                                        std::uint32_t rank = 0) const {
    return bank_view().open_row(bank, rank);
  }

  /// The scheduler-facing view of the same open rows, for every bank of
  /// this channel. Valid for this EasyApi's lifetime; it reads the live
  /// array, so it sees later commands too.
  BankStateView bank_view() const {
    return BankStateView(open_rows_, device_->geometry().num_banks());
  }

  // --- Address translation --------------------------------------------------

  dram::DramAddress get_addr_mapping(std::uint64_t paddr);

  // --- Command batch construction (Table 2: ddr_*) --------------------------

  /// Queue one DDR command into the current batch (nothing reaches the
  /// device until flush_commands). Addresses must lie within the
  /// geometry; `data` spans exactly 64 bytes. Each call charges one
  /// command-push cost on the programmable core.
  void ddr_activate(std::uint32_t bank, std::uint32_t row, std::uint32_t rank = 0);
  void ddr_precharge(std::uint32_t bank, std::uint32_t rank = 0);
  void ddr_read(const dram::DramAddress& a, bool capture = true);
  void ddr_write(const dram::DramAddress& a, std::span<const std::uint8_t> data);
  void ddr_refresh(std::uint32_t rank = 0);
  /// Technique escape hatch: issue exactly `gap` (Picoseconds) after the
  /// previous command, nominal spacing be damned.
  void ddr_exact(dram::Command cmd, const dram::DramAddress& a, Picoseconds gap,
                 bool capture = false);
  /// Queue an idle wait of at least `duration` (Picoseconds, rounded up
  /// to whole DRAM clocks).
  void ddr_wait(Picoseconds duration);

  // --- High-level sequences (software library, Table 2 bottom) -------------

  /// Opens the row if needed (precharging any conflicting row) and reads
  /// one cache line; leaves the row open (open-page policy).
  void read_sequence(const dram::DramAddress& a);

  /// Like read_sequence but forces a fresh activation and issues the read
  /// exactly `trcd` after the ACT — the §8 reduced-latency access.
  void read_sequence_reduced(const dram::DramAddress& a, Picoseconds trcd);

  /// Opens the row if needed and writes one cache line; leaves it open.
  void write_sequence(const dram::DramAddress& a, std::span<const std::uint8_t> data);

  /// FPM RowClone (§7): ACT(src) -> early PRE -> early ACT(dst), then a
  /// nominal precharge. Both rows must be in `bank` of `rank`.
  void rowclone(std::uint32_t bank, std::uint32_t src_row, std::uint32_t dst_row,
                std::uint32_t rank = 0);

  /// Precharges `bank` of `rank` if it has an open row.
  void close_row(std::uint32_t bank, std::uint32_t rank = 0);

  // --- Execution -------------------------------------------------------------

  /// Transfers the accumulated batch to DRAM Bender and executes it
  /// (Table 2: flush_commands). Returns Bender's report. When `charge` is
  /// false the batch runs for device-state maintenance only and does not
  /// advance any timeline (used for catch-up refreshes that overlap
  /// compute phases).
  bender::ExecutionResult flush_commands(bool charge = true);

  /// Commands queued in the unflushed batch.
  std::size_t batch_size() const { return program_.size(); }

  /// Readback buffer access (Table 2: rdback_cacheline). Precondition for
  /// rdback_cacheline: !rdback_empty(); entries come back in batch order
  /// and are invalidated by the next flush_commands.
  bool rdback_empty() const { return rdback_cursor_ >= readback_.size(); }
  bender::ReadbackEntry rdback_cacheline();

  // --- Maintenance -----------------------------------------------------------

  /// Consumes any refresh slots the emulated timeline owes (one per tREFI
  /// per rank): each slot either issues a REF or — when the installed
  /// RefreshPolicy declines it — advances the device's round-robin
  /// position for free (DramDevice::skip_refresh; a skipped slot costs
  /// nothing on any timeline, which is the entire benefit of
  /// retention-aware refresh). Catch-up refreshes that would have
  /// overlapped processor compute phases keep DRAM state fresh without
  /// charging the timeline; a refresh still in flight "now" is charged,
  /// delaying the current request as in a real controller.
  void refresh_if_due();

  // --- Introspection ---------------------------------------------------------

  /// Borrowed views of the channel's fixed collaborators (valid for this
  /// EasyApi's lifetime; all times in them are Picoseconds).
  const dram::TimingParams& timing() const { return device_->timing(); }
  const dram::Geometry& geometry() const { return device_->geometry(); }
  const AddressMapper& mapper() const { return *mapper_; }
  timescale::TimeKeeper& keeper() { return *keeper_; }
  tile::EasyTile& tile() { return *tile_; }
  /// Running totals since construction (see ApiStats field docs).
  const ApiStats& stats() const { return stats_; }
  /// Mutable stats access for the controller's error-pipeline counters
  /// (CE/UE classification and retries happen above this layer).
  ApiStats& stats_mutable() { return stats_; }
  /// Direct device access for setup phases (characterization fixtures);
  /// demand-path code must go through the batch interface instead.
  dram::DramDevice& device_for_setup() { return *device_; }

 private:
  /// Converts accumulated programmable-core cycles into wall time. Called
  /// before any operation that reads the wall clock (release tags, batch
  /// execution) so the No-Time-Scaling timeline sees the SMC's software
  /// latency as it accrues, not after the fact.
  void sync_meter();

  /// Request-servicing work: programmable-core cycles + emulated MC cycles.
  void charge_service(Cycles core_cycles);
  /// Background work (polling, mode flips): programmable-core cycles only.
  void charge_background(Cycles core_cycles);

  /// Catch-up/in-flight refresh convergence for one rank.
  void refresh_rank_if_due(std::uint32_t rank);

  /// Retirement remap applied by the high-level sequence builders (identity
  /// when no error policy is installed).
  dram::DramAddress remap_retired(const dram::DramAddress& a) const;

  /// Drives the patrol scrubber for one consumed refresh slot and charges
  /// the background cost of the lines it read.
  void scrub_slot(std::uint32_t rank, std::int64_t slot, Picoseconds now);

  std::uint32_t flat(std::uint32_t rank, std::uint32_t bank) const {
    return device_->geometry().flat_bank(rank, bank);
  }

  /// Records that the batch being built leaves `row` open in `bank` of
  /// `rank` (BankStateView::kClosed: precharged).
  void set_open_row(std::uint32_t bank, std::uint32_t rank, std::uint64_t row);
  /// Marks every bank of `rank` for a re-read after the next flush (a
  /// queued REF or precharge-all changes them all).
  void touch_rank(std::uint32_t rank);

  tile::EasyTile* tile_;
  dram::DramDevice* device_;
  const AddressMapper* mapper_;
  timescale::TimeKeeper* keeper_;
  std::uint32_t channel_ = 0;

  bender::Program program_;
  bender::Interpreter interpreter_;
  std::vector<bender::ReadbackEntry> readback_;
  std::size_t rdback_cursor_ = 0;

  // Effective open row per flat (rank, bank) bank, in BankStateView's
  // encoding: the device's open row, overridden by the commands queued in
  // the current batch. Invariant: after every flush_commands it equals
  // DramDevice::open_row for every bank. It holds because only this
  // EasyApi's interpreter issues commands to its device, and each flush
  // re-reads the banks its batch touched.
  std::vector<std::uint64_t> open_rows_;
  // Banks the current batch touched (duplicates allowed), kept as pairs so
  // the flush needs no division to split a flat index.
  struct TouchedBank {
    std::uint32_t rank;
    std::uint32_t bank;
  };
  std::vector<TouchedBank> touched_;

  bool setup_mode_ = false;
  ActSink* act_sink_ = nullptr;
  RefreshPolicy* refresh_policy_ = nullptr;
  ErrorPolicy* error_policy_ = nullptr;
  ApiStats stats_;
};

}  // namespace easydram::smc
