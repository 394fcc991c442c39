#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/units.hpp"
#include "dram/faults.hpp"
#include "dram/geometry.hpp"
#include "dram/timing.hpp"
#include "dram/types.hpp"
#include "dram/variation.hpp"

namespace easydram::dram {

/// Nominal-timing violations detected when a command is issued. DRAM
/// techniques violate timings *on purpose*, so a violation never rejects a
/// command; it selects the behavioural model (e.g. reduced-tRCD reads may
/// corrupt data, an early-PRE/early-ACT pattern triggers RowClone) and is
/// reported in IssueResult::violations, which tests assert on and
/// ApiStats::violations_seen counts.
enum Violation : std::uint32_t {
  kNone = 0,
  kBankNotIdle = 1u << 0,    ///< ACT on a bank with an open row.
  kBankNotActive = 1u << 1,  ///< RD/WR/PRE on an idle bank.
  kTrcd = 1u << 2,
  kTrp = 1u << 3,
  kTras = 1u << 4,
  kTrc = 1u << 5,
  kTccd = 1u << 6,
  kTrrd = 1u << 7,
  kTfaw = 1u << 8,
  kTwr = 1u << 9,
  kTrtp = 1u << 10,
  kTwtr = 1u << 11,
  kTrfc = 1u << 12,
  kRefreshNotIdle = 1u << 13,  ///< REF with an open bank.
  kBusConflict = 1u << 14,     ///< Data bus occupied by an earlier burst.
};

/// Result of issuing one command.
struct IssueResult {
  std::uint32_t violations = kNone;
  /// Data returned by kRead. Valid (possibly corrupted) even under timing
  /// violations, mirroring a real chip that always returns *something*.
  std::array<std::uint8_t, 64> data{};
  bool has_data = false;
  /// kRead only: false when the access used an effective tRCD below the
  /// line's minimum reliable value and returned corrupted data.
  bool data_reliable = true;
  /// ACT only: this activate completed an ACT->PRE->ACT RowClone pattern.
  bool rowclone_attempted = false;
  /// Whether the attempted RowClone copied the source row correctly.
  bool rowclone_success = false;
};

/// Behavioural + timing model of one DDR4 *channel* — one or more ranks
/// sharing a command/data bus — with process variation.
///
/// Commands carry absolute issue timestamps (integral picoseconds) and a
/// rank coordinate in their DramAddress; the caller (DRAM Bender's
/// interpreter, or a test) owns the timeline. Bank and rank-level timing
/// state (tFAW window, tRRD, tWTR, refresh) is tracked per rank; the data
/// bus is shared across ranks and consecutive bursts from different ranks
/// pay the tRTRS switch penalty. With the default single-rank geometry all
/// of this reduces exactly to the original one-rank model.
///
/// The device checks nominal timings, reports violations, and models the
/// out-of-spec behaviours the paper's techniques rely on:
///
///  * A read whose ACT->RD distance is below the nominal tRCD succeeds iff
///    the distance is at least the line's minimum reliable tRCD (per the
///    VariationModel); otherwise the returned data AND the stored row are
///    deterministically corrupted (the sense amplifier latches and restores
///    the wrong value).
///  * The command pattern ACT(src) -> early PRE -> early ACT(dst) attempts a
///    Fast-Parallel-Mode RowClone: if the pair is clonable (same subarray
///    and the variation model agrees), dst's row buffer and cells take src's
///    content; otherwise dst is deterministically corrupted.
///
/// Units: every time in this interface is integral Picoseconds on the
/// caller's absolute timeline. Thread-safety: none — a device belongs to
/// one channel's (single-threaded) controller loop; concurrent sweeps own
/// one device per task.
class DramDevice {
 public:
  DramDevice(const Geometry& geo, const TimingParams& timing,
             const VariationConfig& variation);

  /// The construction-time shape/timing/variation (never change after).
  const Geometry& geometry() const { return geo_; }
  const TimingParams& timing() const { return timing_; }
  const VariationModel& variation() const { return variation_; }

  /// Ranks on this channel (== geometry().ranks_per_channel).
  std::uint32_t num_ranks() const { return geo_.ranks_per_channel; }

  /// Issues `c` at absolute time `at` (Picoseconds). Preconditions:
  /// at >= now() (time is non-decreasing across calls), `a` within the
  /// geometry, `wdata` holds exactly 64 bytes for kWrite (ignored
  /// otherwise). `a.rank` selects the rank; `a.channel` is ignored (a
  /// device *is* one channel). Never rejects a command — out-of-spec
  /// issue selects the behavioural model and reports violations.
  IssueResult issue(Command c, const DramAddress& a, Picoseconds at,
                    std::span<const std::uint8_t> wdata = {});

  /// Earliest absolute time (Picoseconds, >= now()) at which `c` could be
  /// issued to `a` without violating any *nominal* timing parameter: issue
  /// at this time flags no timing bit, and one picosecond earlier flags
  /// one. The library's caller is bender::Interpreter, for
  /// `respect_nominal` commands; techniques ignore it deliberately.
  /// Precondition: `a.rank` < num_ranks(), and `a.bank` < num_banks() for
  /// per-bank commands (REF and PREA ignore `a.bank`).
  Picoseconds earliest_legal(Command c, const DramAddress& a) const;

  /// Open row of `bank` in `rank`, if any. Preconditions: bank <
  /// Geometry::num_banks(), rank < num_ranks(). Inline: the FR-FCFS scan
  /// asks once per scanned queue entry.
  std::optional<std::uint32_t> open_row(std::uint32_t bank,
                                        std::uint32_t rank = 0) const {
    EASYDRAM_EXPECTS(rank < ranks_.size() && bank < geo_.num_banks());
    const BankState& b = banks_[geo_.flat_bank(rank, bank)];
    if (!b.active) return std::nullopt;
    return b.row;
  }

  /// Time of the last issued command (the device clock high-water mark,
  /// Picoseconds). Advances only with command activity — idle emulated
  /// time does not move it.
  Picoseconds now() const { return now_; }

  /// Number of refresh *slots* (one per tREFI, per rank) the controller
  /// should have consumed by `at` to keep every row refreshed
  /// (at / tREFI). `at` is absolute picoseconds on the emulated timeline.
  /// A slot is consumed by either issuing a REF or explicitly skipping it
  /// (skip_refresh); pacing therefore compares this against
  /// refresh_slots(), not refreshes_issued().
  std::int64_t refreshes_due(Picoseconds at) const;
  /// REF commands actually issued to `rank`. Precondition: rank < num_ranks().
  std::int64_t refreshes_issued(std::uint32_t rank = 0) const;
  /// Refresh slots consumed by `rank`: refreshes issued plus refreshes
  /// skipped. This is the round-robin position — REF slot n targets stripe
  /// n mod Geometry::refresh_window_refs — so the stripe schedule stays
  /// aligned when a retention-aware policy skips slots. Equal to
  /// refreshes_issued() when nothing ever skips.
  std::int64_t refresh_slots(std::uint32_t rank = 0) const;
  /// Consumes one refresh slot of `rank` without issuing a REF: the
  /// round-robin position advances, no timing state changes, no victim
  /// counters reset, and the skipped stripe's retention clock keeps
  /// running. Called by a retention-aware refresh policy in place of a
  /// REF; has no cost on any timeline.
  void skip_refresh(std::uint32_t rank = 0);

  /// Test/initialization backdoor: reads or writes one stored cache line
  /// without timing or state effects. Unwritten cells read as zero.
  /// Preconditions: `a` within the geometry; `data`/`out` spans exactly
  /// 64 bytes.
  void backdoor_write(const DramAddress& a, std::span<const std::uint8_t> data);
  void backdoor_read(const DramAddress& a, std::span<std::uint8_t> out) const;
  /// Copies a whole row (used by test fixtures). Precondition: `data`
  /// spans exactly Geometry::row_bytes.
  void backdoor_write_row(std::uint32_t bank, std::uint32_t row,
                          std::span<const std::uint8_t> data,
                          std::uint32_t rank = 0);

  /// Statistics: total commands issued per command kind, over all ranks.
  std::int64_t commands_issued(Command c) const;

  /// Cache lines holding stored contents (written at least once, by any
  /// path). The device's cell footprint scales with this, not with the
  /// number of rows touched.
  std::size_t stored_lines() const { return cells_.stored_lines(); }

  // --- RowHammer exposure accounting ---------------------------------------
  //
  // Ground-truth disturbance bookkeeping, independent of any mitigation
  // policy running in the controller: every ACT of row R charges one
  // disturbance to each physically adjacent row (Geometry::neighbor_rows);
  // a victim's counter resets when the victim itself is activated (any ACT
  // restores the row, including a mitigator's targeted neighbor refresh)
  // or when a periodic REF's stripe reaches it (REF number n refreshes the
  // n-mod-8192-th rows_per_bank/8192-row stripe of every bank in the
  // rank). The *bitflip-window exposure* is the maximum counter value any
  // victim ever reached — the quantity a RowHammer threshold would be
  // compared against. Off by default (zero hot-path cost beyond a branch).

  /// Enables/disables the accounting; toggling resets all counters.
  void set_hammer_tracking(bool on);
  bool hammer_tracking() const { return hammer_tracking_; }
  /// Max disturbance count (ACTs) any victim row reached between two
  /// refreshes of that row, over the whole run so far.
  std::int64_t max_hammer_exposure() const { return hammer_max_exposure_; }
  /// Current (not yet refresh-reset) disturbance count of one row.
  /// Precondition: the coordinate is within the geometry; 0 while
  /// tracking is off.
  std::int64_t hammer_count(std::uint32_t bank, std::uint32_t row,
                            std::uint32_t rank = 0) const;

  // --- Retention ground truth ----------------------------------------------
  //
  // Independent check on any refresh-skipping policy running in the
  // controller: every *issued* REF measures how long its stripe went
  // unrefreshed and compares the gap against the stripe's minimum modeled
  // retention time (min of VariationModel::row_retention over every row of
  // the stripe in every bank of the rank). A gap exceeding the minimum
  // means a correctly modeled leaky cell *could* have decayed — a
  // retention violation, the quantity the misbinning-risk scenario sweeps.
  //
  // Gaps are measured in refresh-slot space — (slots elapsed) x tREFI —
  // not on the device command clock, which only advances with command
  // activity and would under-count idle stretches. Slot pacing ties slots
  // to the emulated timeline (one per tREFI), so this is the wall gap a
  // real chip's cells would see, and it is exactly deterministic. At
  // power-on every stripe counts as just refreshed one full window before
  // its first slot. Off by default; like hammer tracking it costs one
  // branch on the REF path when off.

  // --- Fault manifestation -------------------------------------------------
  //
  // Optional deterministic fault model (dram/faults.hpp) converting the
  // ground-truth signals above into per-word bitflips on the read path.
  // Hammer-triggered flips need hammer tracking on; retention flips need
  // retention tracking on (they read the stripe bookkeeping). Off by
  // default: without an installed model the read/write paths are
  // bit-identical to a device predating the fault pipeline.

  /// Installs (or, with a disabled config, removes) the fault model. The
  /// caller pre-mixes the channel index into cfg.seed.
  void install_fault_model(const FaultConfig& cfg);
  const FaultModel* fault_model() const { return fault_model_.get(); }

  /// Emulated-time reference for fault manifestation. The device's own
  /// command timeline only advances with DRAM busy time and lags far
  /// behind emulated time on sparse traffic, but FaultReadContext::at is
  /// contractually *absolute emulated* time (scheduled transients and
  /// retention-elapsed checks depend on it) — so the batch driver
  /// (EasyApi::flush_commands) publishes emulated-now here before every
  /// batch and read commands stamp faults with max(command time, clock).
  void set_fault_clock(Picoseconds emulated_now) { fault_clock_ = emulated_now; }

  /// Reads one stored line as the pipeline would see it — sticky fault
  /// overlay, stuck-at cells, and due transients applied at emulated time
  /// `at` — without touching any timing state. The patrol scrubber's read
  /// path. Preconditions: `a` within the geometry, `out` spans 64 bytes.
  void scrub_read(const DramAddress& a, Picoseconds at,
                  std::span<std::uint8_t> out);
  /// Stores corrected data and clears the line's sticky flips (a write
  /// restores full charge). The patrol scrubber's write-back path.
  void scrub_writeback(const DramAddress& a, std::span<const std::uint8_t> data);

  void set_retention_tracking(bool on);
  bool retention_tracking() const { return retention_tracking_; }
  /// Issued REFs whose stripe gap exceeded the stripe's minimum retention.
  std::int64_t retention_violations() const { return retention_violations_; }
  /// Worst overshoot observed: max over violations of (gap - min
  /// retention). Zero when no violation occurred.
  Picoseconds max_retention_overshoot() const { return retention_overshoot_; }
  /// Minimum modeled retention over every row of `stripe` across every
  /// bank of `rank` (cached after first query). Preconditions: retention
  /// tracking enabled, stripe < Geometry::refresh_window_refs.
  Picoseconds stripe_min_retention(std::uint32_t rank, std::uint32_t stripe) const;

 private:
  struct BankState {
    bool active = false;
    std::uint32_t row = 0;
    Picoseconds act_time;       ///< When the current/most recent ACT was issued.
    Picoseconds pre_time;       ///< When the most recent PRE was issued.
    Picoseconds last_rd;        ///< Most recent RD command time.
    Picoseconds wr_data_end;    ///< End of the most recent write burst.
    // RowClone detection: set when the bank saw ACT(row) then an early PRE.
    bool early_pre_pending = false;
    std::uint32_t early_pre_row = 0;
    Picoseconds early_pre_at;
  };

  /// The last four ACT times of one rank (tFAW) as a fixed ring: each ACT
  /// overwrites the oldest entry once four are recorded.
  class ActWindow {
   public:
    bool full() const { return count_ == times_.size(); }
    /// Oldest recorded ACT. Precondition: full().
    Picoseconds oldest() const { return times_[head_]; }
    void push(Picoseconds at) {
      if (!full()) {
        times_[count_++] = at;  // head_ stays 0 until the ring fills.
        return;
      }
      times_[head_] = at;
      head_ = (head_ + 1) % times_.size();
    }
    void clear() { head_ = count_ = 0; }

   private:
    std::array<Picoseconds, 4> times_{};
    std::size_t head_ = 0;
    std::size_t count_ = 0;
  };

  /// Sparse cell contents at cache-line granularity, in three levels: an
  /// open-addressing index from chunk key to a chunk record, where a chunk
  /// is kChunkLines adjacent lines of one row (key = (fbank * rows_per_bank
  /// + row) * chunks_per_row + col / kChunkLines); per record, kChunkLines
  /// line ids (0 = never written); and a pool of 64-byte lines allocated
  /// in 256 KiB blocks. Ids therefore cost memory per touched chunk, not
  /// per touched row. Blocks are left uninitialized and each line is
  /// zeroed when it materializes, so untouched pages never become resident
  /// and line addresses stay stable across later inserts. Unwritten lines
  /// read as zero.
  class LineStore {
   public:
    using Line = std::array<std::uint8_t, 64>;

    /// Precondition: every chunk key of the geometry fits 32 bits.
    LineStore(std::uint32_t banks, std::uint32_t rows_per_bank,
              std::uint32_t cols_per_row);

    /// The stored line, materialized as zeros on first use.
    Line& line_data(std::uint32_t fbank, std::uint32_t row, std::uint32_t col);
    /// The stored line, or null when it was never materialized.
    const Line* line_if_present(std::uint32_t fbank, std::uint32_t row,
                                std::uint32_t col) const;
    std::size_t stored_lines() const { return lines_; }

   private:
    /// One index slot: key + 1 (0 = empty) and the chunk's record number.
    struct Slot {
      std::uint32_t key_plus_one = 0;
      std::uint32_t record = 0;
    };
    static constexpr std::uint32_t kNoRecord = ~std::uint32_t{0};
    static constexpr std::size_t kLinesPerBlock = 4096;  ///< 256 KiB.
    /// Lines per chunk record. 8 ids make a 32-byte record: narrower
    /// chunks grow the index, wider ones hold more never-written ids.
    static constexpr std::uint32_t kChunkLines = 8;

    std::uint32_t key(std::uint32_t fbank, std::uint32_t row,
                      std::uint32_t col) const {
      return (fbank * rows_per_bank_ + row) * chunks_per_row_ + col / kChunkLines;
    }
    std::size_t home(std::uint32_t key) const;  ///< First probe slot.
    std::uint32_t find_record(std::uint32_t key) const;
    /// Stores `slot` in the first free slot of its probe sequence.
    void place(Slot slot);
    /// Adds an all-unwritten record for `key`, growing the index first
    /// when the insert would lift its load above 1/2.
    std::uint32_t insert_record(std::uint32_t key);
    /// Where `col`'s line id sits in chunk record `record`.
    static std::size_t id_index(std::uint32_t record, std::uint32_t col) {
      return static_cast<std::size_t>(record) * kChunkLines + col % kChunkLines;
    }
    Line& line_at(std::uint32_t id) const {
      return blocks_[(id - 1) / kLinesPerBlock][(id - 1) % kLinesPerBlock];
    }

    std::uint32_t rows_per_bank_;
    std::uint32_t chunks_per_row_;
    std::vector<Slot> index_;  ///< Power-of-two size, load <= 1/2.
    int index_shift_ = 64;     ///< 64 - log2(index_.size()).
    std::vector<std::uint32_t> line_ids_;  ///< kChunkLines per record.
    std::vector<std::unique_ptr<Line[]>> blocks_;
    std::size_t lines_ = 0;
  };

  /// Timing state one rank carries independently of its siblings.
  struct RankState {
    ActWindow act_window;                        ///< Last ACT times (tFAW).
    std::vector<Picoseconds> last_act_in_group;  ///< Per bank group (tRRD_L).
    Picoseconds last_act_any;
    std::vector<Picoseconds> last_col_in_group;  ///< Per bank group (tCCD_L).
    Picoseconds last_col_any;
    Picoseconds last_wr_data_end_any;            ///< For tWTR.
    std::vector<Picoseconds> wr_data_end_in_group;
    Picoseconds ref_busy_until;
    std::int64_t refreshes_issued = 0;
    /// Refresh slots consumed (issued + skipped): the round-robin stripe
    /// position. Stays equal to refreshes_issued under the default
    /// all-rows refresh regime.
    std::int64_t refresh_slots = 0;
  };

  /// Per-channel flat bank index; rank 0 coincides with the historical
  /// single-rank indices (and with the VariationModel's bank namespace).
  std::uint32_t flat(const DramAddress& a) const {
    return geo_.flat_bank(a.rank, a.bank);
  }

  void corrupt_line(std::uint32_t fbank, std::uint32_t row, std::uint32_t col,
                    std::uint64_t salt);
  void corrupt_row(std::uint32_t fbank, std::uint32_t row, std::uint64_t salt);

  /// Data-bus availability for a burst from `rank`: crossing ranks adds the
  /// tRTRS turnaround on top of the previous burst's occupancy.
  Picoseconds bus_free_for(std::uint32_t rank) const;

  /// The nominal DDR4 timing rules, each written once: calls
  /// f(not_before, bit) for every constraint on issuing `c` to `a`, where
  /// issuing before `not_before` breaks the rule that `bit` names.
  /// earliest_legal is the latest not_before; issue flags every rule whose
  /// not_before lies after the issue time. Checks the earliest_legal
  /// precondition on `a`.
  template <class F>
  void for_each_rule(Command c, const DramAddress& a, F&& f) const;
  /// Bits of the rules that issuing `c` to `a` at `at` breaks.
  std::uint32_t timing_violations(Command c, const DramAddress& a,
                                  Picoseconds at) const;

  /// RowHammer accounting hooks (no-ops unless tracking is enabled).
  void note_hammer_act(std::uint32_t fbank, std::uint32_t row);
  void note_hammer_refresh(std::uint32_t rank, std::int64_t ref_slot);

  /// Retention accounting hook for one issued REF (tracking must be on).
  void note_retention_refresh(std::uint32_t rank, std::int64_t ref_slot);

  /// Ground-truth context for one fault-model read of (rank, fbank, row).
  FaultReadContext fault_context(std::uint32_t rank, std::uint32_t fbank,
                                 std::uint32_t row, std::uint32_t col,
                                 Picoseconds at) const;
  /// The row's stripe epoch marker (last-REF slot; 0 when untracked).
  std::int64_t retention_epoch_of(std::uint32_t rank, std::uint32_t row) const;

  Geometry geo_;
  TimingParams timing_;
  VariationModel variation_;

  std::vector<BankState> banks_;  ///< Indexed by flat (rank, bank).
  LineStore cells_;  ///< Cell contents, sparse per written line.

  std::vector<RankState> ranks_;

  // Channel-level state: one data bus shared by every rank.
  Picoseconds data_bus_free_;
  std::uint32_t last_bus_rank_ = 0;

  Picoseconds now_;
  std::array<std::int64_t, 7> cmd_counts_{};

  // RowHammer exposure accounting (sparse: only disturbed rows hold a
  // counter). Indexed by flat (rank, bank); empty while tracking is off.
  bool hammer_tracking_ = false;
  std::vector<std::unordered_map<std::uint32_t, std::int64_t>> hammer_counts_;
  std::int64_t hammer_max_exposure_ = 0;

  // Retention ground truth (empty while tracking is off). Indexed
  // [rank * refresh_window_refs + stripe]; last-REF *slot* numbers start
  // at stripe - window (the power-on convention above) and min-retention
  // slots are filled lazily (-1 = not yet computed).
  bool retention_tracking_ = false;
  std::vector<std::int64_t> stripe_last_ref_slot_;
  mutable std::vector<std::int64_t> stripe_min_retention_;
  std::int64_t retention_violations_ = 0;
  Picoseconds retention_overshoot_{};

  // Deterministic fault manifestation (null unless installed).
  Picoseconds fault_clock_{};
  std::unique_ptr<FaultModel> fault_model_;
};

}  // namespace easydram::dram
