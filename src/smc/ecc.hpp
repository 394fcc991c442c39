#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/units.hpp"
#include "dram/device.hpp"
#include "dram/geometry.hpp"

namespace easydram::smc {

struct ApiStats;

/// Outcome of decoding one protected word (or, as a worst-over-words
/// summary, one cache line).
enum class EccStatus : std::uint8_t {
  kOk = 0,           ///< Syndrome clean — data accepted as stored.
  kCorrected = 1,    ///< Single-bit error corrected (CE).
  kUncorrectable = 2 ///< Detected-uncorrectable error (UE).
};

/// SEC-DED Hamming(72,64): 64 data bits protected by 7 Hamming check bits
/// plus an overall even-parity bit. Corrects any single-bit error and
/// detects any double-bit error; like the real code, 3+ flipped bits in
/// one word can alias a correctable pattern (the fault model therefore
/// never stacks manifested flips past two bits per word — see
/// FaultModel::manifest_sticky).
class EccCodec {
 public:
  /// Check byte for `word`: bits 0..6 Hamming checks, bit 7 overall parity.
  static std::uint8_t encode(std::uint64_t word);

  struct Decode {
    EccStatus status = EccStatus::kOk;
    std::uint64_t data = 0;  ///< Corrected word (unchanged unless CE).
  };
  static Decode decode(std::uint64_t word, std::uint8_t check);
};

/// Controller-level error-handling knobs. Default-off: a system built
/// without touching this struct has no ECC path, no scrubber, and no
/// retirement machinery constructed at all.
struct EccConfig {
  bool enabled = false;

  /// Patrol scrub: piggybacks on the refresh-slot round-robin — every slot
  /// consumed for a rank (issued *or* skipped by a retention-aware policy,
  /// which is what lets scrub catch misbinned rows RAIDR stopped
  /// refreshing) scrubs up to `scrub_lines_per_slot` ECC-protected lines
  /// of that slot's stripe, correcting CEs in place (write-back) and
  /// retiring rows with UEs.
  bool scrub = false;
  std::uint32_t scrub_lines_per_slot = 2;

  /// Bounded re-read retries after a demand UE (distinguishes transient
  /// upsets, which read clean on retry, from hard faults, which do not).
  std::uint32_t max_retries = 2;

  /// A row accumulating this many CEs is retired (PPR-style remap to a
  /// spare row) before it degrades into a UE.
  std::uint32_t ce_retire_threshold = 4;

  /// Spare rows reserved at the top of every bank for retirement remaps.
  /// When a bank's budget is exhausted the system degrades gracefully:
  /// hard UEs fail the request with a typed error, never a silent wrong
  /// answer.
  std::uint32_t spare_rows_per_bank = 4;
};

/// Per-bank PPR-style row retirement: retired rows remap to spare rows
/// reserved at the top of the bank. One per channel, owned by the system
/// layer's channel slice through its ErrorPolicy.
class RowRetirementMap {
 public:
  RowRetirementMap(const dram::Geometry& geo, std::uint32_t spare_rows_per_bank);

  /// Follows the remap chain (a retired spare remaps again) to the row
  /// that actually holds the data. Identity for unretired rows.
  std::uint32_t remap(std::uint32_t fbank, std::uint32_t row) const;
  bool is_retired(std::uint32_t fbank, std::uint32_t row) const;

  /// Assigns the bank's next spare row to `row`. nullopt when the budget
  /// is exhausted or `row` is already retired.
  std::optional<std::uint32_t> retire(std::uint32_t fbank, std::uint32_t row);

  /// CE bookkeeping: bumps the row's corrected-error count and returns it.
  std::int64_t note_ce(std::uint32_t fbank, std::uint32_t row);

  std::int64_t rows_retired() const { return rows_retired_; }
  bool budget_exhausted(std::uint32_t fbank) const;

 private:
  std::uint64_t key(std::uint32_t fbank, std::uint32_t row) const;

  dram::Geometry geo_;
  std::uint32_t spare_rows_per_bank_;
  std::unordered_map<std::uint64_t, std::uint32_t> remap_;     // lookup only
  std::unordered_map<std::uint64_t, std::int64_t> ce_counts_;  // lookup only
  std::vector<std::uint32_t> spares_used_;  ///< Per flat bank.
  std::int64_t rows_retired_ = 0;
};

/// One channel's error-handling state: the ECC check-bit side store, the
/// retirement map, and the patrol-scrub cursor machinery. System-owned per
/// channel; controllers and the channel's EasyApi borrow non-owning
/// pointers (the "controllers are disposable; policies are not" rule).
///
/// Check bits are written by the controller's write path and *kept* across
/// retirement migration, so data whose stored value diverged from what was
/// written (e.g. a reduced-tRCD read that corrupted the row) stays
/// detectable — recomputing checks over corrupt data would launder it.
class ErrorPolicy {
 public:
  ErrorPolicy(const dram::Geometry& geo, const EccConfig& cfg);

  const EccConfig& config() const { return cfg_; }
  RowRetirementMap& retirement() { return retirement_; }
  const RowRetirementMap& retirement() const { return retirement_; }

  /// Write path: (re)computes and stores the line's check bits.
  void note_write(std::uint32_t fbank, std::uint32_t row, std::uint32_t col,
                  std::span<const std::uint8_t> data);
  bool line_protected(std::uint32_t fbank, std::uint32_t row,
                      std::uint32_t col) const;

  /// Read path: decodes `data` (64 bytes) against the stored check bits,
  /// correcting single-bit words in place. Unprotected (never written)
  /// lines decode as kOk. Returns the worst per-word status.
  EccStatus decode_line(std::uint32_t fbank, std::uint32_t row,
                        std::uint32_t col, std::span<std::uint8_t> data) const;

  /// One line's check bits as they stood at some moment: what a read that
  /// ran then decodes against once a later write has replaced them.
  struct LineChecks {
    bool present = false;  ///< False for a never-written line.
    std::array<std::uint8_t, 8> ck{};
  };
  LineChecks line_checks(std::uint32_t fbank, std::uint32_t row,
                         std::uint32_t col) const;
  /// decode_line against a snapshot instead of the stored check bits.
  static EccStatus decode_line(const LineChecks& checks,
                               std::span<std::uint8_t> data);

  /// CE bookkeeping; true when the row just crossed the retirement
  /// threshold (and should be retired by the caller).
  bool note_ce(std::uint32_t fbank, std::uint32_t row);

  /// Retires (fbank, row) and migrates its data to the spare: every
  /// protected column is copied through the correction path (CE words
  /// fixed, UE words copied verbatim with their original check bits so
  /// the loss stays detectable). Returns the spare row, or nullopt when
  /// the bank's budget is exhausted.
  std::optional<std::uint32_t> retire_row(std::uint32_t rank, std::uint32_t bank,
                                          std::uint32_t row,
                                          dram::DramDevice& dev);

  /// Patrol scrub for one consumed refresh slot of `rank`: scrubs up to
  /// scrub_lines_per_slot protected lines of the slot's stripe (resuming
  /// a per-stripe cursor), correcting CEs via write-back and retiring
  /// rows with UEs. `now` is the emulated time of the slot.
  void scrub_on_slot(std::uint32_t rank, std::int64_t slot, Picoseconds now,
                     dram::DramDevice& dev, ApiStats& stats);

 private:
  /// One row's check-bit store: a presence bitmap over columns plus the
  /// per-line check bytes (one per 64-bit word), allocated lazily the
  /// first time a line of the row is written. Direct indexing keeps the
  /// per-request cost flat — the ECC path runs on every read and write of
  /// an ECC-on system, so a node-based map here dominates the simulator's
  /// hot path (measured ~3.5x on the micro burst before this layout).
  struct RowChecks {
    std::vector<std::uint64_t> present;           ///< (cols + 63) / 64 words.
    std::vector<std::array<std::uint8_t, 8>> ck;  ///< One entry per column.
  };

  std::uint64_t line_key(std::uint32_t fbank, std::uint32_t row,
                         std::uint32_t col) const;
  const RowChecks* row_checks(std::uint32_t fbank, std::uint32_t row) const;
  RowChecks& ensure_row(std::uint32_t fbank, std::uint32_t row);
  bool col_present(const RowChecks& rc, std::uint32_t col) const;
  /// SEC-DED over the line's eight words, correcting CEs in place; returns
  /// the worst per-word status.
  static EccStatus decode_words(const std::array<std::uint8_t, 8>& ck,
                                std::span<std::uint8_t> data);

  dram::Geometry geo_;
  EccConfig cfg_;
  RowRetirementMap retirement_;
  /// Check-bit side store indexed [fbank][row]; the inner row vector is
  /// allocated on a bank's first protected write, keeping construction
  /// O(banks). The line-key order (fbank, row, col) the scrub cursor walks
  /// is preserved by iterating banks, rows, and column bits ascending.
  std::vector<std::vector<std::unique_ptr<RowChecks>>> banks_;
  std::int64_t protected_lines_ = 0;
  /// Per (rank * window + stripe): next line key the scrub cursor visits.
  std::vector<std::uint64_t> scrub_cursor_;
};

}  // namespace easydram::smc
