#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/units.hpp"
#include "dram/geometry.hpp"

namespace easydram::dram {

/// One permanently faulty cell: every read of the containing line sees
/// `bit` of byte `byte_in_line` forced to `value`. The stored data is
/// untouched, so a PPR-style remap to a spare row genuinely escapes the
/// fault. Coordinates use the per-channel flat bank index.
struct StuckAtFault {
  std::uint32_t fbank = 0;
  std::uint32_t row = 0;
  std::uint32_t col = 0;
  std::uint32_t byte_in_line = 0;  ///< 0..63
  std::uint32_t bit = 0;           ///< 0..7
  std::uint32_t value = 1;         ///< 0 or 1
};

/// One scheduled transient upset: the first read of (fbank, row, col) at or
/// after `at` (absolute emulated picoseconds) sees `xor_mask` applied to
/// `byte_in_line` — on that read only. The stored data is untouched, so a
/// bounded re-read retry observes clean data (the transient/hard
/// distinction the controller's retry policy keys on).
struct TransientFault {
  Picoseconds at{};
  std::uint32_t fbank = 0;
  std::uint32_t row = 0;
  std::uint32_t col = 0;
  std::uint32_t byte_in_line = 0;
  std::uint8_t xor_mask = 1;
};

/// Scenario/CLI-injectable fault plan for controlled experiments.
struct FaultPlan {
  std::vector<StuckAtFault> stuck;
  std::vector<TransientFault> transient;
};

/// Configuration of the deterministic fault-manifestation model. Default
/// construction disables everything: a system built without touching this
/// struct is bit-identical to one predating the fault pipeline.
struct FaultConfig {
  bool enabled = false;

  /// Base seed of every fault draw. Scenarios pass their scenario seed;
  /// EasyDramSystem mixes the channel index in (like the variation model)
  /// so channels fault independently and any --threads value replays the
  /// same draws.
  std::uint64_t seed = 0x5AFA2125;

  /// Per-read probability of a random transient upset (the fault_sweep
  /// axis): an affected read gets one flipped bit — or a double-bit flip
  /// in the same 64-bit word with probability
  /// `transient_double_bit_fraction` — applied to this read only.
  double transient_read_rate = 0.0;
  double transient_double_bit_fraction = 0.15;

  /// Hammer-induced flips: when a victim row's ground-truth disturbance
  /// counter (DramDevice hammer accounting — requires
  /// SystemConfig::track_row_hammer) crosses this threshold, up to
  /// `hammer_flip_cells` lines of the victim row acquire sticky flips.
  /// 0 disables the trigger.
  std::int64_t hammer_flip_threshold = 0;
  std::uint32_t hammer_flip_cells = 2;
  double hammer_double_bit_fraction = 0.25;

  /// Retention flips: a read whose row went unrefreshed longer than its
  /// modeled retention time (requires SystemConfig::track_retention for
  /// the stripe bookkeeping) acquires a sticky flip, once per line per
  /// refresh epoch. Decayed cells keep their wrong value across later
  /// REFs — only a write (or a scrub write-back) restores them.
  bool retention_flips = false;
  double retention_double_bit_fraction = 0.1;

  FaultPlan plan;
};

/// Ground-truth context the device hands to FaultModel::apply_read.
struct FaultReadContext {
  Picoseconds at{};  ///< Absolute emulated time of the read.
  std::uint32_t rank = 0;
  std::uint32_t fbank = 0;
  std::uint32_t row = 0;
  std::uint32_t col = 0;
  /// Retention ground truth; valid only when the device tracks retention.
  bool retention_valid = false;
  std::int64_t stripe_last_ref_slot = 0;  ///< Epoch marker for this row's stripe.
  Picoseconds trefi{};
  Picoseconds row_retention{};
};

/// Deterministic fault manifestation for one channel. Owned by the
/// channel's DramDevice and driven from its (single-threaded) command
/// path, so every draw happens in emulated-time order regardless of the
/// host thread count. All randomness is Xoshiro streams keyed from
/// `FaultConfig::seed` via hash_mix with distinct salts — never from any
/// other entropy source (enforced by the `fault-injection-seeding` lint
/// check).
///
/// Manifested hammer/retention flips are *sticky*: they model decayed
/// charge, so they persist across refreshes (a REF restores the wrong
/// value) and are cleared only by a write to the line (fresh data, fresh
/// charge) — which is what makes patrol scrubbing's corrected write-back
/// effective. Stuck-at faults are forced on every read; scheduled and
/// random transients apply to a single read.
class FaultModel {
 public:
  FaultModel(const Geometry& geo, const FaultConfig& cfg);

  const FaultConfig& config() const { return cfg_; }

  /// Applies every manifested fault to a 64-byte line being read at
  /// ctx.at. Returns true when at least one bit was altered.
  bool apply_read(const FaultReadContext& ctx, std::span<std::uint8_t> data);

  /// A write stores fresh data with full charge: sticky flips on the line
  /// are cleared and retention re-manifestation is suppressed until the
  /// stripe's next refresh epoch (`epoch` = the stripe's last-REF slot
  /// marker at write time; pass 0 when retention is untracked).
  void on_write(std::uint32_t fbank, std::uint32_t row, std::uint32_t col,
                std::int64_t epoch);

  /// Hammer ground-truth hook: the device reports every victim-counter
  /// value it bumps; crossing the configured threshold manifests sticky
  /// flips in the victim row.
  void on_hammer_act(std::uint32_t fbank, std::uint32_t row, std::int64_t count);

  /// Sticky flips manifested so far (hammer + retention cells).
  std::int64_t faults_manifested() const { return faults_manifested_; }
  /// Reads that returned at least one altered bit — the "served corrupt
  /// data" ground truth an unprotected (no-ECC) system silently eats.
  std::int64_t faulty_reads_served() const { return faulty_reads_served_; }

 private:
  std::uint64_t line_key(std::uint32_t fbank, std::uint32_t row,
                         std::uint32_t col) const;

  /// Adds a 1-or-2-bit flip (both bits inside one 64-bit word, so SEC-DED
  /// sees a clean CE/UE) to the line's sticky overlay. Lines that already
  /// carry overlay bits are skipped: manifested flips never stack into
  /// 3+-bit words that could alias a valid codeword.
  void manifest_sticky(std::uint32_t fbank, std::uint32_t row, std::uint32_t col,
                       std::uint64_t stream_seed, double double_bit_fraction);

  Geometry geo_;
  FaultConfig cfg_;

  /// Sticky per-line XOR overlay (decayed/disturbed charge). Lookup and
  /// erase only — never iterated.
  std::unordered_map<std::uint64_t, std::array<std::uint8_t, 64>> overlay_;

  /// Per-line retention epoch already manifested (or suppressed by a
  /// write); missing = never.
  std::unordered_map<std::uint64_t, std::int64_t> retention_epoch_;

  /// Per-row count of hammer threshold crossings (distinct draw per epoch).
  std::unordered_map<std::uint64_t, std::int64_t> hammer_epochs_;

  /// Plan lookup: line key -> indices into cfg_.plan.
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> stuck_by_line_;
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> transient_by_line_;
  std::vector<bool> transient_consumed_;

  /// Read-order counter keying the random-transient stream (per channel,
  /// advanced only while the rate is nonzero).
  std::int64_t read_seq_ = 0;

  std::int64_t faults_manifested_ = 0;
  std::int64_t faulty_reads_served_ = 0;
};

}  // namespace easydram::dram
