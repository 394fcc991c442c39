#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "dram/geometry.hpp"

namespace easydram::dram {

/// Configuration of the synthetic process-variation model.
///
/// The paper characterizes a real Micron DDR4 module (Fig. 12): every row
/// operates below the nominal tRCD of 13.5 ns, 84.5 % of cache lines are
/// "strong" (reliable at <= 9.0 ns) and weak lines cluster spatially. We have
/// no real chip, so this model synthesizes a deterministic per-row minimum
/// reliable tRCD field with the same statistics: a hash-seeded, spatially
/// smoothed noise field shaped so the strong fraction matches the paper.
struct VariationConfig {
  std::uint64_t seed = 0x5AFA2125;

  /// Lower bound of the min-reliable-tRCD field.
  Picoseconds min_trcd{8000};
  /// Upper bound of the field (must stay below nominal tRCD: the paper
  /// observes that *all* rows work below the 13.5 ns nominal).
  Picoseconds max_trcd{10600};
  /// Shaping exponent (>= 0): larger values skew the field toward min_trcd,
  /// raising the strong fraction. Calibrated so P(row <= 9.0 ns) ~ 0.845.
  double shape = 3.05;
  /// Per-cache-line downward jitter from the row value (the row's minimum
  /// reliable tRCD is the max over its lines).
  Picoseconds line_jitter{800};

  /// Probability that an intra-subarray (src, dst) row pair supports
  /// reliable RowClone. The paper does not report the measured fraction;
  /// its Init speedups (36.7x NoTS / 1.8x TS, both fallback-sensitive)
  /// imply only ~1% of fixed-source pairs fall back.
  double rowclone_pair_success = 0.99;

  // --- Retention-time model (RAIDR-style refresh skipping) -----------------
  //
  // Deterministic per-row retention time, seeded from the same `seed` as
  // the tRCD field (distinct hash salts, so the two fields are
  // independent). Real DRAM retention is strongly bimodal: almost every
  // cell retains for seconds, and a tiny leaky population sits near the
  // 64 ms JEDEC floor. RAIDR's measured distribution (Liu+, ISCA'12) puts
  // ~1e-3 of rows below 256 ms in a 32 GiB pool; the class probabilities
  // below reproduce that shape so a 64-row refresh stripe lands in the
  // 256 ms bin ~87% of the time, which is what yields the classic ~70%
  // REF reduction.

  /// Base retention bin — the guaranteed JEDEC refresh window (64 ms). Row
  /// retention classes are expressed as multiples of this value, so
  /// time-compressed scenarios can shrink the whole model coherently.
  Picoseconds retention_base{64'000'000'000};
  /// Probability a row retains only [1, 2) x retention_base (the weakest
  /// class: must be refreshed every window).
  double retention_p_weakest = 0.00015;
  /// Probability a row retains only [2, 4) x retention_base.
  double retention_p_weak = 0.0013;
  /// All other rows are strong: retention uniform in [4, 16) x
  /// retention_base.
};

/// Deterministic synthetic DRAM process variation: per-line minimum reliable
/// tRCD and per-pair RowClone feasibility. All queries are pure functions of
/// (seed, coordinates) so that "the chip" behaves identically across runs,
/// which is what makes the paper's 1000-trial clonability test meaningful.
///
/// `bank` arguments accept the per-channel flat index (rank * num_banks +
/// bank), so every rank of a multi-rank channel gets its own variation
/// field; rank 0 coincides with the historical single-rank indices. Each
/// channel owns a separately seeded model.
class VariationModel {
 public:
  /// Precondition: cfg.shape >= 0 (not NaN), which keeps every row value
  /// within [min(min_trcd, max_trcd), max(min_trcd, max_trcd)].
  VariationModel(const Geometry& geo, const VariationConfig& cfg);

  const VariationConfig& config() const { return cfg_; }

  /// Minimum tRCD (ps) at which every cache line of `row` reads reliably.
  Picoseconds row_min_trcd(std::uint32_t bank, std::uint32_t row) const;

  /// Minimum reliable tRCD of one cache line. Never exceeds the row value;
  /// at least one line per row equals the row value.
  Picoseconds line_min_trcd(std::uint32_t bank, std::uint32_t row,
                            std::uint32_t col) const;

  /// Upper bound on every line_min_trcd value: max(min_trcd, max_trcd),
  /// plus the jitter when line_jitter is negative (lines then sit above
  /// their row). A read whose ACT->RD distance reaches it is reliable on
  /// any line, so the device skips the per-line lookup.
  Picoseconds line_min_trcd_ceiling() const { return trcd_ceiling_; }

  /// Whether a RowClone from `src_row` to `dst_row` inside `bank` reliably
  /// copies data. Always false across subarray boundaries (FPM RowClone is
  /// an intra-subarray operation).
  bool rowclone_pair_ok(std::uint32_t bank, std::uint32_t src_row,
                        std::uint32_t dst_row) const;

  /// Retention time of `row` (ps): how long its weakest cell holds data
  /// after a refresh/activation before it may decay. A pure function of
  /// (seed, bank, row) — always >= cfg_.retention_base, drawn from the
  /// three-class model described in VariationConfig. `bank` is the
  /// per-channel flat index, like every other query on this model.
  Picoseconds row_retention(std::uint32_t bank, std::uint32_t row) const;

 private:
  /// Smooth noise in [0,1] over the bank's (row-in-group, group) plane;
  /// bilinear interpolation of a hashed lattice makes weak regions cluster.
  double smooth_noise(std::uint32_t bank, std::uint32_t row) const;

  Geometry geo_;
  VariationConfig cfg_;
  Picoseconds trcd_ceiling_;
  /// Direct-mapped memo of row_min_trcd (a pure function of the seed and
  /// the row coordinate, but pow()-heavy): row opens dominate both
  /// simulators' hot paths and revisit the same rows constantly. Fixed
  /// footprint so the many short-lived devices of a sweep pay no per-bank
  /// allocation; a colliding coordinate simply recomputes.
  struct RowTrcdSlot {
    std::uint64_t key = ~0ull;  ///< bank << 32 | row; ~0 = empty.
    std::int64_t ps = 0;
  };
  static constexpr std::size_t kRowTrcdCacheSize = 4096;  ///< Power of two.
  mutable std::vector<RowTrcdSlot> row_trcd_cache_;
};

}  // namespace easydram::dram
