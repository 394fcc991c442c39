#include "dram/variation.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace easydram::dram {

namespace {

constexpr std::uint32_t kRowsPerGroup = 64;  // Fig. 12 heatmap granularity.
constexpr std::uint32_t kLatticeStep = 8;

double lattice_value(std::uint64_t seed, std::uint32_t bank, std::uint32_t u,
                     std::uint32_t v) {
  return to_unit_double(hash_mix(seed, bank, u, v));
}

}  // namespace

VariationModel::VariationModel(const Geometry& geo, const VariationConfig& cfg)
    : geo_(geo), cfg_(cfg), trcd_ceiling_{std::numeric_limits<std::int64_t>::max()} {
  // pow(n, shape) <= 1 for the field's n in [0, 1] needs shape >= 0 (and
  // rules out NaN). The row value is then at most min_trcd + span, which
  // is max(min_trcd, max_trcd) whatever the sign of the span.
  if (cfg.shape >= 0.0) {
    trcd_ceiling_ = std::max(cfg.min_trcd, cfg.max_trcd) +
                    std::max(Picoseconds{0}, Picoseconds{0} - cfg.line_jitter);
  }
}

double VariationModel::smooth_noise(std::uint32_t bank, std::uint32_t row) const {
  // Map the row to 2D physical-layout-like coordinates: position within its
  // 64-row group (x) and the group index (y), then bilinearly interpolate a
  // hashed lattice with 8-unit spacing so that weak areas span contiguous
  // regions of rows and groups, as in the paper's heatmap.
  const std::uint32_t x = row % kRowsPerGroup;
  const std::uint32_t y = row / kRowsPerGroup;
  const std::uint32_t x0 = x / kLatticeStep;
  const std::uint32_t y0 = y / kLatticeStep;
  const double fx = static_cast<double>(x % kLatticeStep) / kLatticeStep;
  const double fy = static_cast<double>(y % kLatticeStep) / kLatticeStep;

  const double v00 = lattice_value(cfg_.seed, bank, x0, y0);
  const double v10 = lattice_value(cfg_.seed, bank, x0 + 1, y0);
  const double v01 = lattice_value(cfg_.seed, bank, x0, y0 + 1);
  const double v11 = lattice_value(cfg_.seed, bank, x0 + 1, y0 + 1);

  const double top = v00 * (1.0 - fx) + v10 * fx;
  const double bot = v01 * (1.0 - fx) + v11 * fx;
  return top * (1.0 - fy) + bot * fy;
}

Picoseconds VariationModel::row_min_trcd(std::uint32_t bank, std::uint32_t row) const {
  EASYDRAM_EXPECTS(bank < geo_.banks_per_channel() && row < geo_.rows_per_bank);
  if (row_trcd_cache_.empty()) row_trcd_cache_.resize(kRowTrcdCacheSize);
  const std::uint64_t key = (static_cast<std::uint64_t>(bank) << 32) | row;
  // Spread consecutive rows and banks over the table; power-of-two mask.
  const std::size_t slot_idx =
      static_cast<std::size_t>((row + bank * 0x9E3779B9ull)) &
      (kRowTrcdCacheSize - 1);
  RowTrcdSlot& slot = row_trcd_cache_[slot_idx];
  if (slot.key == key) return Picoseconds{slot.ps};
  const double n = smooth_noise(bank, row);
  const double shaped = std::pow(n, cfg_.shape);
  const double span = static_cast<double>(cfg_.max_trcd.count - cfg_.min_trcd.count);
  const std::int64_t ps =
      cfg_.min_trcd.count + static_cast<std::int64_t>(shaped * span);
  slot.key = key;
  slot.ps = ps;
  return Picoseconds{ps};
}

Picoseconds VariationModel::line_min_trcd(std::uint32_t bank, std::uint32_t row,
                                          std::uint32_t col) const {
  EASYDRAM_EXPECTS(bank < geo_.banks_per_channel() && row < geo_.rows_per_bank &&
                   col < geo_.cols_per_row());
  const Picoseconds row_value = row_min_trcd(bank, row);
  // One deterministic "anchor" line per row carries the row's full value so
  // the row minimum is exactly the max over its lines.
  const std::uint32_t anchor =
      static_cast<std::uint32_t>(hash_mix(cfg_.seed ^ 0xA11C4, bank, row) %
                                 geo_.cols_per_row());
  if (col == anchor) return row_value;
  const double u = to_unit_double(hash_mix(cfg_.seed ^ 0x11E5, bank, row, col));
  return Picoseconds{row_value.count -
                     static_cast<std::int64_t>(u * static_cast<double>(cfg_.line_jitter.count))};
}

Picoseconds VariationModel::row_retention(std::uint32_t bank,
                                          std::uint32_t row) const {
  EASYDRAM_EXPECTS(bank < geo_.banks_per_channel() && row < geo_.rows_per_bank);
  const double cls = to_unit_double(hash_mix(cfg_.seed ^ 0x4E7E4710, bank, row));
  const double pos = to_unit_double(hash_mix(cfg_.seed ^ 0x4E7E4711, bank, row));
  const double base = static_cast<double>(cfg_.retention_base.count);
  // Class boundaries in multiples of the base window: weakest [1, 2),
  // weak [2, 4), strong [4, 16).
  double lo = 4.0, hi = 16.0;
  if (cls < cfg_.retention_p_weakest) {
    lo = 1.0;
    hi = 2.0;
  } else if (cls < cfg_.retention_p_weakest + cfg_.retention_p_weak) {
    lo = 2.0;
    hi = 4.0;
  }
  return Picoseconds{
      static_cast<std::int64_t>(base * (lo + pos * (hi - lo)))};
}

bool VariationModel::rowclone_pair_ok(std::uint32_t bank, std::uint32_t src_row,
                                      std::uint32_t dst_row) const {
  if (!geo_.same_subarray(src_row, dst_row)) return false;
  if (src_row == dst_row) return true;
  const double u =
      to_unit_double(hash_mix(cfg_.seed ^ 0xC10E, bank, src_row, dst_row));
  return u < cfg_.rowclone_pair_success;
}

}  // namespace easydram::dram
