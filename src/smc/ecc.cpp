#include "smc/ecc.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/contracts.hpp"
#include "smc/easyapi.hpp"

namespace easydram::smc {

namespace {

// Hamming(72,64) layout: codeword positions 1..71, check bits at the
// power-of-two positions {1,2,4,8,16,32,64}, data bits at the remaining 64
// positions in ascending order. Check bit j covers every position with bit
// j set; the 8th stored bit is overall even parity over all 72 bits.

struct CodecTables {
  std::array<std::uint8_t, 64> data_pos{};   // data bit -> codeword position
  std::array<std::int8_t, 72> pos_to_data{}; // codeword position -> data bit
  std::array<std::uint64_t, 7> check_mask{}; // data-bit mask per check bit
};

constexpr CodecTables make_tables() {
  CodecTables t{};
  for (auto& p : t.pos_to_data) p = -1;
  int bit = 0;
  for (int pos = 1; pos < 72 && bit < 64; ++pos) {
    if ((pos & (pos - 1)) == 0) continue;  // power of two: check-bit seat
    t.data_pos[static_cast<std::size_t>(bit)] = static_cast<std::uint8_t>(pos);
    t.pos_to_data[static_cast<std::size_t>(pos)] = static_cast<std::int8_t>(bit);
    for (int j = 0; j < 7; ++j) {
      if ((pos >> j) & 1) t.check_mask[static_cast<std::size_t>(j)] |= 1ull << bit;
    }
    ++bit;
  }
  return t;
}

constexpr CodecTables kTables = make_tables();

/// Parity of every byte value (bit 0 only).
constexpr std::array<std::uint8_t, 256> make_parity_table() {
  std::array<std::uint8_t, 256> t{};
  for (int v = 0; v < 256; ++v) {
    t[static_cast<std::size_t>(v)] =
        static_cast<std::uint8_t>(std::popcount(static_cast<unsigned>(v)) & 1);
  }
  return t;
}

constexpr std::array<std::uint8_t, 256> kParity = make_parity_table();

/// Check-byte contribution of data byte `p` holding value `v`. SEC-DED is
/// GF(2)-linear, so a word's full check byte (7 Hamming bits + overall
/// parity) is the XOR of eight per-byte contributions. The tables keep
/// per-bit popcounts off the hot path entirely — `std::popcount` lowers to
/// a library call on baseline x86-64, and the 9 masked popcounts per word
/// dominated the ECC-on micro burst before this (the 2 KiB of tables stay
/// cache-resident instead).
constexpr std::array<std::array<std::uint8_t, 256>, 8> make_byte_checks() {
  std::array<std::array<std::uint8_t, 256>, 8> t{};
  constexpr CodecTables tables = make_tables();
  for (int p = 0; p < 8; ++p) {
    for (int v = 0; v < 256; ++v) {
      const std::uint64_t w = static_cast<std::uint64_t>(v) << (8 * p);
      std::uint8_t c = 0;
      for (int j = 0; j < 7; ++j) {
        if (std::popcount(w & tables.check_mask[static_cast<std::size_t>(j)]) &
            1) {
          c |= static_cast<std::uint8_t>(1u << j);
        }
      }
      // Overall-parity contribution: the word's own bits plus the parity
      // of this byte's 7-bit check contribution (parity is XOR-linear, so
      // contributions compose exactly like the check bits themselves).
      if ((std::popcount(w) + std::popcount(static_cast<unsigned>(c))) & 1) {
        c |= 0x80;
      }
      t[static_cast<std::size_t>(p)][static_cast<std::size_t>(v)] = c;
    }
  }
  return t;
}

constexpr std::array<std::array<std::uint8_t, 256>, 8> kByteChecks =
    make_byte_checks();

/// Full stored check byte of `word`: bits 0..6 Hamming, bit 7 overall
/// parity — one table load and XOR per data byte.
std::uint8_t full_checks(std::uint64_t word) {
  std::uint8_t c = 0;
  for (int p = 0; p < 8; ++p) {
    c ^= kByteChecks[static_cast<std::size_t>(p)]
                    [static_cast<std::uint8_t>(word >> (8 * p))];
  }
  return c;
}

std::uint64_t load_word(std::span<const std::uint8_t> data, std::uint32_t w) {
  std::uint64_t x = 0;
  std::memcpy(&x, data.data() + w * 8, 8);
  return x;
}

void store_word(std::span<std::uint8_t> data, std::uint32_t w, std::uint64_t x) {
  std::memcpy(data.data() + w * 8, &x, 8);
}

}  // namespace

std::uint8_t EccCodec::encode(std::uint64_t word) { return full_checks(word); }

EccCodec::Decode EccCodec::decode(std::uint64_t word, std::uint8_t check) {
  Decode d{EccStatus::kOk, word};
  const std::uint8_t enc = full_checks(word);
  const std::uint8_t syndrome = static_cast<std::uint8_t>((enc ^ check) & 0x7F);
  // parity(word) folds out of the encoded byte (bit 7 is parity(word) ^
  // parity(enc & 0x7F)); parity_odd is then parity(word) ^ parity(check).
  const std::uint8_t parity_word =
      static_cast<std::uint8_t>((enc >> 7) ^ kParity[enc & 0x7F]);
  const bool parity_odd = (parity_word ^ kParity[check]) != 0;
  if (syndrome == 0 && !parity_odd) return d;
  if (parity_odd) {
    // Odd number of flips — assume one (the SEC guarantee).
    if (syndrome == 0) {
      d.status = EccStatus::kCorrected;  // The parity bit itself flipped.
      return d;
    }
    if (syndrome < 72) {
      const std::int8_t bit = kTables.pos_to_data[syndrome];
      if (bit >= 0) d.data = word ^ (1ull << bit);
      d.status = EccStatus::kCorrected;  // Data or check-bit flip fixed.
      return d;
    }
    d.status = EccStatus::kUncorrectable;  // Syndrome outside the codeword.
    return d;
  }
  d.status = EccStatus::kUncorrectable;  // Even number of flips >= 2.
  return d;
}

RowRetirementMap::RowRetirementMap(const dram::Geometry& geo,
                                   std::uint32_t spare_rows_per_bank)
    : geo_(geo),
      spare_rows_per_bank_(spare_rows_per_bank),
      spares_used_(geo.banks_per_channel(), 0) {
  EASYDRAM_EXPECTS(spare_rows_per_bank < geo.rows_per_bank);
}

std::uint64_t RowRetirementMap::key(std::uint32_t fbank, std::uint32_t row) const {
  return static_cast<std::uint64_t>(fbank) * geo_.rows_per_bank + row;
}

std::uint32_t RowRetirementMap::remap(std::uint32_t fbank, std::uint32_t row) const {
  if (remap_.empty()) return row;
  std::uint32_t cur = row;
  // Chain depth is bounded by the spare budget (each hop consumed a spare).
  for (std::uint32_t hops = 0; hops <= spare_rows_per_bank_; ++hops) {
    const auto it = remap_.find(key(fbank, cur));
    if (it == remap_.end()) return cur;
    cur = it->second;
  }
  return cur;
}

bool RowRetirementMap::is_retired(std::uint32_t fbank, std::uint32_t row) const {
  return remap_.find(key(fbank, row)) != remap_.end();
}

bool RowRetirementMap::budget_exhausted(std::uint32_t fbank) const {
  return spares_used_[fbank] >= spare_rows_per_bank_;
}

std::optional<std::uint32_t> RowRetirementMap::retire(std::uint32_t fbank,
                                                      std::uint32_t row) {
  if (is_retired(fbank, row) || budget_exhausted(fbank)) return std::nullopt;
  const std::uint32_t spare =
      geo_.rows_per_bank - spare_rows_per_bank_ + spares_used_[fbank];
  ++spares_used_[fbank];
  remap_[key(fbank, row)] = spare;
  ++rows_retired_;
  return spare;
}

std::int64_t RowRetirementMap::note_ce(std::uint32_t fbank, std::uint32_t row) {
  return ++ce_counts_[key(fbank, row)];
}

ErrorPolicy::ErrorPolicy(const dram::Geometry& geo, const EccConfig& cfg)
    : geo_(geo),
      cfg_(cfg),
      retirement_(geo, cfg.spare_rows_per_bank),
      banks_(geo.banks_per_channel()),
      scrub_cursor_(static_cast<std::size_t>(geo.ranks_per_channel) *
                        geo.refresh_window_refs,
                    0) {}

std::uint64_t ErrorPolicy::line_key(std::uint32_t fbank, std::uint32_t row,
                                    std::uint32_t col) const {
  return (static_cast<std::uint64_t>(fbank) * geo_.rows_per_bank + row) *
             geo_.cols_per_row() +
         col;
}

const ErrorPolicy::RowChecks* ErrorPolicy::row_checks(std::uint32_t fbank,
                                                      std::uint32_t row) const {
  const auto& bank = banks_[fbank];
  return bank.empty() ? nullptr : bank[row].get();
}

ErrorPolicy::RowChecks& ErrorPolicy::ensure_row(std::uint32_t fbank,
                                                std::uint32_t row) {
  auto& bank = banks_[fbank];
  if (bank.empty()) bank.resize(geo_.rows_per_bank);
  auto& slot = bank[row];
  if (slot == nullptr) {
    slot = std::make_unique<RowChecks>();
    slot->present.resize((geo_.cols_per_row() + 63) / 64, 0);
    slot->ck.resize(geo_.cols_per_row());
  }
  return *slot;
}

bool ErrorPolicy::col_present(const RowChecks& rc, std::uint32_t col) const {
  return (rc.present[col / 64] >> (col % 64)) & 1u;
}

void ErrorPolicy::note_write(std::uint32_t fbank, std::uint32_t row,
                             std::uint32_t col,
                             std::span<const std::uint8_t> data) {
  EASYDRAM_EXPECTS(data.size() == 64);
  RowChecks& rc = ensure_row(fbank, row);
  if (!col_present(rc, col)) {
    rc.present[col / 64] |= 1ull << (col % 64);
    ++protected_lines_;
  }
  for (std::uint32_t w = 0; w < 8; ++w) {
    rc.ck[col][w] = EccCodec::encode(load_word(data, w));
  }
}

bool ErrorPolicy::line_protected(std::uint32_t fbank, std::uint32_t row,
                                 std::uint32_t col) const {
  const RowChecks* rc = row_checks(fbank, row);
  return rc != nullptr && col_present(*rc, col);
}

EccStatus ErrorPolicy::decode_line(std::uint32_t fbank, std::uint32_t row,
                                   std::uint32_t col,
                                   std::span<std::uint8_t> data) const {
  EASYDRAM_EXPECTS(data.size() == 64);
  const RowChecks* rc = row_checks(fbank, row);
  if (rc == nullptr || !col_present(*rc, col)) return EccStatus::kOk;
  return decode_words(rc->ck[col], data);
}

ErrorPolicy::LineChecks ErrorPolicy::line_checks(std::uint32_t fbank,
                                                 std::uint32_t row,
                                                 std::uint32_t col) const {
  LineChecks snap;
  const RowChecks* rc = row_checks(fbank, row);
  if (rc != nullptr && col_present(*rc, col)) {
    snap.present = true;
    snap.ck = rc->ck[col];
  }
  return snap;
}

EccStatus ErrorPolicy::decode_line(const LineChecks& checks,
                                   std::span<std::uint8_t> data) {
  EASYDRAM_EXPECTS(data.size() == 64);
  if (!checks.present) return EccStatus::kOk;
  return decode_words(checks.ck, data);
}

EccStatus ErrorPolicy::decode_words(const std::array<std::uint8_t, 8>& ck,
                                    std::span<std::uint8_t> data) {
  EccStatus worst = EccStatus::kOk;
  for (std::uint32_t w = 0; w < 8; ++w) {
    const EccCodec::Decode d = EccCodec::decode(load_word(data, w), ck[w]);
    if (d.status == EccStatus::kCorrected) store_word(data, w, d.data);
    if (d.status > worst) worst = d.status;
  }
  return worst;
}

bool ErrorPolicy::note_ce(std::uint32_t fbank, std::uint32_t row) {
  const std::int64_t count = retirement_.note_ce(fbank, row);
  return count == static_cast<std::int64_t>(cfg_.ce_retire_threshold) &&
         !retirement_.is_retired(fbank, row) &&
         !retirement_.budget_exhausted(fbank);
}

std::optional<std::uint32_t> ErrorPolicy::retire_row(std::uint32_t rank,
                                                     std::uint32_t bank,
                                                     std::uint32_t row,
                                                     dram::DramDevice& dev) {
  const std::uint32_t fbank = geo_.flat_bank(rank, bank);
  const auto spare = retirement_.retire(fbank, row);
  if (!spare) return std::nullopt;
  // Migrate every protected column through the correction path. The check
  // bits move verbatim: a word that decodes UE is copied as-is and stays
  // detectable at the spare location (real PPR cannot resurrect lost data
  // either — it surfaces as a typed error until the line is rewritten).
  std::array<std::uint8_t, 64> buf;
  RowChecks* const old_rc = banks_[fbank].empty()
                                ? nullptr
                                : banks_[fbank][row].get();
  if (old_rc == nullptr) return spare;
  for (std::uint32_t col = 0; col < geo_.cols_per_row(); ++col) {
    if (!col_present(*old_rc, col)) continue;
    const dram::DramAddress src{bank, row, col, 0, rank};
    const dram::DramAddress dst{bank, *spare, col, 0, rank};
    dev.backdoor_read(src, buf);
    for (std::uint32_t w = 0; w < 8; ++w) {
      const EccCodec::Decode d =
          EccCodec::decode(load_word(buf, w), old_rc->ck[col][w]);
      if (d.status == EccStatus::kCorrected) store_word(buf, w, d.data);
    }
    dev.backdoor_write(dst, buf);
    RowChecks& new_rc = ensure_row(fbank, *spare);
    if (!col_present(new_rc, col)) {
      new_rc.present[col / 64] |= 1ull << (col % 64);
      ++protected_lines_;
    }
    new_rc.ck[col] = old_rc->ck[col];
    old_rc->present[col / 64] &= ~(1ull << (col % 64));
    --protected_lines_;
  }
  return spare;
}

void ErrorPolicy::scrub_on_slot(std::uint32_t rank, std::int64_t slot,
                                Picoseconds now, dram::DramDevice& dev,
                                ApiStats& stats) {
  if (!cfg_.scrub || protected_lines_ == 0) return;
  const std::uint32_t stripe = geo_.refresh_stripe_of_slot(slot);
  const std::uint32_t stripe_rows = geo_.refresh_stripe_rows();
  const std::uint32_t first_row = stripe * stripe_rows;
  if (first_row >= geo_.rows_per_bank) return;
  const std::uint32_t last_row =
      std::min(first_row + stripe_rows, geo_.rows_per_bank);
  const std::size_t cursor_idx =
      static_cast<std::size_t>(rank) * geo_.refresh_window_refs + stripe;
  std::uint64_t cursor = scrub_cursor_[cursor_idx];

  // Collect up to the budget of protected lines in this slot's stripe,
  // resuming at the cursor and wrapping once — collected first because
  // processing (retirement migration) mutates the check-bit map.
  std::array<std::uint64_t, 64> targets;
  std::uint32_t taken = 0;
  const std::uint32_t budget = std::min(
      cfg_.scrub_lines_per_slot, static_cast<std::uint32_t>(targets.size()));
  for (int pass = 0; pass < 2 && taken < budget; ++pass) {
    for (std::uint32_t bank = 0; bank < geo_.num_banks() && taken < budget;
         ++bank) {
      const std::uint32_t fbank = geo_.flat_bank(rank, bank);
      const std::uint64_t lo = line_key(fbank, first_row, 0);
      const std::uint64_t hi = line_key(fbank, last_row, 0);
      const std::uint64_t start = pass == 0 ? std::max(lo, cursor) : lo;
      const std::uint64_t end = pass == 0 ? hi : std::min(hi, cursor);
      // Walk rows then column bits in ascending order — the same
      // (fbank, row, col) line-key order the ordered-map store used to
      // give the cursor.
      for (std::uint32_t row = first_row; row < last_row && taken < budget;
           ++row) {
        const RowChecks* rc = row_checks(fbank, row);
        if (rc == nullptr) continue;
        const std::uint64_t row_base = line_key(fbank, row, 0);
        for (std::size_t w = 0; w < rc->present.size() && taken < budget;
             ++w) {
          std::uint64_t bits = rc->present[w];
          while (bits != 0 && taken < budget) {
            const int b = std::countr_zero(bits);
            bits &= bits - 1;
            const std::uint64_t k = row_base + w * 64 +
                                    static_cast<std::uint64_t>(b);
            if (k >= start && k < end) targets[taken++] = k;
          }
        }
      }
    }
  }
  if (taken > 0) scrub_cursor_[cursor_idx] = targets[taken - 1] + 1;

  std::array<std::uint8_t, 64> buf;
  for (std::uint32_t i = 0; i < taken; ++i) {
    const std::uint64_t k = targets[i];
    const std::uint32_t col = static_cast<std::uint32_t>(k % geo_.cols_per_row());
    const std::uint64_t rk = k / geo_.cols_per_row();
    const std::uint32_t row = static_cast<std::uint32_t>(rk % geo_.rows_per_bank);
    const std::uint32_t fbank = static_cast<std::uint32_t>(rk / geo_.rows_per_bank);
    const std::uint32_t bank = fbank % geo_.num_banks();
    const dram::DramAddress a{bank, row, col, 0, rank};
    dev.scrub_read(a, now, buf);
    ++stats.scrub_reads;
    const EccStatus st = decode_line(fbank, row, col, buf);
    if (st == EccStatus::kOk) continue;
    if (st == EccStatus::kCorrected) {
      ++stats.ecc_corrected;
      dev.scrub_writeback(a, buf);  // Restore full charge on the fixed line.
      if (note_ce(fbank, row)) {
        if (retire_row(rank, bank, row, dev)) ++stats.rows_retired;
      }
      continue;
    }
    // Detected-uncorrectable under scrub: retire the row so future writes
    // land on a healthy spare; the lost data stays typed-detectable.
    ++stats.ecc_uncorrectable;
    if (!retirement_.is_retired(fbank, row)) {
      if (retire_row(rank, bank, row, dev)) ++stats.rows_retired;
    }
  }
}

}  // namespace easydram::smc
