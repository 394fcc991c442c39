#include "cpu/cache.hpp"

#include <bit>

namespace easydram::cpu {

namespace {

bool is_pow2(std::uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }

}  // namespace

Cache::Cache(const CacheConfig& cfg) : cfg_(cfg) {
  EASYDRAM_EXPECTS(cfg.line_bytes > 0 && is_pow2(cfg.line_bytes));
  EASYDRAM_EXPECTS(cfg.ways > 0);
  EASYDRAM_EXPECTS(cfg.size_bytes % (static_cast<std::uint64_t>(cfg.ways) * cfg.line_bytes) == 0);
  const std::uint64_t sets =
      cfg.size_bytes / (static_cast<std::uint64_t>(cfg.ways) * cfg.line_bytes);
  EASYDRAM_EXPECTS(sets > 0 && is_pow2(sets));
  // Both divisors are powers of two, so a lookup splits the line address
  // with a shift and a mask.
  line_shift_ = static_cast<std::uint32_t>(std::countr_zero(cfg.line_bytes));
  tag_shift_ = line_shift_ + static_cast<std::uint32_t>(std::countr_zero(sets));
  set_mask_ = sets - 1;
  // A tag has 64 - tag_shift_ bits, so with this shift it packs above the
  // flag bits losslessly; the valid bit keeps every packed word off kEmpty.
  EASYDRAM_EXPECTS(tag_shift_ >= kFlagBits);
  words_.assign(sets * cfg.ways, kEmpty);
}

void Cache::mark_dirty(std::uint64_t line) {
  std::uint64_t* set = set_words(line);
  const std::uint32_t pos = find(set, key_of(line));
  EASYDRAM_EXPECTS(pos != cfg_.ways && "mark_dirty on a line that is not present");
  set[pos] |= kDirty;
}

Cache::FlushResult Cache::flush(std::uint64_t line) {
  std::uint64_t* set = set_words(line);
  std::uint32_t pos = find(set, key_of(line));
  if (pos == cfg_.ways) return FlushResult{};
  const FlushResult r{true, (set[pos] & kDirty) != 0};
  // Close the gap so the empty word joins the others at the back.
  for (; pos + 1 < cfg_.ways; ++pos) set[pos] = set[pos + 1];
  set[cfg_.ways - 1] = kEmpty;
  return r;
}

}  // namespace easydram::cpu
