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
  // A zero shift would let a tag equal the kInvalid sentinel.
  EASYDRAM_EXPECTS(tag_shift_ > 0);
  tags_.assign(sets * cfg.ways, kInvalid);
  stamps_.assign(sets * cfg.ways, 0);
  dirty_.assign(sets * cfg.ways, 0);
}

FillResult Cache::fill(std::uint64_t line, bool dirty) {
  const std::uint64_t set = set_of(line);
  const std::size_t base = static_cast<std::size_t>(set) * cfg_.ways;
  const std::uint64_t tag = tag_of(line);

  // One pass finds the line or the victim. Empty ways hold stamp 0 and
  // valid ways hold distinct stamps >= 1, so the last way with the
  // smallest stamp is the last empty way if there is one, else the LRU way.
  std::size_t victim = base;
  std::uint64_t oldest = stamps_[base];
  for (std::size_t way = base; way < base + cfg_.ways; ++way) {
    if (tags_[way] == tag) {
      // Already present (e.g. racing fills); just refresh LRU.
      stamps_[way] = ++lru_clock_;
      if (dirty) dirty_[way] = 1;
      return FillResult{};
    }
    const bool older = stamps_[way] <= oldest;
    victim = older ? way : victim;
    oldest = older ? stamps_[way] : oldest;
  }
  FillResult result;
  if (tags_[victim] != kInvalid) {
    result.evicted = true;
    result.evicted_dirty = dirty_[victim] != 0;
    result.evicted_line =
        ((tags_[victim] << (tag_shift_ - line_shift_)) | set) << line_shift_;
  }
  tags_[victim] = tag;
  stamps_[victim] = ++lru_clock_;
  dirty_[victim] = dirty ? 1 : 0;
  return result;
}

void Cache::mark_dirty(std::uint64_t line) {
  const std::size_t way = find(line);
  EASYDRAM_EXPECTS(way != kNoWay && "mark_dirty on a line that is not present");
  dirty_[way] = 1;
}

Cache::FlushResult Cache::flush(std::uint64_t line) {
  const std::size_t way = find(line);
  if (way == kNoWay) return FlushResult{};
  const FlushResult r{true, dirty_[way] != 0};
  tags_[way] = kInvalid;
  stamps_[way] = 0;
  dirty_[way] = 0;
  return r;
}

}  // namespace easydram::cpu
