#pragma once

#include <cstdint>
#include <vector>

#include "common/contracts.hpp"

namespace easydram::cpu {

/// Geometry of one cache level.
struct CacheConfig {
  std::uint64_t size_bytes = 32 * 1024;
  std::uint32_t ways = 4;
  std::uint32_t line_bytes = 64;
};

/// Outcome of allocating a line.
struct FillResult {
  bool evicted = false;
  bool evicted_dirty = false;
  std::uint64_t evicted_line = 0;  ///< Line base address.
};

/// A set-associative, write-back, write-allocate cache with LRU
/// replacement. Tracks tags and dirty bits only — the timing models in
/// this repository never need cached data contents.
///
/// Structure-of-arrays layout: each set's tags are one contiguous run of
/// `ways` words, with the invalid sentinel kInvalid in empty ways, and the
/// LRU stamps and dirty bytes live in parallel arrays. Every operation
/// scans its set exactly once. The lookups are inline because both
/// simulators call them from other translation units once or more per
/// trace record.
class Cache {
 public:
  explicit Cache(const CacheConfig& cfg);

  const CacheConfig& config() const { return cfg_; }

  /// Hit check + LRU update. `line` must be line-aligned.
  bool access(std::uint64_t line) { return touch(line, false); }

  /// access() for a store: a hit also marks the line dirty.
  bool access_store(std::uint64_t line) { return touch(line, true); }

  /// Hit check without LRU side effects.
  bool probe(std::uint64_t line) const {
    return find(line) != kNoWay;
  }

  /// Allocates `line` (dirty when `dirty`), evicting the set's LRU entry
  /// if the set is full. A line already present only has its LRU stamp
  /// refreshed and, when `dirty`, is marked dirty.
  FillResult fill(std::uint64_t line, bool dirty = false);

  /// Marks a present line dirty; precondition: the line is present.
  void mark_dirty(std::uint64_t line);

  /// Invalidates `line` if present; reports whether it was present/dirty.
  struct FlushResult {
    bool was_present = false;
    bool was_dirty = false;
  };
  FlushResult flush(std::uint64_t line);

  std::int64_t hits() const { return hits_; }
  std::int64_t misses() const { return misses_; }
  void reset_stats() { hits_ = misses_ = 0; }

 private:
  /// Tag of an empty way. A real tag is the line address shifted right by
  /// at least one bit (the constructor checks), so none can equal it.
  static constexpr std::uint64_t kInvalid = ~std::uint64_t{0};
  static constexpr std::size_t kNoWay = ~std::size_t{0};

  /// Set index of `line`, which must be line-aligned.
  std::uint64_t set_of(std::uint64_t line) const {
    EASYDRAM_EXPECTS((line & (cfg_.line_bytes - 1)) == 0);
    return (line >> line_shift_) & set_mask_;
  }
  std::uint64_t tag_of(std::uint64_t line) const { return line >> tag_shift_; }

  /// Way index (set * ways + way) holding `line`, or kNoWay. At most one
  /// way can match, so the scan visits every way and selects without
  /// branching: a data-dependent early exit mispredicts whenever the hit
  /// moves to another way.
  std::size_t find(std::uint64_t line) const {
    const std::size_t base = static_cast<std::size_t>(set_of(line)) * cfg_.ways;
    const std::uint64_t tag = tag_of(line);
    std::size_t hit = kNoWay;
    for (std::size_t way = base; way < base + cfg_.ways; ++way) {
      hit = tags_[way] == tag ? way : hit;
    }
    return hit;
  }

  bool touch(std::uint64_t line, bool dirty) {
    const std::size_t way = find(line);
    if (way == kNoWay) {
      ++misses_;
      return false;
    }
    stamps_[way] = ++lru_clock_;
    if (dirty) dirty_[way] = 1;
    ++hits_;
    return true;
  }

  CacheConfig cfg_;
  std::uint32_t line_shift_ = 0;  ///< log2(line_bytes).
  std::uint32_t tag_shift_ = 0;   ///< log2(line_bytes) + log2(sets).
  std::uint64_t set_mask_ = 0;    ///< sets - 1.
  // Per way, indexed set * ways + way.
  std::vector<std::uint64_t> tags_;    ///< kInvalid when the way is empty.
  std::vector<std::uint64_t> stamps_;  ///< LRU clock at the last touch; 0 when empty.
  std::vector<std::uint8_t> dirty_;
  std::uint64_t lru_clock_ = 0;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
};

}  // namespace easydram::cpu
