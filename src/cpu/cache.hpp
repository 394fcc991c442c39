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
/// Recency-ordered sets: each set is one contiguous run of `ways` words,
/// most recently used first. A word packs the tag with a valid and a dirty
/// bit; an empty way holds the word 0, and empty words always sit at the
/// back of the set. A hit on the first word writes nothing but, for a
/// store, the dirty bit; a hit further back moves the words in front of it
/// down by one. A miss-fill evicts the last word, which is empty whenever
/// the set has room, and a flush closes the gap it leaves. The lookups are
/// inline because both simulators call them from other translation units
/// once or more per trace record.
class Cache {
 public:
  explicit Cache(const CacheConfig& cfg);

  const CacheConfig& config() const { return cfg_; }

  /// Hit check + LRU update. `line` must be line-aligned.
  bool access(std::uint64_t line) { return touch(line, 0); }

  /// access() for a store: a hit also marks the line dirty.
  bool access_store(std::uint64_t line) { return touch(line, kDirty); }

  /// Hit check without LRU side effects.
  bool probe(std::uint64_t line) const {
    return find(set_words(line), key_of(line)) != cfg_.ways;
  }

  /// Allocates `line` (dirty when `dirty`), evicting the set's LRU entry
  /// if the set is full. A line already present only becomes the most
  /// recent and, when `dirty`, is marked dirty.
  FillResult fill(std::uint64_t line, bool dirty = false) {
    std::uint64_t* set = set_words(line);
    const std::uint64_t key = key_of(line);
    const std::uint64_t dirty_bit = dirty ? kDirty : 0;
    const std::uint32_t pos = find(set, key);
    if (pos != cfg_.ways) {
      // Already present (e.g. racing fills); just refresh LRU.
      promote(set, pos, dirty_bit);
      return FillResult{};
    }
    const std::uint64_t victim = set[cfg_.ways - 1];
    FillResult result;
    if (victim != kEmpty) {
      result.evicted = true;
      result.evicted_dirty = (victim & kDirty) != 0;
      result.evicted_line = line_of(victim, line);
    }
    for (std::uint32_t i = cfg_.ways - 1; i > 0; --i) set[i] = set[i - 1];
    set[0] = key | dirty_bit;
    return result;
  }

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
  static constexpr std::uint64_t kEmpty = 0;
  static constexpr std::uint64_t kDirty = 1;
  static constexpr std::uint64_t kValid = 2;
  /// Low word bits taken by the flags; the tag sits above them.
  static constexpr std::uint32_t kFlagBits = 2;

  /// The first word of `line`'s set. `line` must be line-aligned.
  std::uint64_t* set_words(std::uint64_t line) {
    return words_.data() + set_of(line) * cfg_.ways;
  }
  const std::uint64_t* set_words(std::uint64_t line) const {
    return words_.data() + set_of(line) * cfg_.ways;
  }
  std::uint64_t set_of(std::uint64_t line) const {
    EASYDRAM_EXPECTS((line & (cfg_.line_bytes - 1)) == 0);
    return (line >> line_shift_) & set_mask_;
  }

  /// The clean word of `line`. Shifting the tag left by kFlagBits loses no
  /// bit (the constructor checks), and the valid bit keeps it from kEmpty.
  std::uint64_t key_of(std::uint64_t line) const {
    return ((line >> tag_shift_) << kFlagBits) | kValid;
  }
  /// The base address of the line a word of `any_line`'s set holds.
  std::uint64_t line_of(std::uint64_t word, std::uint64_t any_line) const {
    const std::uint64_t tag = word >> kFlagBits;
    return (tag << tag_shift_) | (any_line & (set_mask_ << line_shift_));
  }

  /// Position of `key` in the set (its dirty bit ignored) at or after
  /// `from`, or `ways`. Hits cluster at the front, so the scan stops at the
  /// first match.
  std::uint32_t find(const std::uint64_t* set, std::uint64_t key,
                     std::uint32_t from = 0) const {
    std::uint32_t pos = from;
    while (pos < cfg_.ways && (set[pos] & ~kDirty) != key) ++pos;
    return pos;
  }

  /// Moves the word at `pos` to the front, or-ing in `dirty_bit`.
  static void promote(std::uint64_t* set, std::uint32_t pos,
                      std::uint64_t dirty_bit) {
    const std::uint64_t word = set[pos] | dirty_bit;
    for (; pos > 0; --pos) set[pos] = set[pos - 1];
    set[0] = word;
  }

  bool touch(std::uint64_t line, std::uint64_t dirty_bit) {
    std::uint64_t* set = set_words(line);
    const std::uint64_t key = key_of(line);
    if ((set[0] & ~kDirty) == key) {
      set[0] |= dirty_bit;
      ++hits_;
      return true;
    }
    const std::uint32_t pos = find(set, key, 1);
    if (pos == cfg_.ways) {
      ++misses_;
      return false;
    }
    promote(set, pos, dirty_bit);
    ++hits_;
    return true;
  }

  CacheConfig cfg_;
  std::uint32_t line_shift_ = 0;  ///< log2(line_bytes).
  std::uint32_t tag_shift_ = 0;   ///< log2(line_bytes) + log2(sets).
  std::uint64_t set_mask_ = 0;    ///< sets - 1.
  /// Per way, indexed set * ways + position; position 0 is the most recent.
  std::vector<std::uint64_t> words_;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
};

}  // namespace easydram::cpu
