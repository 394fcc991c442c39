// Property tests for the host-performance hot-path structures: the
// arrival-ordered RequestTable, with every scheduling policy and the
// same-row drain walking it through a BankStateView value, must make the
// same decisions as the linked-list table and virtual bank-state walks it
// replaced; the ring-buffer BoundedFifo must match std::deque semantics
// under randomized push/pop sequences; the CompletionRing must behave like
// a map from dense ids to completions; and the recency-ordered
// cpu::Cache must match an array-of-structs cache with LRU stamps,
// operation by operation.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <deque>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "cpu/cache.hpp"
#include "smc/request_table.hpp"
#include "smc/scheduler.hpp"
#include "sys/completion.hpp"
#include "tile/fifo.hpp"

namespace easydram {
namespace {

// --------------------------------------------------------------------------
// Request table and scheduler walks vs the linked-list reference
// --------------------------------------------------------------------------

/// The request table the arrival-ordered records replaced: full entries in
/// fixed slots, threaded oldest-first by an intrusive doubly-linked list.
class RefTable {
 public:
  static constexpr std::size_t kNull = static_cast<std::size_t>(-1);

  explicit RefTable(std::size_t capacity)
      : capacity_(capacity), slots_(capacity) {
    for (std::size_t i = capacity; i-- > 0;) free_.push_back(i);
  }

  bool empty() const { return size_ == 0; }
  bool full() const { return size_ >= capacity_; }
  std::size_t size() const { return size_; }

  std::size_t insert(smc::TableEntry entry) {
    const std::size_t slot = free_.back();
    free_.pop_back();
    Slot& s = slots_[slot];
    s.entry = std::move(entry);
    s.entry.arrival_seq = next_seq_++;
    s.prev = tail_;
    s.next = kNull;
    if (tail_ != kNull) {
      slots_[tail_].next = slot;
    } else {
      head_ = slot;
    }
    tail_ = slot;
    ++size_;
    return slot;
  }

  const smc::TableEntry& at(std::size_t slot) const {
    return slots_[slot].entry;
  }

  smc::TableEntry remove(std::size_t slot) {
    Slot& s = slots_[slot];
    if (s.prev != kNull) slots_[s.prev].next = s.next; else head_ = s.next;
    if (s.next != kNull) slots_[s.next].prev = s.prev; else tail_ = s.prev;
    free_.push_back(slot);
    --size_;
    return std::move(s.entry);
  }

  std::size_t first() const { return head_; }
  std::size_t next(std::size_t slot) const { return slots_[slot].next; }

 private:
  struct Slot {
    smc::TableEntry entry;
    std::size_t prev = kNull;
    std::size_t next = kNull;
  };

  std::size_t capacity_;
  std::uint64_t next_seq_ = 0;
  std::size_t size_ = 0;
  std::size_t head_ = kNull;
  std::size_t tail_ = kNull;
  std::vector<Slot> slots_;
  std::vector<std::size_t> free_;
};

/// The virtual bank-state interface the value view replaced.
class RefBankStateView {
 public:
  virtual std::optional<std::uint32_t> open_row(
      const dram::DramAddress& a) const = 0;

 protected:
  ~RefBankStateView() = default;
};

struct RefBanks final : RefBankStateView {
  std::optional<std::uint32_t> open_row(
      const dram::DramAddress& a) const override {
    return rows[a.rank * banks_per_rank + a.bank];
  }
  std::vector<std::optional<std::uint32_t>> rows;
  std::uint32_t banks_per_rank = 0;
};

struct RefPickContext {
  const RefTable& table;
  const RefBankStateView& banks;
  const smc::StreamTable* streams = nullptr;
};

/// The reference walks, as the schedulers ran them over the linked list.
constexpr std::uint64_t kNoLimit = ~0ull;

bool ref_row_hit(const RefBankStateView& banks, const dram::DramAddress& a) {
  const auto open = banks.open_row(a);
  return open.has_value() && *open == a.row;
}

std::optional<std::size_t> ref_frfcfs_below(const RefTable& table,
                                             const RefBankStateView& banks,
                                             std::uint64_t seq_limit) {
  std::optional<std::size_t> oldest;
  for (std::size_t s = table.first(); s != RefTable::kNull;
       s = table.next(s)) {
    const smc::TableEntry& e = table.at(s);
    if (e.arrival_seq >= seq_limit) break;
    if (!oldest) oldest = s;
    if (ref_row_hit(banks, e.dram_addr)) return s;
  }
  return oldest;
}

template <typename StreamPredicate>
std::optional<std::size_t> ref_frfcfs_if(const RefTable& table,
                                         const RefBankStateView& banks,
                                         StreamPredicate pred) {
  std::optional<std::size_t> oldest;
  for (std::size_t s = table.first(); s != RefTable::kNull;
       s = table.next(s)) {
    const smc::TableEntry& e = table.at(s);
    if (!pred(e.request.stream_id)) continue;
    if (!oldest) oldest = s;
    if (ref_row_hit(banks, e.dram_addr)) return s;
  }
  return oldest;
}

std::vector<std::uint32_t> ref_distinct_streams(const RefTable& table) {
  std::vector<std::uint32_t> streams;
  for (std::size_t s = table.first(); s != RefTable::kNull;
       s = table.next(s)) {
    streams.push_back(table.at(s).request.stream_id);
  }
  std::sort(streams.begin(), streams.end());
  streams.erase(std::unique(streams.begin(), streams.end()), streams.end());
  return streams;
}

/// One reference policy per smc::SchedulerKind, with the pick logic and
/// state each policy had over the linked list.
class RefScheduler {
 public:
  explicit RefScheduler(smc::SchedulerKind kind) : kind_(kind) {}

  std::optional<std::size_t> pick(const RefPickContext& ctx,
                                  std::size_t& scanned) {
    scanned = ctx.table.size();
    if (ctx.table.empty()) return std::nullopt;
    switch (kind_) {
      case smc::SchedulerKind::kFcfs:
        return ctx.table.first();
      case smc::SchedulerKind::kParbs:
        return pick_parbs(ctx);
      case smc::SchedulerKind::kBliss:
        return ref_distinct_streams(ctx.table).size() >= 2
                   ? pick_bliss_multi(ctx)
                   : pick_bliss_single(ctx);
      case smc::SchedulerKind::kAtlas:
        return pick_atlas(ctx);
      case smc::SchedulerKind::kTcm:
        return pick_tcm(ctx);
      default:
        return ref_frfcfs_below(ctx.table, ctx.banks, kNoLimit);
    }
  }

 private:
  std::optional<std::size_t> pick_parbs(const RefPickContext& ctx) {
    auto in_batch = ref_frfcfs_below(ctx.table, ctx.banks, batch_boundary_);
    if (!in_batch) {
      batch_boundary_ = ctx.table.at(ctx.table.first()).arrival_seq + 8;
      in_batch = ref_frfcfs_below(ctx.table, ctx.banks, batch_boundary_);
    }
    return in_batch;
  }

  std::optional<std::size_t> pick_bliss_single(const RefPickContext& ctx) {
    const std::optional<std::size_t> choice =
        row_streak_ < 4 ? ref_frfcfs_below(ctx.table, ctx.banks, kNoLimit)
                        : ctx.table.first();
    const std::uint64_t key = dram::row_key(ctx.table.at(*choice).dram_addr);
    row_streak_ = has_last_row_ && key == last_row_key_ ? row_streak_ + 1 : 1;
    has_last_row_ = true;
    last_row_key_ = key;
    return choice;
  }

  std::optional<std::size_t> pick_bliss_multi(const RefPickContext& ctx) {
    if (picks_since_clear_ >= 128) {
      std::fill(blacklist_.begin(), blacklist_.end(), false);
      picks_since_clear_ = 0;
      stream_streak_ = 0;
      has_last_stream_ = false;
    }
    auto choice = ref_frfcfs_if(ctx.table, ctx.banks, [this](std::uint32_t s) {
      return s >= blacklist_.size() || !blacklist_[s];
    });
    if (!choice) choice = ref_frfcfs_below(ctx.table, ctx.banks, kNoLimit);
    const std::uint32_t stream = ctx.table.at(*choice).request.stream_id;
    stream_streak_ =
        has_last_stream_ && stream == last_stream_ ? stream_streak_ + 1 : 1;
    has_last_stream_ = true;
    last_stream_ = stream;
    if (stream_streak_ >= 4) {
      if (stream >= blacklist_.size()) blacklist_.resize(stream + 1, false);
      blacklist_[stream] = true;
      stream_streak_ = 0;
      has_last_stream_ = false;
    }
    ++picks_since_clear_;
    return choice;
  }

  std::optional<std::size_t> pick_atlas(const RefPickContext& ctx) {
    if (ctx.streams == nullptr) {
      return ref_frfcfs_below(ctx.table, ctx.banks, kNoLimit);
    }
    const std::vector<std::uint32_t> present = ref_distinct_streams(ctx.table);
    std::uint32_t best = present.front();
    std::uint64_t best_service = ctx.streams->attained_service(best);
    for (const std::uint32_t s : present) {
      const std::uint64_t service = ctx.streams->attained_service(s);
      if (service < best_service) {
        best = s;
        best_service = service;
      }
    }
    return ref_frfcfs_if(ctx.table, ctx.banks,
                         [best](std::uint32_t s) { return s == best; });
  }

  std::optional<std::size_t> pick_tcm(const RefPickContext& ctx) {
    if (picks_in_window_ >= 64) {
      std::uint64_t active = 0;
      for (const std::uint64_t served : served_in_window_) {
        if (served > 0) ++active;
      }
      bandwidth_.assign(served_in_window_.size(), false);
      if (active > 0) {
        const std::uint64_t fair_share = picks_in_window_ / active;
        for (std::size_t s = 0; s < served_in_window_.size(); ++s) {
          bandwidth_[s] = served_in_window_[s] > fair_share;
        }
      }
      std::fill(served_in_window_.begin(), served_in_window_.end(), 0);
      picks_in_window_ = 0;
      ++shuffle_offset_;
    }
    const auto in_bandwidth = [this](std::uint32_t s) {
      return s < bandwidth_.size() && bandwidth_[s];
    };
    auto choice = ref_frfcfs_if(ctx.table, ctx.banks, [&](std::uint32_t s) {
      return !in_bandwidth(s);
    });
    if (!choice) {
      const std::vector<std::uint32_t> present =
          ref_distinct_streams(ctx.table);
      const std::uint32_t first =
          present[static_cast<std::size_t>(shuffle_offset_ % present.size())];
      choice = ref_frfcfs_if(ctx.table, ctx.banks,
                             [first](std::uint32_t s) { return s == first; });
      if (!choice) choice = ref_frfcfs_below(ctx.table, ctx.banks, kNoLimit);
    }
    const std::uint32_t stream = ctx.table.at(*choice).request.stream_id;
    if (stream >= served_in_window_.size()) {
      served_in_window_.resize(stream + 1, 0);
    }
    ++served_in_window_[stream];
    ++picks_in_window_;
    return choice;
  }

  smc::SchedulerKind kind_;
  std::uint64_t batch_boundary_ = 0;
  int row_streak_ = 0;
  bool has_last_row_ = false;
  std::uint64_t last_row_key_ = 0;
  int stream_streak_ = 0;
  bool has_last_stream_ = false;
  std::uint32_t last_stream_ = 0;
  std::uint64_t picks_since_clear_ = 0;
  std::vector<bool> blacklist_;
  std::uint64_t picks_in_window_ = 0;
  std::uint64_t shuffle_offset_ = 0;
  std::vector<std::uint64_t> served_in_window_;
  std::vector<bool> bandwidth_;
};

bool is_column_op(const smc::TableEntry& e) {
  return e.request.kind == tile::RequestKind::kRead ||
         e.request.kind == tile::RequestKind::kWrite;
}

/// A drained request: its arrival_seq and stream.
using Drained = std::vector<std::pair<std::uint64_t, std::uint32_t>>;

/// The reference same-row drain: the controller's walk over the linked
/// list, unlinking column requests to `target`'s row until the batch holds
/// `limit` requests (the picked one included).
Drained ref_drain(RefTable& table, const dram::DramAddress& target,
                  std::size_t limit) {
  Drained out;
  std::size_t batch = 1;
  for (std::size_t slot = table.first();
       slot != RefTable::kNull && batch < limit;) {
    const smc::TableEntry& e = table.at(slot);
    const std::size_t next = table.next(slot);
    if (is_column_op(e) &&
        dram::row_key(e.dram_addr) == dram::row_key(target)) {
      const smc::TableEntry removed = table.remove(slot);
      out.emplace_back(removed.arrival_seq, removed.request.stream_id);
      ++batch;
    }
    slot = next;
  }
  return out;
}

/// The same drain as MemoryController::serve_column_batch runs it.
Drained drain(smc::RequestTable& table, const dram::DramAddress& target,
              std::size_t limit) {
  Drained out;
  const std::uint64_t key = dram::row_key(target);
  table.remove_if(
      [key](const smc::TableRecord& r) {
        return r.column_op && r.row_key == key;
      },
      std::max<std::size_t>(limit, 1) - 1,
      [&out](smc::TableEntry&& e) {
        out.emplace_back(e.arrival_seq, e.request.stream_id);
      });
  return out;
}

/// One randomized scenario of the equivalence property.
struct WalkCase {
  smc::SchedulerKind kind;
  bool multi_stream;  ///< Streams 0..3; otherwise every request is stream 0.
  bool stream_table;  ///< Pass per-stream bookkeeping in the context.
};

constexpr std::uint32_t kRanks = 2;
constexpr std::uint32_t kBanksPerRank = 4;
/// Rows the random requests and open rows draw from: a few small rows plus
/// the all-ones row, which a closed-bank marker must never alias.
constexpr std::uint32_t kRows[] = {0, 1, 2, 3, 0xFFFFFFFFu};

std::uint32_t random_row(SplitMix64& rng) {
  return kRows[rng.next() % std::size(kRows)];
}

smc::TableEntry random_entry(SplitMix64& rng, bool multi_stream) {
  smc::TableEntry e;
  e.dram_addr.rank = static_cast<std::uint32_t>(rng.next() % kRanks);
  e.dram_addr.bank = static_cast<std::uint32_t>(rng.next() % kBanksPerRank);
  e.dram_addr.row = random_row(rng);
  e.dram_addr.col = static_cast<std::uint32_t>(rng.next() % 4);
  e.request.id = rng.next();
  e.request.stream_id =
      multi_stream ? static_cast<std::uint32_t>(rng.next() % 4) : 0;
  switch (rng.next() % 8) {
    case 0: e.request.kind = tile::RequestKind::kRowClone; break;
    case 1:
    case 2: e.request.kind = tile::RequestKind::kWrite; break;
    default: e.request.kind = tile::RequestKind::kRead; break;
  }
  return e;
}

/// Drives the arrival-ordered table with the policy under test and the
/// linked-list reference through one seeded sequence of inserts, picks,
/// same-row drains and open-row changes. Every pick must name the same
/// request with the same scanned count, every drain must remove the same
/// requests in the same order, and the records must stay arrival-ordered.
void check_walks(const WalkCase& c, std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message()
               << smc::to_string(c.kind) << " multi_stream=" << c.multi_stream
               << " stream_table=" << c.stream_table << " seed=" << seed);
  SplitMix64 rng(seed);
  smc::RequestTable table(32);
  RefTable ref(32);
  std::vector<std::uint64_t> rows(kRanks * kBanksPerRank,
                                  smc::BankStateView::kClosed);
  const smc::BankStateView banks(rows, kBanksPerRank);
  RefBanks ref_banks;
  ref_banks.rows.assign(rows.size(), std::nullopt);
  ref_banks.banks_per_rank = kBanksPerRank;
  smc::StreamTable streams;
  const smc::StreamTable* st = c.stream_table ? &streams : nullptr;
  const std::unique_ptr<smc::Scheduler> sched = smc::make_scheduler(c.kind);
  RefScheduler ref_sched(c.kind);
  const std::size_t batch_limit = 1 + rng.next() % 16;

  for (int step = 0; step < 600; ++step) {
    if (rng.next() % 6 == 0) {
      for (std::size_t b = 0; b < rows.size(); ++b) {
        const bool open = rng.next() % 3 != 0;
        const std::uint32_t row = random_row(rng);
        rows[b] = open ? row : smc::BankStateView::kClosed;
        ref_banks.rows[b] =
            open ? std::optional<std::uint32_t>(row) : std::nullopt;
      }
    }

    if (!table.full() && (table.empty() || rng.next() % 2 == 0)) {
      smc::TableEntry e = random_entry(rng, c.multi_stream);
      streams.note_arrival(e.request.stream_id);
      ref.insert(e);
      table.insert(std::move(e));
    } else {
      std::size_t scanned = 0;
      std::size_t ref_scanned = 0;
      const auto pick = sched->pick({table, banks, st}, scanned);
      const auto ref_pick =
          ref_sched.pick({ref, ref_banks, st}, ref_scanned);
      ASSERT_EQ(pick.has_value(), ref_pick.has_value()) << "step " << step;
      ASSERT_EQ(scanned, ref_scanned) << "step " << step;
      ASSERT_EQ(scanned, table.size());
      if (!pick) continue;
      const smc::TableEntry got = table.remove(*pick);
      const smc::TableEntry want = ref.remove(*ref_pick);
      ASSERT_EQ(got.arrival_seq, want.arrival_seq) << "step " << step;
      ASSERT_EQ(got.request.id, want.request.id);
      streams.note_service(got.request.stream_id);
      if (is_column_op(got)) {
        const auto drained = drain(table, got.dram_addr, batch_limit);
        ASSERT_EQ(drained, ref_drain(ref, got.dram_addr, batch_limit))
            << "step " << step;
        for (const auto& [seq, stream] : drained) {
          streams.note_service(stream);
        }
      }
    }

    ASSERT_EQ(table.size(), ref.size());
    const auto records = table.arrival_order();
    std::size_t s = ref.first();
    for (std::size_t i = 0; i < records.size(); ++i, s = ref.next(s)) {
      ASSERT_NE(s, RefTable::kNull);
      ASSERT_EQ(records[i].arrival_seq, ref.at(s).arrival_seq);
      ASSERT_EQ(table.at(records[i].slot).arrival_seq, records[i].arrival_seq);
    }
    ASSERT_EQ(s, RefTable::kNull);
  }
}

TEST(HotPathPropertyTest, ArrivalOrderedWalksMatchLinkedListReference) {
  const WalkCase cases[] = {
      {smc::SchedulerKind::kFcfs, true, false},
      {smc::SchedulerKind::kFrfcfs, true, false},
      {smc::SchedulerKind::kParbs, true, false},
      {smc::SchedulerKind::kBliss, false, false},
      {smc::SchedulerKind::kBliss, true, false},
      {smc::SchedulerKind::kAtlas, true, true},
      {smc::SchedulerKind::kAtlas, true, false},
      {smc::SchedulerKind::kTcm, true, false},
  };
  for (const WalkCase& c : cases) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      check_walks(c, seed);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// --------------------------------------------------------------------------
// Ring-buffer BoundedFifo vs std::deque
// --------------------------------------------------------------------------

TEST(HotPathPropertyTest, RingFifoMatchesDequeSemantics) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SplitMix64 rng(seed ^ 0xF1F0);
    const std::size_t capacity = 1 + rng.next() % 33;
    tile::BoundedFifo<std::uint64_t> fifo(capacity);
    std::deque<std::uint64_t> ref;

    for (int step = 0; step < 2000; ++step) {
      EXPECT_EQ(fifo.size(), ref.size());
      EXPECT_EQ(fifo.empty(), ref.empty());
      EXPECT_EQ(fifo.full(), ref.size() >= capacity);
      if (!ref.empty()) {
        EXPECT_EQ(fifo.front(), ref.front());
      }

      switch (rng.next() % 3) {
        case 0:
          if (!fifo.full()) {
            const std::uint64_t v = rng.next();
            fifo.push(v);
            ref.push_back(v);
          }
          break;
        case 1:
          if (!fifo.empty()) {
            EXPECT_EQ(fifo.pop(), ref.front());
            ref.pop_front();
          }
          break;
        default:
          if (!fifo.empty()) {
            fifo.drop();
            ref.pop_front();
          }
          break;
      }
    }
  }
}

TEST(HotPathPropertyTest, RingFifoContractsStillEnforced) {
  tile::BoundedFifo<int> f(2);
  EXPECT_THROW(f.pop(), ContractViolation);
  EXPECT_THROW(f.drop(), ContractViolation);
  f.push(1);
  f.push(2);
  EXPECT_THROW(f.push(3), ContractViolation);
}

// --------------------------------------------------------------------------
// Recency-ordered cpu::Cache vs the array-of-structs reference
// --------------------------------------------------------------------------

/// An array-of-structs cache with LRU stamps: one Way record per way, a
/// separate valid bit, one early-exit scan per lookup. Kept here as the
/// behavioral reference for replacement order, dirty tracking and the
/// hit/miss counters.
class RefCache {
 public:
  explicit RefCache(const cpu::CacheConfig& cfg) : cfg_(cfg) {
    num_sets_ = cfg.size_bytes / (std::uint64_t{cfg.ways} * cfg.line_bytes);
    line_shift_ = static_cast<std::uint32_t>(std::countr_zero(cfg.line_bytes));
    sets_shift_ = static_cast<std::uint32_t>(std::countr_zero(num_sets_));
    ways_.assign(num_sets_ * cfg.ways, Way{});
  }

  bool access(std::uint64_t line) {
    Way* way = lookup(line);
    if (way == nullptr) {
      ++misses_;
      return false;
    }
    way->lru = ++lru_clock_;
    ++hits_;
    return true;
  }

  bool probe(std::uint64_t line) { return lookup(line) != nullptr; }

  cpu::FillResult fill(std::uint64_t line) {
    const std::size_t set = set_of(line);
    const std::uint64_t tag = tag_of(line);
    Way* victim = nullptr;
    for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
      Way& way = ways_[set * cfg_.ways + w];
      if (way.valid && way.tag == tag) {
        way.lru = ++lru_clock_;
        return cpu::FillResult{};
      }
      if (!way.valid) victim = &way;
    }
    cpu::FillResult result;
    if (victim == nullptr) {
      victim = &ways_[set * cfg_.ways];
      for (std::uint32_t w = 1; w < cfg_.ways; ++w) {
        Way& way = ways_[set * cfg_.ways + w];
        if (way.lru < victim->lru) victim = &way;
      }
      result.evicted = true;
      result.evicted_dirty = victim->dirty;
      result.evicted_line = ((victim->tag << sets_shift_) + set) << line_shift_;
    }
    victim->valid = true;
    victim->dirty = false;
    victim->tag = tag;
    victim->lru = ++lru_clock_;
    return result;
  }

  /// The reference has no fused store paths; it marks dirty separately.
  void mark_dirty(std::uint64_t line) { lookup(line)->dirty = true; }

  cpu::Cache::FlushResult flush(std::uint64_t line) {
    Way* way = lookup(line);
    if (way == nullptr) return cpu::Cache::FlushResult{};
    const cpu::Cache::FlushResult r{true, way->dirty};
    way->valid = false;
    way->dirty = false;
    return r;
  }

  std::int64_t hits() const { return hits_; }
  std::int64_t misses() const { return misses_; }

 private:
  struct Way {
    std::uint64_t tag = 0;
    bool valid = false;
    bool dirty = false;
    std::uint64_t lru = 0;
  };

  std::size_t set_of(std::uint64_t line) const {
    return static_cast<std::size_t>((line >> line_shift_) & (num_sets_ - 1));
  }
  std::uint64_t tag_of(std::uint64_t line) const {
    return line >> (line_shift_ + sets_shift_);
  }
  Way* lookup(std::uint64_t line) {
    const std::size_t set = set_of(line);
    const std::uint64_t tag = tag_of(line);
    for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
      Way& way = ways_[set * cfg_.ways + w];
      if (way.valid && way.tag == tag) return &way;
    }
    return nullptr;
  }

  cpu::CacheConfig cfg_;
  std::uint64_t num_sets_ = 0;
  std::uint32_t line_shift_ = 0;
  std::uint32_t sets_shift_ = 0;
  std::vector<Way> ways_;
  std::uint64_t lru_clock_ = 0;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
};

/// Ways per set the oracle tests cover: every count up to 16, and 32.
std::vector<std::uint32_t> oracle_ways() {
  std::vector<std::uint32_t> ways;
  for (std::uint32_t w = 1; w <= 16; ++w) ways.push_back(w);
  ways.push_back(32);
  return ways;
}

void expect_same_fill(const cpu::FillResult& got, const cpu::FillResult& want) {
  ASSERT_EQ(got.evicted, want.evicted);
  ASSERT_EQ(got.evicted_dirty, want.evicted_dirty);
  ASSERT_EQ(got.evicted_line, want.evicted_line);
}

/// Drives cpu::Cache and the reference through identical seeded sequences
/// of every operation (the fused store hit and dirty fill included) over
/// 1- to 16-way and 32-way geometries, and requires every return value,
/// every FillResult and both counters to match. Addresses come from a pool
/// of three lines per way per set, so sets fill, evict and hold holes left
/// by flushes.
TEST(HotPathPropertyTest, RecencyOrderedCacheMatchesArrayOfStructsReference) {
  for (const std::uint32_t ways : oracle_ways()) {
    for (const std::uint64_t sets : {1u, 2u, 8u}) {
      for (const std::uint32_t line_bytes : {32u, 64u}) {
        const cpu::CacheConfig cfg{sets * ways * line_bytes, ways, line_bytes};
        cpu::Cache cache(cfg);
        RefCache ref(cfg);
        SplitMix64 rng(ways * 1000 + sets * 10 + line_bytes);
        const std::uint64_t pool = sets * ways * 3;
        for (int step = 0; step < 3000; ++step) {
          const std::uint64_t line = (rng.next() % pool) * line_bytes;
          switch (rng.next() % 7) {
            case 0:
              ASSERT_EQ(cache.access(line), ref.access(line));
              break;
            case 1: {
              const bool hit = ref.access(line);
              if (hit) ref.mark_dirty(line);
              ASSERT_EQ(cache.access_store(line), hit);
              break;
            }
            case 2:
              ASSERT_EQ(cache.probe(line), ref.probe(line));
              break;
            case 3:
            case 4: {
              const bool dirty = rng.next() % 2 == 0;
              const cpu::FillResult got = cache.fill(line, dirty);
              const cpu::FillResult want = ref.fill(line);
              if (dirty) ref.mark_dirty(line);
              expect_same_fill(got, want);
              if (HasFatalFailure()) return;
              break;
            }
            case 5:
              if (ref.probe(line)) {
                cache.mark_dirty(line);
                ref.mark_dirty(line);
              } else {
                ASSERT_THROW(cache.mark_dirty(line), ContractViolation);
              }
              break;
            default: {
              const cpu::Cache::FlushResult got = cache.flush(line);
              const cpu::Cache::FlushResult want = ref.flush(line);
              ASSERT_EQ(got.was_present, want.was_present);
              ASSERT_EQ(got.was_dirty, want.was_dirty);
              break;
            }
          }
          ASSERT_EQ(cache.hits(), ref.hits());
          ASSERT_EQ(cache.misses(), ref.misses());
        }
      }
    }
  }
}

/// Fills one set, flushes its most recent line (the front word), then
/// refills the set past capacity: the hole must be taken before any
/// eviction, and the evictions must then follow LRU order.
TEST(HotPathPropertyTest, MruFlushThenRefillMatchesReference) {
  for (const std::uint32_t ways : oracle_ways()) {
    SCOPED_TRACE(::testing::Message() << ways << " ways");
    const cpu::CacheConfig cfg{2 * ways * 64, ways, 64};  // Two sets.
    cpu::Cache cache(cfg);
    RefCache ref(cfg);
    constexpr std::uint64_t kStride = 2 * 64;  // Next line of the same set.
    for (std::uint64_t i = 0; i < ways; ++i) {
      const bool dirty = i % 3 == 0;
      expect_same_fill(cache.fill(i * kStride, dirty), ref.fill(i * kStride));
      if (dirty) ref.mark_dirty(i * kStride);
    }
    // Reorder recency, ending on the line to flush.
    for (std::uint64_t i = 0; i < ways; i += 2) {
      ASSERT_TRUE(cache.access(i * kStride));
      ASSERT_TRUE(ref.access(i * kStride));
    }
    const std::uint64_t mru = 0;
    ASSERT_TRUE(cache.access_store(mru));
    ASSERT_TRUE(ref.access(mru));
    ref.mark_dirty(mru);

    const cpu::Cache::FlushResult flushed = cache.flush(mru);
    EXPECT_TRUE(flushed.was_present);
    EXPECT_TRUE(flushed.was_dirty);
    ref.flush(mru);

    for (std::uint64_t i = ways; i < 2 * ways + 1; ++i) {
      const cpu::FillResult got = cache.fill(i * kStride);
      expect_same_fill(got, ref.fill(i * kStride));
      if (i == ways) {
        EXPECT_FALSE(got.evicted) << "the flushed way was not reused";
      }
      if (HasFatalFailure()) return;
    }
    for (std::uint64_t i = 0; i < 2 * ways + 1; ++i) {
      ASSERT_EQ(cache.probe(i * kStride), ref.probe(i * kStride)) << "line " << i;
    }
    // The other set never saw a fill.
    EXPECT_FALSE(cache.probe(64));
    EXPECT_EQ(cache.hits(), ref.hits());
  }
}

/// A line's tag packs above the two flag bits of a set word, so the
/// constructor accepts only geometries whose tag starts at bit 2 or
/// higher. At that bound the largest line's tag is all ones: it must stay
/// distinct from the empty word and from line 0, and come back whole when
/// evicted.
TEST(HotPathPropertyTest, LargestTagNeverPacksIntoTheEmptyWord) {
  // 1-byte lines: 4 sets put the tag at bit 2; 2 sets would put it at 1.
  EXPECT_THROW(cpu::Cache(cpu::CacheConfig{2, 1, 1}), ContractViolation);
  EXPECT_THROW(cpu::Cache(cpu::CacheConfig{4, 2, 2}), ContractViolation);
  for (const cpu::CacheConfig& cfg :
       {cpu::CacheConfig{4, 1, 1}, cpu::CacheConfig{4, 1, 4},
        cpu::CacheConfig{8, 2, 4}}) {
    SCOPED_TRACE(::testing::Message() << cfg.size_bytes << " bytes, "
                                      << cfg.ways << " ways");
    cpu::Cache cache(cfg);
    // All ones above the set index: the largest line of set 0.
    const std::uint64_t set_stride = cfg.size_bytes / cfg.ways;
    const std::uint64_t top = ~(set_stride - 1);
    EXPECT_FALSE(cache.probe(top));
    EXPECT_FALSE(cache.fill(top, /*dirty=*/true).evicted);
    EXPECT_TRUE(cache.probe(top));
    EXPECT_FALSE(cache.probe(0));
    EXPECT_TRUE(cache.access(top));
    // Line 0 shares the top line's set; filling past the ways evicts the
    // top line, dirty and at its own address.
    cpu::FillResult last;
    for (std::uint64_t i = 0; i < cfg.ways; ++i) {
      last = cache.fill(i * set_stride);
    }
    EXPECT_TRUE(last.evicted);
    EXPECT_TRUE(last.evicted_dirty);
    EXPECT_EQ(last.evicted_line, top);
    EXPECT_FALSE(cache.probe(top));
    EXPECT_TRUE(cache.probe(0));
  }
}

// --------------------------------------------------------------------------
// CompletionRing
// --------------------------------------------------------------------------

TEST(CompletionRingTest, InOrderPutAndConsume) {
  sys::CompletionRing ring;
  for (std::uint64_t id = 1; id <= 1000; ++id) {
    EXPECT_FALSE(ring.ready(id));
    ring.put(id, static_cast<std::int64_t>(id * 10), id % 2 == 0);
    ASSERT_TRUE(ring.ready(id));
    EXPECT_EQ(ring.release_proc_cycle(id), static_cast<std::int64_t>(id * 10));
    EXPECT_EQ(ring.ok(id), id % 2 == 0);
    ring.consume(id);
    EXPECT_FALSE(ring.ready(id));
  }
  EXPECT_EQ(ring.window(), 0u);  // Fully reclaimed: no growth leak.
}

TEST(CompletionRingTest, OutOfOrderConsumeReclaimsOnCatchUp) {
  sys::CompletionRing ring;
  for (std::uint64_t id = 1; id <= 8; ++id) ring.put(id, 0, true);
  // Consume everything but the head: the window cannot shrink yet.
  for (std::uint64_t id = 2; id <= 8; ++id) ring.consume(id);
  EXPECT_EQ(ring.window(), 8u);
  EXPECT_TRUE(ring.ready(1));
  ring.consume(1);  // Head consumed: the whole consumed prefix collapses.
  EXPECT_EQ(ring.window(), 0u);
  ring.put(9, 99, false);
  EXPECT_TRUE(ring.ready(9));
}

TEST(CompletionRingTest, GrowsPastInitialCapacityAndWraps) {
  sys::CompletionRing ring;
  SplitMix64 rng(11);
  std::uint64_t next_put = 1;
  std::uint64_t next_take = 1;
  // Random window churn with a window often larger than the initial
  // capacity, forcing both growth and head wraparound.
  for (int step = 0; step < 5000; ++step) {
    if (next_take == next_put || rng.next() % 2 == 0) {
      ring.put(next_put, static_cast<std::int64_t>(next_put), true);
      ++next_put;
    } else {
      ASSERT_TRUE(ring.ready(next_take));
      EXPECT_EQ(ring.release_proc_cycle(next_take),
                static_cast<std::int64_t>(next_take));
      ring.consume(next_take);
      ++next_take;
    }
  }
}

TEST(CompletionRingTest, ClearDiscardsWindow) {
  sys::CompletionRing ring;
  for (std::uint64_t id = 1; id <= 5; ++id) ring.put(id, 7, true);
  ring.consume(2);
  ring.clear();
  EXPECT_EQ(ring.window(), 0u);
  for (std::uint64_t id = 1; id <= 5; ++id) EXPECT_FALSE(ring.ready(id));
  // Ids continue densely after the cleared window.
  ring.put(6, 1, true);
  EXPECT_TRUE(ring.ready(6));
  EXPECT_THROW(ring.put(3, 1, true), ContractViolation);
}

TEST(CompletionRingTest, DoublePutRejected) {
  sys::CompletionRing ring;
  ring.put(1, 0, true);
  EXPECT_THROW(ring.put(1, 0, true), ContractViolation);
}

// --------------------------------------------------------------------------
// CompletionRing error paths (the graceful-degradation contract: typed
// failures travel the same ring as successes, never a silent wrong answer)
// --------------------------------------------------------------------------

TEST(CompletionRingTest, TypedFailuresSurviveTheRing) {
  sys::CompletionRing ring;
  ring.put(1, 10, true);
  ring.put(2, 20, false, RequestError::kUncorrectable);
  ring.put(3, 30, true, RequestError::kNone, /*data_reliable=*/false);

  EXPECT_TRUE(ring.ok(1));
  EXPECT_EQ(ring.error(1), RequestError::kNone);
  EXPECT_TRUE(ring.data_reliable(1));

  EXPECT_FALSE(ring.ok(2));
  EXPECT_EQ(ring.error(2), RequestError::kUncorrectable);

  EXPECT_TRUE(ring.ok(3));
  EXPECT_FALSE(ring.data_reliable(3));

  for (std::uint64_t id = 1; id <= 3; ++id) ring.consume(id);
  EXPECT_EQ(ring.window(), 0u);
}

TEST(CompletionRingTest, RetriedCompletionArrivesOutOfOrder) {
  // A retried UE read completes after younger requests that were served
  // while its re-reads ran: the failing id's slot must keep its typed
  // verdict while the younger ids come and go around it.
  sys::CompletionRing ring;
  for (std::uint64_t id = 1; id <= 4; ++id) ring.note_pending(id, 0);
  ring.put(2, 20, true);
  ring.put(3, 30, true);
  ring.put(4, 45, false, RequestError::kUncorrectable);
  EXPECT_FALSE(ring.ready(1));
  EXPECT_TRUE(ring.pending(1));
  ring.consume(3);  // Out-of-order consume leaves a hole at 3.
  ring.put(1, 90, false, RequestError::kUncorrectable);  // Retries exhausted.

  EXPECT_EQ(ring.error(1), RequestError::kUncorrectable);
  EXPECT_EQ(ring.release_proc_cycle(1), 90);
  EXPECT_EQ(ring.error(4), RequestError::kUncorrectable);
  ring.consume(1);
  ring.consume(2);
  ring.consume(4);
  EXPECT_EQ(ring.window(), 0u);
}

TEST(CompletionRingTest, WrapAroundPreservesMixedVerdicts) {
  // Churn the window past the initial capacity with a deterministic mix of
  // ok / typed-failure / unreliable completions and check every verdict
  // survives growth and head wraparound bit-exactly.
  sys::CompletionRing ring;
  std::uint64_t next_put = 1;
  std::uint64_t next_take = 1;
  SplitMix64 rng(0xECC5EED);
  const auto expected_error = [](std::uint64_t id) {
    return id % 5 == 0 ? RequestError::kUncorrectable : RequestError::kNone;
  };
  for (int step = 0; step < 5000; ++step) {
    if (next_take == next_put || rng.next() % 2 == 0) {
      const std::uint64_t id = next_put++;
      ring.put(id, static_cast<std::int64_t>(id), expected_error(id) ==
                                                      RequestError::kNone,
               expected_error(id), /*data_reliable=*/id % 3 != 0);
    } else {
      const std::uint64_t id = next_take++;
      ASSERT_TRUE(ring.ready(id));
      EXPECT_EQ(ring.error(id), expected_error(id)) << id;
      EXPECT_EQ(ring.ok(id), expected_error(id) == RequestError::kNone) << id;
      EXPECT_EQ(ring.data_reliable(id), id % 3 != 0) << id;
      ring.consume(id);
    }
  }
}

}  // namespace
}  // namespace easydram
