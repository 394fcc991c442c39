#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "dram/types.hpp"
#include "tile/request.hpp"

namespace easydram::smc {

/// A request staged in programmable-core memory, with its decoded DRAM
/// address and arrival order (for FCFS age comparisons).
struct TableEntry {
  tile::Request request;
  dram::DramAddress dram_addr;
  std::uint64_t arrival_seq = 0;
};

/// The fields of one staged request that scheduling walks read, copied out
/// of its TableEntry at insert. rank, bank and row are stored as they are,
/// not decoded from `row_key`, whose packed fields are narrower than the
/// coordinates.
struct TableRecord {
  std::uint64_t arrival_seq = 0;
  std::uint64_t row_key = 0;  ///< dram::row_key of the request's address.
  std::uint32_t rank = 0;
  std::uint32_t bank = 0;
  std::uint32_t row = 0;
  std::uint32_t stream = 0;  ///< The request's stream_id.
  std::uint32_t slot = 0;    ///< Where the full TableEntry lives.
  bool column_op = false;    ///< A read or a write.
};

/// The software request table (§4.4 step 5): a fixed-capacity scratchpad
/// structure the SMC moves requests into before scheduling them.
///
/// Full entries occupy fixed slots recycled through a free list. Beside
/// them, one contiguous array holds a TableRecord per entry in arrival
/// order, oldest first: the order the schedulers' age comparisons and the
/// controller's same-row batch drain depend on. Their walks read only that
/// array. A slot index is stable for its entry's lifetime, so the value a
/// scheduler returns from pick() can be passed to at()/remove(). Removing
/// an entry shifts the younger records down one place; capacities are tens
/// of entries, so that is a short move.
class RequestTable {
 public:
  explicit RequestTable(std::size_t capacity) : slots_(capacity) {
    EASYDRAM_EXPECTS(capacity > 0 &&
                     capacity <= std::numeric_limits<std::uint32_t>::max());
    order_.reserve(capacity);
    free_.reserve(capacity);
    for (std::size_t i = capacity; i-- > 0;) {
      free_.push_back(static_cast<std::uint32_t>(i));
    }
  }

  bool empty() const { return order_.empty(); }
  bool full() const { return order_.size() >= slots_.size(); }
  std::size_t size() const { return order_.size(); }
  std::size_t capacity() const { return slots_.size(); }

  /// Stages an entry, stamping its arrival sequence number; returns the
  /// slot it was placed in.
  std::size_t insert(TableEntry&& entry) {
    EASYDRAM_EXPECTS(!full());
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    entry.arrival_seq = next_seq_++;
    const dram::DramAddress& a = entry.dram_addr;
    const tile::RequestKind kind = entry.request.kind;
    order_.push_back(TableRecord{
        .arrival_seq = entry.arrival_seq,
        .row_key = dram::row_key(a),
        .rank = a.rank,
        .bank = a.bank,
        .row = a.row,
        .stream = entry.request.stream_id,
        .slot = slot,
        .column_op = kind == tile::RequestKind::kRead ||
                     kind == tile::RequestKind::kWrite,
    });
    Slot& s = slots_[slot];
    s.entry = std::move(entry);
    s.occupied = true;
    return slot;
  }

  const TableEntry& at(std::size_t slot) const {
    EASYDRAM_EXPECTS(slot < slots_.size() && slots_[slot].occupied);
    return slots_[slot].entry;
  }

  TableEntry remove(std::size_t slot) {
    EASYDRAM_EXPECTS(slot < slots_.size() && slots_[slot].occupied);
    const auto it = std::find_if(
        order_.begin(), order_.end(),
        [slot](const TableRecord& r) { return r.slot == slot; });
    order_.erase(it);
    return release(static_cast<std::uint32_t>(slot));
  }

  /// One record per staged entry, oldest first. Because arrival sequence
  /// numbers are assigned monotonically, front() is always the entry with
  /// the minimum arrival_seq. Invalidated by insert and remove.
  std::span<const TableRecord> arrival_order() const { return order_; }

  /// Removes, oldest first, up to `limit` entries whose record satisfies
  /// `pred`, handing each removed entry to `sink` as it goes. The records
  /// left behind keep their arrival order. Returns the number removed.
  template <typename Pred, typename Sink>
  std::size_t remove_if(Pred pred, std::size_t limit, Sink sink) {
    if (limit == 0) return 0;
    // Records before the first match stay where they are.
    auto it = std::find_if(order_.begin(), order_.end(), pred);
    auto kept = it;
    std::size_t removed = 0;
    for (; it != order_.end(); ++it) {
      if (removed < limit && pred(*it)) {
        sink(release(it->slot));
        ++removed;
      } else {
        *kept++ = *it;
      }
    }
    order_.erase(kept, order_.end());
    return removed;
  }

 private:
  struct Slot {
    TableEntry entry;
    bool occupied = false;
  };

  /// Frees `slot` and moves its entry out (the caller drops its record).
  TableEntry release(std::uint32_t slot) {
    Slot& s = slots_[slot];
    s.occupied = false;
    free_.push_back(slot);
    return std::move(s.entry);
  }

  std::uint64_t next_seq_ = 0;
  std::vector<TableRecord> order_;  ///< Arrival order, oldest first.
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  ///< Back of the vector is handed out next.
};

}  // namespace easydram::smc
