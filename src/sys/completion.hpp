#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/contracts.hpp"
#include "common/error.hpp"

namespace easydram::sys {

/// Completion store for the system engine's request lifecycle, replacing a
/// per-request `unordered_map<id, Response>`.
///
/// Request ids are handed out densely (1, 2, 3, ...) and every request
/// produces exactly one completion, so the outstanding window maps onto a
/// ring indexed by `id - base_id`. The core consumes completions
/// approximately in issue order; out-of-order takes leave a consumed hole
/// that is reclaimed when the window's head catches up. put/ready/take are
/// O(1) with no hashing and no per-request allocation (the ring grows
/// geometrically to the workload's maximum outstanding window and is then
/// reused).
class CompletionRing {
 public:
  explicit CompletionRing(std::uint64_t first_id = 1)
      : base_id_(first_id), slots_(kInitialCapacity) {}

  bool ready(std::uint64_t id) const {
    if (id < base_id_ || id - base_id_ >= window_) return false;
    return slot(id).state == State::kReady;
  }

  /// Registers `id` as submitted-but-not-completed and records the issuing
  /// stream and the issue-time processor cycle, so a completion can be
  /// attributed (and its modeled latency computed) without looking the
  /// request back up.
  void note_pending(std::uint64_t id, std::uint32_t stream = 0,
                    std::int64_t issue_proc_cycle = 0) {
    EASYDRAM_EXPECTS(id >= base_id_);
    const std::uint64_t off = id - base_id_;
    if (off >= slots_.size()) grow(off + 1);
    if (off >= window_) window_ = off + 1;
    Slot& s = slot(id);
    EASYDRAM_EXPECTS(s.state == State::kEmpty);
    s.stream = stream;
    s.issue_proc_cycle = issue_proc_cycle;
    s.state = State::kPending;
  }

  bool pending(std::uint64_t id) const {
    if (id < base_id_ || id - base_id_ >= window_) return false;
    return slot(id).state == State::kPending;
  }

  /// Stream the request was issued by (valid until the id is consumed).
  std::uint32_t stream(std::uint64_t id) const {
    EASYDRAM_EXPECTS(pending(id) || ready(id));
    return slot(id).stream;
  }

  /// Emulated processor cycle the request was issued at (valid until the
  /// id is consumed); release - issue is the request's modeled latency.
  std::int64_t issue_proc_cycle(std::uint64_t id) const {
    EASYDRAM_EXPECTS(pending(id) || ready(id));
    return slot(id).issue_proc_cycle;
  }

  /// Records the completion of `id`. Ids at or above the base may arrive
  /// in any order; each id completes exactly once. `error` and
  /// `data_reliable` carry the error pipeline's typed verdict.
  void put(std::uint64_t id, std::int64_t release_proc_cycle, bool ok,
           RequestError error = RequestError::kNone, bool data_reliable = true) {
    EASYDRAM_EXPECTS(id >= base_id_);
    const std::uint64_t off = id - base_id_;
    if (off >= slots_.size()) grow(off + 1);
    if (off >= window_) window_ = off + 1;
    Slot& s = slot(id);
    EASYDRAM_EXPECTS(s.state == State::kEmpty || s.state == State::kPending);
    s.release_proc_cycle = release_proc_cycle;
    s.ok = ok;
    s.error = error;
    s.data_reliable = data_reliable;
    s.state = State::kReady;
  }

  std::int64_t release_proc_cycle(std::uint64_t id) const {
    EASYDRAM_EXPECTS(ready(id));
    return slot(id).release_proc_cycle;
  }

  bool ok(std::uint64_t id) const {
    EASYDRAM_EXPECTS(ready(id));
    return slot(id).ok;
  }

  /// Typed failure recorded for `id` (kNone for successful completions).
  RequestError error(std::uint64_t id) const {
    EASYDRAM_EXPECTS(ready(id));
    return slot(id).error;
  }

  /// Device reliability verdict recorded for `id`.
  bool data_reliable(std::uint64_t id) const {
    EASYDRAM_EXPECTS(ready(id));
    return slot(id).data_reliable;
  }

  /// Consumes `id` (which must be ready) and reclaims the consumed prefix
  /// of the window — the dominant in-order-wait pattern keeps the window
  /// at the workload's outstanding-request depth.
  void consume(std::uint64_t id) {
    EASYDRAM_EXPECTS(ready(id));
    slot(id).state = State::kConsumed;
    while (window_ > 0 && slots_[head_].state == State::kConsumed) {
      slots_[head_].state = State::kEmpty;
      head_ = head_ + 1 == slots_.size() ? 0 : head_ + 1;
      ++base_id_;
      --window_;
    }
  }

  /// Discards every stored completion (consumed or not) and fast-forwards
  /// the base past the current window, e.g. unconsumed posted-write acks
  /// at the end of a workload.
  void clear() {
    for (std::uint64_t i = 0; i < window_; ++i) {
      slots_[index(i)].state = State::kEmpty;
    }
    base_id_ += window_;
    head_ = 0;
    window_ = 0;
  }

  std::uint64_t window() const { return window_; }

 private:
  enum class State : std::uint8_t { kEmpty, kPending, kReady, kConsumed };

  struct Slot {
    std::int64_t release_proc_cycle = 0;
    std::int64_t issue_proc_cycle = 0;
    std::uint32_t stream = 0;
    State state = State::kEmpty;
    bool ok = true;
    bool data_reliable = true;
    RequestError error = RequestError::kNone;
  };

  static constexpr std::size_t kInitialCapacity = 64;

  std::size_t index(std::uint64_t off) const {
    const std::size_t i = head_ + static_cast<std::size_t>(off);
    return i < slots_.size() ? i : i - slots_.size();
  }
  Slot& slot(std::uint64_t id) { return slots_[index(id - base_id_)]; }
  const Slot& slot(std::uint64_t id) const {
    return slots_[index(id - base_id_)];
  }

  void grow(std::uint64_t need) {
    std::size_t cap = slots_.size();
    while (cap < need) cap *= 2;
    std::vector<Slot> bigger(cap);
    for (std::uint64_t i = 0; i < window_; ++i) bigger[i] = slots_[index(i)];
    slots_ = std::move(bigger);
    head_ = 0;
  }

  std::uint64_t base_id_;          ///< Id stored at slots_[head_].
  std::uint64_t window_ = 0;       ///< Ids covered: [base_id_, base_id_+window_).
  std::size_t head_ = 0;
  std::vector<Slot> slots_;
};

}  // namespace easydram::sys
