#include "cpu/core.hpp"

#include <algorithm>

namespace easydram::cpu {

Core::Core(const CoreConfig& cfg, const CacheHierConfig& caches)
    : cfg_(cfg), l1_(caches.l1), l2_(caches.l2) {
  EASYDRAM_EXPECTS(cfg.issue_width > 0);
  EASYDRAM_EXPECTS(cfg.mlp > 0);
  EASYDRAM_EXPECTS(cfg.store_buffer > 0);
  // run() issues every access as a 64-byte line (addr & ~63).
  EASYDRAM_EXPECTS(caches.l1.line_bytes == 64 && caches.l2.line_bytes == 64);
  issue_width_ = ConstDivisor{cfg.issue_width};
}

void Core::advance_for_instructions(std::uint64_t count) {
  result_.instructions += static_cast<std::int64_t>(count);
  const std::uint64_t total = count + width_remainder_;
  const std::uint64_t issue_cycles = issue_width_.divide(total);
  cycle_ += static_cast<std::int64_t>(issue_cycles);
  width_remainder_ =
      static_cast<std::uint32_t>(total - issue_cycles * cfg_.issue_width);
}

void Core::evict_from_l2(std::uint64_t line, bool l2_dirty, MemoryBackend& mem) {
  // Inclusive hierarchy: back-invalidate the L1 copy; the freshest dirty
  // version (L1 over L2) is written back to memory.
  const Cache::FlushResult l1f = l1_.flush(line);
  if (l2_dirty || l1f.was_dirty) {
    reserve_store_slot(mem);
    store_slots_.push_back(mem.submit_write(line, cycle_));
    ++result_.mem_writes;
  }
}

void Core::fill_l1(std::uint64_t line, bool dirty) {
  const FillResult l1fill = l1_.fill(line, dirty);
  // A dirty L1 victim folds back into L2. The hierarchy is inclusive (an
  // L2 eviction back-invalidates L1; flushes and streaming stores clear
  // both levels), so the victim is always still in L2 and mark_dirty's
  // precondition enforces that.
  if (l1fill.evicted && l1fill.evicted_dirty) l2_.mark_dirty(l1fill.evicted_line);
}

std::uint64_t Core::fetch_line(std::uint64_t line, bool dirty, MemoryBackend& mem) {
  const FillResult l2fill = l2_.fill(line);
  if (l2fill.evicted) evict_from_l2(l2fill.evicted_line, l2fill.evicted_dirty, mem);
  const std::uint64_t id = mem.submit_read(line, cycle_);
  ++result_.mem_reads;
  fill_l1(line, dirty);
  return id;
}

void Core::wait_oldest_load(MemoryBackend& mem) {
  EASYDRAM_EXPECTS(!outstanding_loads_.empty());
  const Completion c = mem.wait(outstanding_loads_.front());
  outstanding_loads_.pop_front();
  cycle_ = std::max(cycle_, c.release_cycle);
}

void Core::reserve_store_slot(MemoryBackend& mem) {
  if (store_slots_.size() < cfg_.store_buffer) return;
  const Completion c = mem.wait(store_slots_.front());
  store_slots_.pop_front();
  cycle_ = std::max(cycle_, c.release_cycle);
}

void Core::drain_all(MemoryBackend& mem) {
  while (!outstanding_loads_.empty()) wait_oldest_load(mem);
  while (!store_slots_.empty()) {
    const Completion c = mem.wait(store_slots_.front());
    store_slots_.pop_front();
    cycle_ = std::max(cycle_, c.release_cycle);
  }
}

RunResult Core::run(TraceSource& trace, MemoryBackend& mem) {
  result_ = RunResult{};
  cycle_ = 0;
  width_remainder_ = 0;
  outstanding_loads_.clear();
  store_slots_.clear();

  TraceRecord rec;
  bool last_rowclone_ok = true;
  std::uint32_t current_stream = 0;
  mem.set_stream(current_stream);
  while (trace.next(rec, last_rowclone_ok)) {
    // Stream identity is sticky on the backend: every request this record
    // causes — including writebacks of lines another stream dirtied — is
    // attributed to the stream whose access is executing now.
    if (rec.stream != current_stream) {
      current_stream = rec.stream;
      mem.set_stream(current_stream);
    }
    advance_for_instructions(std::uint64_t{rec.gap_instructions} + 1);
    const std::uint64_t line = rec.addr() & ~std::uint64_t{63};

    switch (rec.op) {
      case Op::kLoad:
      case Op::kLoadDependent: {
        ++result_.loads;
        const bool dependent = cfg_.blocking_loads || rec.op == Op::kLoadDependent;
        if (l1_.access(line)) {
          if (dependent) cycle_ += cfg_.l1_latency;
          break;
        }
        ++result_.l1_misses;
        if (l2_.access(line)) {
          fill_l1(line, false);
          if (dependent) cycle_ += cfg_.l2_latency;
          break;
        }
        ++result_.l2_misses;
        if (outstanding_loads_.size() >= cfg_.mlp) wait_oldest_load(mem);
        const std::uint64_t id = fetch_line(line, false, mem);
        if (dependent) {
          const Completion c = mem.wait(id);
          cycle_ = std::max(cycle_, c.release_cycle + cfg_.fill_to_use);
        } else {
          outstanding_loads_.push_back(id);
        }
        break;
      }

      case Op::kStoreStream: {
        if (cfg_.write_streaming) {
          ++result_.stores;
          // Non-temporal full-line store: no allocation, no RFO. Any cached
          // copy is superseded wholesale (no writeback needed).
          l1_.flush(line);
          l2_.flush(line);
          reserve_store_slot(mem);
          store_slots_.push_back(mem.submit_write(line, cycle_));
          ++result_.mem_writes;
          break;
        }
        [[fallthrough]];  // Cores without streaming treat it as a store.
      }

      case Op::kStore: {
        ++result_.stores;
        if (l1_.access_store(line)) break;
        ++result_.l1_misses;
        if (l2_.access(line)) {
          fill_l1(line, true);
          break;
        }
        ++result_.l2_misses;
        // Write-allocate: the read-for-ownership occupies a store-buffer
        // slot; the core stalls only when the buffer is full.
        reserve_store_slot(mem);
        store_slots_.push_back(fetch_line(line, true, mem));
        break;
      }

      case Op::kFlush: {
        ++result_.flushes;
        cycle_ += cfg_.flush_cost;
        const Cache::FlushResult f1 = l1_.flush(line);
        const Cache::FlushResult f2 = l2_.flush(line);
        if (f1.was_dirty || f2.was_dirty) {
          reserve_store_slot(mem);
          store_slots_.push_back(mem.submit_write(line, cycle_));
          ++result_.mem_writes;
        }
        break;
      }

      case Op::kRowClone: {
        const TraceRecord dst = next_rowclone_dst(trace, last_rowclone_ok);
        ++result_.rowclones;
        cycle_ += cfg_.rowclone_trigger_cycles.count;
        const std::uint64_t id =
            mem.submit_rowclone(rec.addr(), dst.addr(), cycle_);
        const Completion c = mem.wait(id);
        cycle_ = std::max(cycle_, c.release_cycle);
        last_rowclone_ok = c.ok;
        if (!c.ok) ++result_.rowclone_fallbacks;
        break;
      }

      case Op::kRowCloneDst:
        EASYDRAM_EXPECTS(!"kRowCloneDst without its kRowClone");
        break;

      case Op::kDrain:
        drain_all(mem);
        break;

      case Op::kMarker:
        drain_all(mem);
        result_.markers.push_back(cycle_);
        break;
    }
  }

  drain_all(mem);
  result_.cycles = cycle_;
  return result_;
}

}  // namespace easydram::cpu
