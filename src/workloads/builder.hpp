#pragma once

#include <cstdint>
#include <vector>

#include "common/contracts.hpp"
#include "cpu/trace.hpp"

namespace easydram::workloads {

/// Helper for composing core traces. `default_gap` models the non-memory
/// instructions (index arithmetic, FLOPs) between consecutive memory
/// operations; kernels override it per access where it matters.
class TraceBuilder {
 public:
  explicit TraceBuilder(std::uint32_t default_gap = 2) : default_gap_(default_gap) {
    if (pending_reserve_ != 0) {
      records_.reserve(pending_reserve_);
      pending_reserve_ = 0;
    }
  }

  /// One-shot capacity hint consumed by the next TraceBuilder constructed
  /// on this thread. Kernel generators are standalone functions that build
  /// their own TraceBuilder, so a caller that knows the record count ahead
  /// of time (generate_kernel's per-kernel table) passes it through here —
  /// growing a multi-million-record vector by doubling otherwise re-copies
  /// the whole trace several times over. Zero means no hint.
  static void hint_next_reserve(std::size_t records) {
    pending_reserve_ = records;
  }

  void load(std::uint64_t addr) { push(cpu::Op::kLoad, addr, default_gap_); }
  void load(std::uint64_t addr, std::uint32_t gap) { push(cpu::Op::kLoad, addr, gap); }
  void load_dependent(std::uint64_t addr, std::uint32_t gap = 1) {
    push(cpu::Op::kLoadDependent, addr, gap);
  }
  void store(std::uint64_t addr) { push(cpu::Op::kStore, addr, default_gap_); }
  void store(std::uint64_t addr, std::uint32_t gap) { push(cpu::Op::kStore, addr, gap); }
  void flush(std::uint64_t addr) { push(cpu::Op::kFlush, addr, 1); }
  void drain() { push(cpu::Op::kDrain, 0, 0); }
  void rowclone(std::uint64_t src, std::uint64_t dst) {
    for (const cpu::TraceRecord& r : cpu::rowclone_pair(src, dst, 2)) {
      records_.push_back(r);
    }
  }
  void compute(std::uint32_t instructions) {
    // Pure-compute stretch: attach the instructions to a NOP-like record by
    // folding them into the next access's gap instead of a dedicated op.
    pending_gap_ += instructions;
  }

  std::vector<cpu::TraceRecord> take() { return std::move(records_); }
  std::size_t size() const { return records_.size(); }

 private:
  void push(cpu::Op op, std::uint64_t addr, std::uint32_t gap) {
    records_.emplace_back(op, addr, gap + pending_gap_);
    pending_gap_ = 0;
  }

  inline static thread_local std::size_t pending_reserve_ = 0;

  std::uint32_t default_gap_;
  std::uint32_t pending_gap_ = 0;
  std::vector<cpu::TraceRecord> records_;
};

/// Bump allocator for laying out kernel arrays in physical memory, 64-byte
/// aligned, with a guard gap between arrays so distinct arrays never share
/// a cache line.
class Layout {
 public:
  explicit Layout(std::uint64_t base = 0) : cursor_(base) {}

  std::uint64_t alloc(std::uint64_t bytes) {
    const std::uint64_t aligned = (cursor_ + 63) & ~std::uint64_t{63};
    cursor_ = aligned + ((bytes + 63) & ~std::uint64_t{63});
    return aligned;
  }

  std::uint64_t bytes_used() const { return cursor_; }

 private:
  std::uint64_t cursor_;
};

}  // namespace easydram::workloads
