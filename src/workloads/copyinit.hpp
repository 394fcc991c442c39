#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cpu/trace.hpp"
#include "smc/addr_map.hpp"
#include "smc/rowclone_alloc.hpp"

namespace easydram::workloads {

/// The §7.2 microbenchmarks: Copy replicates an N-byte source array into a
/// destination array; Init fills an N-byte array with a pattern. Each comes
/// in a CPU (load/store) variant and a RowClone variant, evaluated in two
/// settings: No-Flush (source data already resident in DRAM) and CLFLUSH
/// (cached dirty copies must be written back first).
struct CopyInitParams {
  enum class Kind { kCopy, kInit };
  Kind kind = Kind::kCopy;
  /// Use in-DRAM RowClone operations (with CPU fallback); false = pure
  /// CPU load/store baseline.
  bool use_rowclone = false;
  /// CLFLUSH setting: warm the caches with dirty copies, then flush before
  /// each RowClone operation (and charge the flushes).
  bool clflush = false;
  /// Non-memory instructions accompanying each per-line load/store (a
  /// 64-bit-word copy loop executes ~8 instructions per line and side).
  std::uint32_t line_gap = 7;
  /// Instructions per line for the memset-style Init store loop (a vector
  /// store loop is ~8 instructions per 64-byte line).
  std::uint32_t init_line_gap = 7;
};

/// Trace generator for Copy/Init. Reacts to RowClone fallback feedback:
/// a failed (or unverified) in-DRAM copy re-emits the row as CPU
/// loads/stores, exactly like the paper's software fallback. Each pull
/// returns one step: the warm phase, one row, a failed row's CPU redo, or
/// the final marker. A row that uses RowClone ends its span with the
/// pair, so the next pull carries its outcome.
///
/// The trace layout is: [warm phase (CLFLUSH setting only)] kMarker
/// [measured operation] kMarker — benches compute the measured-region
/// cycles as markers[1] - markers[0].
class CopyInitTrace final : public cpu::TraceSource {
 public:
  /// `copy_plan`/`init_plan`: the RowClone allocator's row plan; the CPU
  /// baseline uses the same physical rows for fairness.
  CopyInitTrace(CopyInitParams params, const smc::AddressMapper& mapper,
                std::vector<smc::CopyPlanEntry> copy_plan,
                std::vector<smc::InitPlanEntry> init_plan);

  std::span<const cpu::TraceRecord> pull(bool last_rowclone_ok) override;

  std::size_t rows() const;

 private:
  enum class Phase { kWarm, kRow, kFinal, kDone };

  void enqueue_warm();
  void enqueue_row(std::size_t row_index);
  void enqueue_cpu_row(std::size_t row_index);
  void enqueue_final();

  std::uint64_t src_line(std::size_t row_index, std::uint32_t col) const;
  std::uint64_t dst_line(std::size_t row_index, std::uint32_t col) const;
  std::uint64_t row_base(const smc::RowRef& r) const;

  CopyInitParams params_;
  const smc::AddressMapper* mapper_;
  std::vector<smc::CopyPlanEntry> copy_plan_;
  std::vector<smc::InitPlanEntry> init_plan_;

  Phase phase_ = Phase::kWarm;
  std::size_t row_index_ = 0;
  bool awaiting_feedback_ = false;
  std::vector<cpu::TraceRecord> pending_;  ///< The last pull's records.
};

}  // namespace easydram::workloads
