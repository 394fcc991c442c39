#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/contracts.hpp"

namespace easydram::cpu {

/// Operations in a core execution trace.
enum class Op : std::uint8_t {
  kLoad,           ///< Load whose value feeds no address (overlappable).
  kLoadDependent,  ///< Load on the critical path (e.g. pointer chase).
  kStore,
  /// Full-cache-line store in a detected streaming pattern (memset/memcpy
  /// destinations). Cores with write-streaming support (e.g. Cortex A57)
  /// skip the read-for-ownership and post the line directly; others treat
  /// it as a plain store.
  kStoreStream,
  kFlush,     ///< Cache-line flush via the memory-mapped register (§7.1).
  /// Trigger an in-DRAM copy of the row holding `addr` onto the row named
  /// by the kRowCloneDst record that must immediately follow.
  kRowClone,
  /// Destination half of a kRowClone pair: `addr` is the destination. It is
  /// consumed together with its kRowClone, retires no instruction and adds
  /// no gap; reaching one on its own is a contract violation.
  kRowCloneDst,
  kDrain,     ///< Memory barrier: wait for all outstanding requests.
  kMarker,    ///< Snapshot the cycle counter into RunResult::markers.
};

/// One trace record: `gap_instructions` non-memory instructions execute
/// before the operation itself. Packed to 12 bytes (the PolyBench kernels
/// hold millions of records): the address is 40 bits, split into a 32-bit
/// low word and an 8-bit high byte behind addr()/set_addr(), and a RowClone
/// travels as two records: kRowClone (source) then kRowCloneDst
/// (destination). tRCD profiling does not travel in the trace: it reaches
/// the memory system through MemoryBackend::submit_profile.
class TraceRecord {
 public:
  /// Addresses must lie below 1 TiB. Every AddressMapper already rejects
  /// addresses beyond its capacity, and no geometry comes close.
  static constexpr std::uint64_t kAddrLimit = std::uint64_t{1} << 40;

  TraceRecord() = default;
  TraceRecord(Op o, std::uint64_t a, std::uint32_t gap = 0)
      : gap_instructions(gap), op(o) {
    set_addr(a);
  }

  std::uint64_t addr() const {
    return (std::uint64_t{addr_hi_} << 32) | addr_lo_;
  }
  void set_addr(std::uint64_t a) {
    EASYDRAM_EXPECTS(a < kAddrLimit);
    addr_lo_ = static_cast<std::uint32_t>(a);
    addr_hi_ = static_cast<std::uint8_t>(a >> 32);
  }

  std::uint32_t gap_instructions = 0;
  /// Traffic-stream identity for multi-tenant traces. The core forwards it
  /// to the memory backend so every memory request it causes (including
  /// cache writebacks, attributed to the evicting stream) carries it.
  /// Narrower than the uint32 stream ids downstream; producers check the
  /// range before narrowing.
  std::uint16_t stream = 0;
  Op op = Op::kLoad;

 private:
  std::uint8_t addr_hi_ = 0;
  std::uint32_t addr_lo_ = 0;
};
static_assert(sizeof(TraceRecord) == 12);

/// Pull-based trace generator. Each pull() returns the next span of
/// records; an empty span ends the trace. The span stays valid until the
/// next pull. `last_rowclone_ok` feeds back the outcome of the most recent
/// kRowClone so generators can emit CPU-fallback accesses, exactly as the
/// paper's software falls back to load/store copies.
///
/// Contract: a span never separates a kRowClone from the kRowCloneDst that
/// follows it. A source whose later records depend on a RowClone's outcome
/// ends its span with that pair, so the outcome reaches the next pull.
///
/// Thread-safety: Core::run calls pull() on its helper thread, one call at
/// a time, while the caller's thread drives the MemoryBackend. A source
/// must therefore share no unsynchronised mutable state with the backend;
/// reading immutable data (an address mapper, a geometry) is fine.
class TraceSource {
 public:
  virtual ~TraceSource() = default;
  virtual std::span<const TraceRecord> pull(bool last_rowclone_ok) = 0;
};

/// The two records of one RowClone: kRowClone with the source, after
/// `gap_instructions`, then its kRowCloneDst with the destination. Producers
/// emit them back to back.
inline std::array<TraceRecord, 2> rowclone_pair(
    std::uint64_t src, std::uint64_t dst, std::uint32_t gap_instructions) {
  return {TraceRecord(Op::kRowClone, src, gap_instructions),
          TraceRecord(Op::kRowCloneDst, dst)};
}

/// A trace replayed from a pre-recorded vector (ignores feedback): the
/// first pull returns every record, without copying.
class VectorTrace final : public TraceSource {
 public:
  explicit VectorTrace(std::vector<TraceRecord> records)
      : records_(std::move(records)) {}

  std::span<const TraceRecord> pull(bool /*last_rowclone_ok*/) override {
    if (pulled_) return {};
    pulled_ = true;
    return records_;
  }

 private:
  std::vector<TraceRecord> records_;
  bool pulled_ = false;
};

/// A trace replayed from a caller-owned span (ignores feedback): the first
/// pull returns every record, without copying. Use this to run several
/// simulators over one generated workload: the multi-million-record
/// kernels are expensive to copy, and the span borrows them instead. The
/// underlying storage must outlive the source.
class SpanTrace final : public TraceSource {
 public:
  explicit SpanTrace(std::span<const TraceRecord> records)
      : records_(records) {}

  std::span<const TraceRecord> pull(bool /*last_rowclone_ok*/) override {
    if (pulled_) return {};
    pulled_ = true;
    return records_;
  }

 private:
  std::span<const TraceRecord> records_;
  bool pulled_ = false;
};

}  // namespace easydram::cpu
