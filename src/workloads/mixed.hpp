#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "cpu/trace.hpp"
#include "smc/addr_map.hpp"

namespace easydram::workloads {

/// Tenant archetypes of the multi-tenant QoS studies, built from the
/// repository's existing kernels.
enum class TenantKind : std::uint8_t {
  /// lmbench-style dependent pointer chase: the latency-sensitive tenant.
  /// Low request rate, but every request is on its critical path.
  kPointerChase,
  /// STREAM-style copy sweep (sequential loads from the lower half of the
  /// footprint, streaming stores to the upper half): the bandwidth hog
  /// whose row-hit trains monopolize an FR-FCFS scheduler.
  kStreamCopy,
  /// RowHammer attack loop (load + clflush over aggressor rows): the
  /// adversary tenant; pairs with PARA to ask whether mitigation overhead
  /// lands on the victims.
  kHammer,
};

std::string_view to_string(TenantKind kind);

/// One tenant of a mixed workload. Footprints must be disjoint — the
/// builder does not check overlap (sharing is occasionally what an
/// experiment wants).
struct TenantSpec {
  TenantKind kind = TenantKind::kPointerChase;
  /// Stream identity stamped on every record this tenant emits; at most
  /// 0xFFFF, the range of TraceRecord::stream.
  std::uint32_t stream = 0;
  std::uint64_t base_addr = 0;
  std::uint64_t footprint_bytes = 256 * 1024;
  /// Work multiplier: chase walks / copy sweeps of the footprint, or
  /// hammer-round batches (kHammerRoundsPerPass rounds each).
  int passes = 1;
  /// Non-memory instructions between records (kStreamCopy only; the chase
  /// and hammer kernels fix their own gaps).
  std::uint32_t gap_instructions = 2;
};

/// Hammer rounds one `passes` unit of a kHammer tenant executes.
inline constexpr int kHammerRoundsPerPass = 300;

/// A built mixed workload: the N-stream interleaved trace plus each
/// tenant's solo trace (same records, same stream tags) for
/// slowdown-vs-alone baselines.
struct MixedTrace {
  std::vector<cpu::TraceRecord> interleaved;
  std::vector<std::vector<cpu::TraceRecord>> solo;
};

/// Builds one tenant's trace, stream-tagged. The mapper grounds the hammer
/// tenant's aggressor coordinates (its footprint's rows/bank); the other
/// kinds ignore it.
std::vector<cpu::TraceRecord> make_tenant_trace(const TenantSpec& spec,
                                                const smc::AddressMapper& mapper);

/// Builds every tenant's trace and interleaves them proportionally to
/// their lengths (smooth weighted round-robin, ties to the lower tenant
/// index) — a deterministic model of N cores issuing concurrently, ready
/// for the single trace-driven core. Record order depends only on the
/// specs, never on host state.
MixedTrace make_mixed_trace(std::span<const TenantSpec> tenants,
                            const smc::AddressMapper& mapper);

}  // namespace easydram::workloads
