#include "workloads/mixed.hpp"

#include "common/contracts.hpp"
#include "workloads/hammer.hpp"
#include "workloads/lmbench.hpp"

namespace easydram::workloads {

std::string_view to_string(TenantKind kind) {
  switch (kind) {
    case TenantKind::kPointerChase: return "chase";
    case TenantKind::kStreamCopy: return "stream";
    case TenantKind::kHammer: return "hammer";
  }
  return "?";
}

namespace {

/// STREAM-style copy: sequential dependent-free loads from the lower half
/// of the footprint, streaming stores to the upper half, one line each per
/// iteration. Written here rather than reusing the PolyBench kernels
/// because tenants need relocatable footprints (the PolyBench generators
/// are base-0).
std::vector<cpu::TraceRecord> make_stream_copy(const TenantSpec& spec) {
  const std::uint64_t half_lines = spec.footprint_bytes / 2 / 64;
  EASYDRAM_EXPECTS(half_lines > 0);
  std::vector<cpu::TraceRecord> out;
  out.reserve(static_cast<std::size_t>(spec.passes) * half_lines * 2);
  const std::uint64_t src = spec.base_addr;
  const std::uint64_t dst = spec.base_addr + spec.footprint_bytes / 2;
  for (int pass = 0; pass < spec.passes; ++pass) {
    for (std::uint64_t line = 0; line < half_lines; ++line) {
      out.emplace_back(cpu::Op::kLoad, src + line * 64, spec.gap_instructions);
      out.emplace_back(cpu::Op::kStoreStream, dst + line * 64,
                       spec.gap_instructions);
    }
  }
  return out;
}

std::vector<cpu::TraceRecord> make_hammer_tenant(
    const TenantSpec& spec, const smc::AddressMapper& mapper) {
  // Ground the attack in the tenant's own footprint: hammer the bank its
  // base address decodes to, a few rows in (and off any subarray boundary)
  // so every aggressor has both neighbors.
  const dram::DramAddress base = mapper.to_dram(spec.base_addr);
  HammerParams p;
  p.bank = base.bank;
  p.rank = base.rank;
  p.channel = base.channel;
  p.base_row = base.row + 6;
  const std::uint32_t sub = mapper.geometry().rows_per_subarray;
  if (p.base_row % sub < 2) p.base_row += 2;
  p.rounds = spec.passes * kHammerRoundsPerPass;
  return make_hammer_trace(p, mapper);
}

}  // namespace

std::vector<cpu::TraceRecord> make_tenant_trace(
    const TenantSpec& spec, const smc::AddressMapper& mapper) {
  EASYDRAM_EXPECTS(spec.passes > 0);
  EASYDRAM_EXPECTS(spec.footprint_bytes >= 128);
  EASYDRAM_EXPECTS(spec.stream <= 0xFFFF);  // TraceRecord::stream is 16-bit.
  std::vector<cpu::TraceRecord> trace;
  switch (spec.kind) {
    case TenantKind::kPointerChase:
      // Per-tenant chase permutation: distinct streams walk distinct
      // pseudo-random orders even over equal-sized footprints.
      trace = make_lmbench_chase(spec.footprint_bytes, spec.passes,
                                 spec.base_addr, 0x17B + spec.stream);
      break;
    case TenantKind::kStreamCopy:
      trace = make_stream_copy(spec);
      break;
    case TenantKind::kHammer:
      trace = make_hammer_tenant(spec, mapper);
      break;
  }
  // make_mixed_trace interleaves record by record, which would split a
  // kRowClone from its kRowCloneDst; no tenant kind emits RowClone.
  const auto stream = static_cast<std::uint16_t>(spec.stream);
  for (cpu::TraceRecord& rec : trace) {
    EASYDRAM_EXPECTS(rec.op != cpu::Op::kRowClone &&
                     rec.op != cpu::Op::kRowCloneDst);
    rec.stream = stream;
  }
  return trace;
}

MixedTrace make_mixed_trace(std::span<const TenantSpec> tenants,
                            const smc::AddressMapper& mapper) {
  EASYDRAM_EXPECTS(!tenants.empty());
  MixedTrace mixed;
  mixed.solo.reserve(tenants.size());
  std::size_t total = 0;
  for (const TenantSpec& spec : tenants) {
    mixed.solo.push_back(make_tenant_trace(spec, mapper));
    total += mixed.solo.back().size();
  }

  // Smooth weighted round-robin with the tenants' record counts as
  // weights: each step every live tenant's credit grows by its weight and
  // the largest credit (ties to the lower index) emits one record. The
  // result interleaves tenants proportionally — a long bandwidth trace
  // dribbles between chase records instead of running as a block — and is
  // a pure function of the spec list.
  mixed.interleaved.reserve(total);
  std::vector<std::size_t> cursor(tenants.size(), 0);
  std::vector<std::int64_t> credit(tenants.size(), 0);
  while (mixed.interleaved.size() < total) {
    std::size_t pick = tenants.size();
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      if (cursor[i] >= mixed.solo[i].size()) continue;
      credit[i] += static_cast<std::int64_t>(mixed.solo[i].size());
      if (pick == tenants.size() || credit[i] > credit[pick]) pick = i;
    }
    EASYDRAM_ENSURES(pick < tenants.size());
    credit[pick] -= static_cast<std::int64_t>(total);
    mixed.interleaved.push_back(mixed.solo[pick][cursor[pick]++]);
  }
  return mixed;
}

}  // namespace easydram::workloads
