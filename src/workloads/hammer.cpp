#include "workloads/hammer.hpp"

#include <algorithm>

#include "common/contracts.hpp"

namespace easydram::workloads {

namespace {

/// Row distance of the single-sided pattern's conflict partner: far enough
/// that the two aggressors share no victim, near enough to stay inside one
/// subarray for the default base rows.
constexpr std::uint32_t kSingleSidedPartnerDistance = 8;

}  // namespace

std::string_view to_string(HammerPattern p) {
  switch (p) {
    case HammerPattern::kSingleSided: return "single_sided";
    case HammerPattern::kDoubleSided: return "double_sided";
    case HammerPattern::kManySided: return "many_sided";
  }
  return "?";
}

std::vector<std::uint32_t> hammer_aggressor_rows(const HammerParams& p) {
  switch (p.pattern) {
    case HammerPattern::kSingleSided:
      return {p.base_row, p.base_row + kSingleSidedPartnerDistance};
    case HammerPattern::kDoubleSided:
      // Victim p.base_row + 1 sits between the pair.
      return {p.base_row, p.base_row + 2};
    case HammerPattern::kManySided: {
      EASYDRAM_EXPECTS(p.sides >= 2);
      std::vector<std::uint32_t> rows;
      rows.reserve(p.sides);
      for (std::uint32_t i = 0; i < p.sides; ++i) {
        rows.push_back(p.base_row + 2 * i);
      }
      return rows;
    }
  }
  return {};
}

std::vector<std::uint32_t> hammer_victim_rows(const HammerParams& p,
                                              const dram::Geometry& geo) {
  const std::vector<std::uint32_t> aggressors = hammer_aggressor_rows(p);
  std::vector<std::uint32_t> victims;
  for (const std::uint32_t row : aggressors) {
    const dram::Geometry::NeighborRows n = geo.neighbor_rows(row);
    for (std::uint32_t i = 0; i < n.count; ++i) victims.push_back(n.rows[i]);
  }
  std::sort(victims.begin(), victims.end());
  victims.erase(std::unique(victims.begin(), victims.end()), victims.end());
  // An aggressor both disturbs its neighbors and is restored by its own
  // activations: it never accumulates exposure, so it is not a victim.
  std::erase_if(victims, [&aggressors](std::uint32_t v) {
    return std::find(aggressors.begin(), aggressors.end(), v) !=
           aggressors.end();
  });
  return victims;
}

std::vector<cpu::TraceRecord> make_hammer_trace(
    const HammerParams& p, const smc::AddressMapper& mapper) {
  EASYDRAM_EXPECTS(p.rounds > 0);
  const dram::Geometry& geo = mapper.geometry();
  const std::vector<std::uint32_t> aggressors = hammer_aggressor_rows(p);
  std::vector<std::uint64_t> addrs;
  addrs.reserve(aggressors.size());
  for (const std::uint32_t row : aggressors) {
    EASYDRAM_EXPECTS(row < geo.rows_per_bank);
    addrs.push_back(mapper.to_physical(
        dram::DramAddress{p.bank, row, 0, p.channel, p.rank}));
  }

  std::vector<cpu::TraceRecord> trace;
  trace.reserve(static_cast<std::size_t>(p.rounds) * addrs.size() * 2);
  for (int round = 0; round < p.rounds; ++round) {
    for (const std::uint64_t addr : addrs) {
      // The canonical user-space attack loop: touch the line, then CLFLUSH
      // it so the next touch leaves the cache hierarchy and re-ACTs the
      // row. Dependent loads: real attack loops serialize (mfence or a
      // data dependence) precisely so the controller cannot coalesce
      // same-row accesses into one activation — each load is one ACT.
      trace.emplace_back(cpu::Op::kLoadDependent, addr, p.gap_instructions);
      trace.emplace_back(cpu::Op::kFlush, addr, p.gap_instructions);
    }
  }
  return trace;
}

std::vector<cpu::TraceRecord> make_hammer_blend(
    const HammerParams& p, const smc::AddressMapper& mapper,
    std::span<const cpu::TraceRecord> background, std::size_t burst_period) {
  EASYDRAM_EXPECTS(burst_period > 0);
  // A burst may land between any two background records, which would split
  // a kRowClone from its kRowCloneDst.
  EASYDRAM_EXPECTS(std::none_of(
      background.begin(), background.end(), [](const cpu::TraceRecord& r) {
        return r.op == cpu::Op::kRowClone || r.op == cpu::Op::kRowCloneDst;
      }));
  const std::vector<cpu::TraceRecord> hammer = make_hammer_trace(p, mapper);
  const std::size_t per_round = hammer_aggressor_rows(p).size() * 2;

  std::vector<cpu::TraceRecord> blend;
  blend.reserve(background.size() + hammer.size());
  std::size_t hammer_cursor = 0;
  for (std::size_t i = 0; i < background.size(); ++i) {
    blend.push_back(background[i]);
    if ((i + 1) % burst_period == 0 && hammer_cursor < hammer.size()) {
      const std::size_t end = std::min(hammer_cursor + per_round, hammer.size());
      blend.insert(blend.end(), hammer.begin() + hammer_cursor,
                   hammer.begin() + end);
      hammer_cursor = end;
    }
  }
  // Remaining hammer rounds (short background): attack continues alone.
  blend.insert(blend.end(), hammer.begin() + hammer_cursor, hammer.end());
  return blend;
}

}  // namespace easydram::workloads
