#pragma once

#include "common/rng.hpp"
#include "smc/mitigation/mitigator.hpp"

namespace easydram::smc::mitigation {

/// PARA — probabilistic adjacent-row activation (Kim et al., ISCA 2014).
///
/// Stateless beyond its RNG: every observed ACT independently triggers,
/// with probability p, a targeted refresh of ONE uniformly chosen adjacent
/// row. No tables, no per-row state; the exposure bound is probabilistic
/// (the chance a victim survives N aggressor activations unrefreshed decays
/// as (1 - p/2)^N).
class ParaMitigator final : public RowHammerMitigator {
 public:
  ParaMitigator(const MitigationConfig& cfg, const dram::Geometry& geo,
                std::uint32_t channel);

  void on_activate(const dram::DramAddress& a,
                   std::vector<dram::DramAddress>& victims) override;
  void on_refresh(std::uint32_t rank) override;

 private:
  dram::Geometry geo_;
  double probability_;
  Xoshiro256ss rng_;
};

}  // namespace easydram::smc::mitigation
