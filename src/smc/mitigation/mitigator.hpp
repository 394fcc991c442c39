#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "dram/geometry.hpp"
#include "dram/types.hpp"

namespace easydram::smc::mitigation {

/// Aggregate statistics of one mitigator instance (one memory channel).
struct MitigationStats {
  std::int64_t acts_observed = 0;       ///< ACT commands fed to the policy.
  std::int64_t triggers = 0;            ///< Decisions that selected victims.
  std::int64_t neighbor_refreshes = 0;  ///< Victim rows queued for refresh.
  std::int64_t window_resets = 0;       ///< Refresh-window state resets.
};

/// A RowHammer mitigation policy running inside the software memory
/// controller. The controller feeds it every ACT its command stream issues
/// (via smc::ActSink); the policy appends the victim rows it wants
/// refreshed to `victims`, and the controller injects one targeted-refresh
/// Bender program (ACT victim, tRAS restore, PRE) per victim right after
/// the batch that triggered it — charged to the emulated timeline like any
/// other controller work, which is exactly the overhead the
/// mitigation_overhead scenario measures.
///
/// Policies must be deterministic functions of (construction config,
/// observed command stream): the scenario runner relies on bit-identical
/// results at any --threads value.
class RowHammerMitigator {
 public:
  virtual ~RowHammerMitigator() = default;

  /// One observed row activation. Mitigation-injected refreshes are NOT
  /// observed (the controller suppresses them), matching the usual hardware
  /// formulation where the mitigation unit watches demand traffic.
  virtual void on_activate(const dram::DramAddress& a,
                           std::vector<dram::DramAddress>& victims) = 0;

  /// One periodic auto-refresh (REF) issued to `rank`. Policies that reset
  /// per-refresh-window state (Graphene) hook this; stateless policies
  /// (PARA) ignore it.
  virtual void on_refresh(std::uint32_t rank) = 0;

  /// One refresh slot of `rank` a retention-aware refresh policy elected
  /// to skip (see smc::RefreshPolicy). No REF reached the device, but the
  /// slot still marks one tREFI of wall time — policies whose window
  /// state models the *retention window* (Graphene) must count it, or a
  /// skipping regime would stretch their windows by the skip ratio.
  /// Default no-op: never called under the all-rows regime.
  virtual void on_refresh_skipped(std::uint32_t /*rank*/) {}

  const MitigationStats& stats() const { return stats_; }

 protected:
  MitigationStats stats_;
};

/// The shipped policy family.
enum class MitigationKind : std::uint8_t {
  kNone,
  kPara,      ///< Probabilistic adjacent-row activation (Kim+, ISCA'14).
  kGraphene,  ///< Misra-Gries top-k counter tracker (Park+, MICRO'20 style).
};

std::string_view to_string(MitigationKind kind);
std::optional<MitigationKind> parse_mitigation(std::string_view name);

/// Configuration shared by the policy family (sys::SystemConfig carries one).
struct MitigationConfig {
  MitigationKind kind = MitigationKind::kNone;

  /// PARA: per-ACT probability of refreshing one adjacent row. The default
  /// bounds worst-case exposure around a few hundred activations — far
  /// under contemporary HCfirst thresholds — at ~1.6% extra activations.
  double para_probability = 1.0 / 64.0;
  /// PARA RNG stream seed; mixed with the channel index so channels draw
  /// independent streams. Seeded from the scenario RNG, never from time.
  std::uint64_t seed = 0x0DDC0FFEEULL;

  /// Graphene: estimated activation count at which an aggressor's
  /// neighbors are refreshed (and its counter re-armed). Worst-case victim
  /// exposure is ~2x this (a victim flanked by two aggressors triggering
  /// out of phase); real HCfirst thresholds sit orders of magnitude above.
  std::int64_t graphene_threshold = 128;
  /// Graphene: tracked (row, counter) entries per bank. The Misra-Gries
  /// detection guarantee only covers attacks with at most this many
  /// aggressor rows per bank (a wider round-robin keeps every aggressor
  /// below the tracking floor — the real proposal sizes k to
  /// window-activations/threshold for exactly this reason); 32 covers
  /// many-sided patterns far beyond the shipped workload family at 384
  /// bytes per bank.
  std::size_t graphene_table_rows = 32;
};

/// Builds the configured policy for one channel (nullptr for kNone).
std::unique_ptr<RowHammerMitigator> make_mitigator(const MitigationConfig& cfg,
                                                   const dram::Geometry& geo,
                                                   std::uint32_t channel);

}  // namespace easydram::smc::mitigation
