#pragma once

#include <vector>

#include "smc/mitigation/mitigator.hpp"

namespace easydram::smc::mitigation {

/// Graphene-style counter tracker (Park et al., MICRO 2020, simplified):
/// one Misra-Gries frequent-items summary per bank estimates each row's
/// activation count within the current refresh window. An entry crossing
/// the threshold refreshes BOTH neighbors of the aggressor and re-arms its
/// counter; tables reset when a full retention window's worth of refresh
/// slots (Geometry::refresh_window_refs per rank, counting slots a
/// retention-aware policy skipped as well as REFs issued) has elapsed,
/// matching the wall-time window the threshold is defined over.
///
/// The Misra-Gries summary guarantees any row activated more than
/// (window activations) / (table_rows + 1) times holds an entry — the
/// classic space/precision trade the hardware proposal makes. The flip
/// side is the coverage limit every counter table has: an attack cycling
/// MORE distinct aggressor rows per bank than table_rows keeps each one
/// at the spillover floor (evicted, re-adopted, re-armed) and never
/// triggers, so `graphene_table_rows` must exceed the widest many-sided
/// pattern the deployment cares about; tests/test_mitigation.cpp pins
/// both sides of that boundary.
class GrapheneMitigator final : public RowHammerMitigator {
 public:
  GrapheneMitigator(const MitigationConfig& cfg, const dram::Geometry& geo);

  void on_activate(const dram::DramAddress& a,
                   std::vector<dram::DramAddress>& victims) override;
  void on_refresh(std::uint32_t rank) override;
  void on_refresh_skipped(std::uint32_t rank) override;

  /// Test introspection: estimated count tracked for (rank, bank, row), or
  /// 0 when the row holds no entry.
  std::int64_t tracked_count(std::uint32_t bank, std::uint32_t row,
                             std::uint32_t rank = 0) const;

 private:
  struct Entry {
    std::uint32_t row = 0;
    std::int64_t count = 0;
    /// Count value at the last trigger (or at insertion/adoption, where
    /// the row is indistinguishable from the spillover noise floor): a
    /// further `threshold` activations above this baseline re-trigger.
    /// Counts never reset mid-window, preserving the Misra-Gries
    /// invariant (every entry count >= spill) — resetting to 0 would make
    /// a just-triggered entry the adoption victim and, once spill itself
    /// exceeded the threshold, degenerate into a trigger per ACT.
    std::int64_t armed_at = 0;
  };
  /// One bank's summary: up to table_rows entries plus the shared
  /// spillover counter every untracked row is charged to.
  struct Table {
    std::vector<Entry> entries;
    std::int64_t spill = 0;
  };

  void trigger(Entry& entry, const dram::DramAddress& a,
               std::vector<dram::DramAddress>& victims);

  /// One refresh slot (issued REF or policy-skipped) of `rank` elapsed;
  /// resets the rank's tables once a whole window of slots has passed.
  void note_refresh_slot(std::uint32_t rank);

  dram::Geometry geo_;
  std::int64_t threshold_;
  std::size_t table_rows_;
  std::vector<Table> tables_;  ///< Indexed by flat (rank, bank).
  /// Per rank: refresh slots seen (issued + skipped), for window resets.
  std::vector<std::int64_t> slots_seen_;
};

}  // namespace easydram::smc::mitigation
