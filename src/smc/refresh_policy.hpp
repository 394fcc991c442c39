#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "common/units.hpp"
#include "dram/geometry.hpp"

namespace easydram::smc {

/// Per-(rank, stripe) refresh-interval multipliers: stripe s of rank r must
/// be refreshed at least every `multiplier(r, s)` retention windows. A
/// multiplier of 1 is the JEDEC default (refresh every window); RAIDR bins
/// use powers of two (1, 2, 4 ~ 64/128/256 ms at the nominal window).
/// Built by profile_retention_bins and consumed by RaidrRefreshPolicy.
struct RaidrBinning {
  std::uint32_t window_refs = 0;  ///< Stripes per rank (one REF slot each).
  std::uint32_t ranks = 0;
  /// Indexed [rank * window_refs + stripe].
  std::vector<std::uint8_t> multipliers;

  std::uint32_t multiplier(std::uint32_t rank, std::uint32_t stripe) const {
    return multipliers[static_cast<std::size_t>(rank) * window_refs + stripe];
  }
};

/// Histogram of a binning, for reporting: how many stripes landed in each
/// multiplier bin, and the steady-state fraction of REF slots that issue.
struct RaidrBinStats {
  std::int64_t stripes_total = 0;
  std::int64_t stripes_x1 = 0;  ///< Multiplier 1 (refresh every window).
  std::int64_t stripes_x2 = 0;
  std::int64_t stripes_x4 = 0;
  std::int64_t rows_profiled = 0;
  /// Steady-state fraction of refresh slots that issue a REF: the mean of
  /// 1/multiplier over stripes. 1.0 for an all-x1 binning; the REF
  /// *reduction* is 1 - issue_fraction.
  double issue_fraction = 1.0;
};

/// Per-channel refresh-skipping decision, consulted by EasyApi once per
/// refresh slot (one per tREFI per rank). Implementations must be
/// deterministic pure functions of (construction state, rank, slot): the
/// scenario runner relies on bit-identical results at any --threads value.
/// Instances are owned by the system layer and must outlive the EasyApi
/// they are installed on; they are not thread-safe and belong to their
/// channel's (single-threaded) controller loop.
class RefreshPolicy {
 public:
  virtual ~RefreshPolicy() = default;

  /// Whether REF slot `slot` of `rank` issues a real REF (true) or is
  /// skipped (false). `slot` counts every refresh opportunity since
  /// power-on — issued or skipped — so `slot % window_refs` is the
  /// round-robin stripe the REF would target.
  virtual bool should_issue(std::uint32_t rank, std::int64_t slot) = 0;

  virtual std::string_view name() const = 0;
};

/// The default regime: every slot issues. Behaviour (and every timeline)
/// is bit-identical to running with no policy installed at all.
class AllRowsRefreshPolicy final : public RefreshPolicy {
 public:
  bool should_issue(std::uint32_t, std::int64_t) override { return true; }
  std::string_view name() const override { return "all_rows"; }
};

/// RAIDR-style retention-aware refresh (Liu+, ISCA'12): stripes binned by
/// their weakest row's retention time are refreshed every 1, 2, or 4
/// windows instead of every window. The schedule phase-spreads each bin —
/// stripe s with multiplier m issues on rounds congruent to s mod m — so
/// skipping starts in round 0 (steady-state savings from the first slot)
/// and each stripe still gets its first REF within m windows of power-on,
/// inside its retention budget.
class RaidrRefreshPolicy final : public RefreshPolicy {
 public:
  explicit RaidrRefreshPolicy(RaidrBinning binning);

  bool should_issue(std::uint32_t rank, std::int64_t slot) override;
  std::string_view name() const override { return "raidr"; }

  const RaidrBinning& binning() const { return binning_; }

 private:
  RaidrBinning binning_;
};

/// The shipped refresh-policy family (sys::SystemConfig selects one).
enum class RefreshKind : std::uint8_t {
  kAllRows,  ///< JEDEC default: one REF per tREFI per rank, no skipping.
  kRaidr,    ///< Retention-aware skipping over profiled bins.
};

std::string_view to_string(RefreshKind kind);
std::optional<RefreshKind> parse_refresh(std::string_view name);

}  // namespace easydram::smc
