#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "common/contracts.hpp"
#include "dram/types.hpp"

namespace easydram::smc {

/// Read-only view of one channel's open rows: the bank state a scheduling
/// policy may consult.
///
/// A small value over a dense array with one entry per (rank, bank),
/// indexed by Geometry::flat_bank(rank, bank). An entry holds the open row
/// zero-extended to 64 bits, or kClosed for a precharged bank. kClosed lies
/// outside the 32-bit row range, so a closed bank never compares equal to
/// any row, 0xFFFFFFFF included. Queries are inline loads with no dispatch,
/// because they sit on the scheduler hot path (one per scanned table
/// entry). EasyApi owns its channel's array and hands out views through
/// bank_view(); tests and benches build one over a plain vector. A view
/// borrows its array, which must outlive it.
class BankStateView {
 public:
  /// Entry of a precharged bank.
  static constexpr std::uint64_t kClosed = ~std::uint64_t{0};

  /// `open_rows` holds one entry per (rank, bank); `banks_per_rank` is
  /// Geometry::num_banks().
  BankStateView(std::span<const std::uint64_t> open_rows,
                std::uint32_t banks_per_rank)
      : rows_(open_rows), banks_per_rank_(banks_per_rank) {}

  /// Open row of `bank` in `rank`, or nullopt when the bank is precharged.
  std::optional<std::uint32_t> open_row(std::uint32_t bank,
                                        std::uint32_t rank = 0) const {
    const std::uint64_t r = entry(bank, rank);
    if (r == kClosed) return std::nullopt;
    return static_cast<std::uint32_t>(r);
  }

  /// Open row of the bank addressed by `a` (row and column are ignored, and
  /// so is the channel: a view covers one channel).
  std::optional<std::uint32_t> open_row(const dram::DramAddress& a) const {
    return open_row(a.bank, a.rank);
  }

  /// Whether `row` is open in `bank` of `rank`.
  bool row_hit(std::uint32_t bank, std::uint32_t row, std::uint32_t rank) const {
    return entry(bank, rank) == row;
  }

 private:
  std::uint64_t entry(std::uint32_t bank, std::uint32_t rank) const {
    const std::size_t i =
        static_cast<std::size_t>(rank) * banks_per_rank_ + bank;
    EASYDRAM_EXPECTS(bank < banks_per_rank_ && i < rows_.size());
    return rows_[i];
  }

  std::span<const std::uint64_t> rows_;
  std::uint32_t banks_per_rank_;
};

}  // namespace easydram::smc
