#pragma once

#include <bit>
#include <cstdint>

#include "common/contracts.hpp"

namespace easydram {

/// Unsigned 64-bit division by a runtime-invariant divisor, as one
/// multiply-high and two shifts (Granlund & Montgomery, "Division by
/// Invariant Integers using Multiplication", PLDI 1994, Fig. 4.1).
///
/// With l = ceil(log2 d) and m = floor(2^64 (2^l - d) / d) + 1 (which fits
/// in 64 bits), t = floor(m n / 2^64) gives
///   floor(n / d) = (t + ((n - t) >> min(l, 1))) >> max(l - 1, 0)
/// exactly for every 64-bit n and every d >= 1; no intermediate overflows
/// because t <= n. The constructor pays one 128-bit division; divide() pays
/// none. Quotients are bit-identical to `/`, so n - divide(n) * d is `%`.
class ConstDivisor {
 public:
  constexpr ConstDivisor() : ConstDivisor(1) {}

  constexpr explicit ConstDivisor(std::uint64_t d) : d_(d) {
    EASYDRAM_EXPECTS(d >= 1);
    const int l = std::bit_width(d - 1);  // ceil(log2 d) for d >= 1.
    using U128 = unsigned __int128;
    const U128 excess = (U128{1} << l) - d;  // 2^l - d < d.
    m_ = static_cast<std::uint64_t>((excess << 64) / d + 1);
    sh1_ = static_cast<std::uint8_t>(l < 1 ? l : 1);
    sh2_ = static_cast<std::uint8_t>(l > 1 ? l - 1 : 0);
  }

  constexpr std::uint64_t divisor() const { return d_; }

  /// floor(n / divisor()).
  constexpr std::uint64_t divide(std::uint64_t n) const {
    const auto t = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(m_) * n) >> 64);
    return (t + ((n - t) >> sh1_)) >> sh2_;
  }

 private:
  std::uint64_t d_ = 1;
  std::uint64_t m_ = 1;
  std::uint8_t sh1_ = 0;
  std::uint8_t sh2_ = 0;
};

}  // namespace easydram
