#pragma once

#include <algorithm>
#include <compare>
#include <cstdint>
#include <numeric>

#include "common/contracts.hpp"
#include "common/divisor.hpp"

namespace easydram {

/// A point or span on a timeline, in picoseconds.
///
/// All device-level timing in the repository is integral picoseconds: DDR4
/// timing parameters are multiples of fractional nanoseconds (e.g. tCK =
/// 1.5 ns for DDR4-1333), and integer ps arithmetic keeps every simulator
/// bit-deterministic across platforms.
struct Picoseconds {
  std::int64_t count = 0;

  constexpr Picoseconds() = default;
  constexpr explicit Picoseconds(std::int64_t ps) : count(ps) {}

  constexpr auto operator<=>(const Picoseconds&) const = default;

  constexpr Picoseconds operator+(Picoseconds o) const { return Picoseconds{count + o.count}; }
  constexpr Picoseconds operator-(Picoseconds o) const { return Picoseconds{count - o.count}; }
  constexpr Picoseconds& operator+=(Picoseconds o) { count += o.count; return *this; }
  constexpr Picoseconds& operator-=(Picoseconds o) { count -= o.count; return *this; }
  constexpr Picoseconds operator*(std::int64_t k) const { return Picoseconds{count * k}; }

  constexpr double nanoseconds() const { return static_cast<double>(count) / 1e3; }
  constexpr double microseconds() const { return static_cast<double>(count) / 1e6; }
  constexpr double seconds() const { return static_cast<double>(count) / 1e12; }
};

namespace literals {
constexpr Picoseconds operator""_ps(unsigned long long v) { return Picoseconds{static_cast<std::int64_t>(v)}; }
constexpr Picoseconds operator""_ns(unsigned long long v) { return Picoseconds{static_cast<std::int64_t>(v) * 1000}; }
constexpr Picoseconds operator""_us(unsigned long long v) { return Picoseconds{static_cast<std::int64_t>(v) * 1000 * 1000}; }
constexpr Picoseconds operator""_ms(unsigned long long v) { return Picoseconds{static_cast<std::int64_t>(v) * 1000 * 1000 * 1000}; }
}  // namespace literals

/// A count of clock cycles in some clock domain (DRAM, SMC core, emulated
/// processor, FPGA). A strong type for the same reason as Picoseconds: a
/// raw `std::int64_t window_cycles` and a raw `std::int64_t window_ps` add
/// and compare silently, and that unit confusion is exactly what the
/// easydram-lint `raw-time-units` check bans from public headers. Cycles
/// never carries its clock — converting to real time goes through the
/// owning domain's Frequency.
struct Cycles {
  std::int64_t count = 0;

  constexpr Cycles() = default;
  constexpr explicit Cycles(std::int64_t c) : count(c) {}

  constexpr auto operator<=>(const Cycles&) const = default;

  constexpr Cycles operator+(Cycles o) const { return Cycles{count + o.count}; }
  constexpr Cycles operator-(Cycles o) const { return Cycles{count - o.count}; }
  constexpr Cycles& operator+=(Cycles o) { count += o.count; return *this; }
  constexpr Cycles& operator-=(Cycles o) { count -= o.count; return *this; }
  constexpr Cycles operator*(std::int64_t k) const { return Cycles{count * k}; }
};

/// A clock frequency in hertz. Converts between cycle counts and Picoseconds.
///
/// Each converter is defined by an exact 128-bit formula (the reference):
///   cycles_to_ps(c)       = (c * 1e12 + floor(hz / 2)) / hz
///   ps_to_cycles_floor(t) = (t * hz) / 1e12
///   ps_to_cycles_ceil(t)  = (t * hz + 1e12 - 1) / 1e12
/// with C++'s truncating `/`. The constructor reduces 1e12 / hz to b / a
/// (g = gcd(1e12, hz), b = 1e12 / g, a = hz / g) and precomputes ConstDivisors
/// for 2a and b, so a non-negative operand converts in 64-bit arithmetic
/// without any division instruction:
///   cycles_to_ps(c)       = (2cb + a) / 2a
///   ps_to_cycles_floor(t) = ta / b
///   ps_to_cycles_ceil(t)  = (ta + b - 1) / b
/// The last two are the reference with numerator and denominator divided
/// by g. For the first, (c*1e12 + floor(hz/2)) / hz equals
/// floor(cb/a + 1/2) = (2cb + a) / 2a when hz is even; when hz is odd it
/// is (2c*1e12 + hz - 1) / 2hz, which differs from (2c*1e12 + hz) / 2hz
/// only if the odd number 2c*1e12 + hz were a multiple of the even 2hz.
/// Operands up to the precomputed bounds keep every intermediate below
/// 2^64; negative operands and those past the bounds take the reference
/// formula. Every result is therefore bit-identical to the reference.
/// The two ps_to_cycles converters reject negative times: the reference's
/// truncating division is neither a floor nor a ceiling below zero, and no
/// time on any modelled timeline precedes power-on.
class Frequency {
 public:
  constexpr Frequency() = default;
  constexpr explicit Frequency(std::int64_t hz) : hertz_(hz) {
    if (hz <= 0) return;  // Unusable; every converter rejects it.
    const auto uhz = static_cast<std::uint64_t>(hz);
    const std::uint64_t g = std::gcd(kPsPerSecond, uhz);
    a_ = uhz / g;
    b_ = kPsPerSecond / g;
    twice_a_ = ConstDivisor{2 * a_};
    b_div_ = ConstDivisor{b_};
    constexpr std::uint64_t kMax = ~std::uint64_t{0};
    constexpr std::uint64_t kMaxSigned = kMax >> 1;
    cycles_fast_end_ = std::min((kMax - a_) / (2 * b_), kMaxSigned) + 1;
    floor_fast_end_ = std::min(kMax / a_, kMaxSigned) + 1;
    ceil_fast_end_ = std::min((kMax - (b_ - 1)) / a_, kMaxSigned) + 1;
  }

  constexpr std::int64_t hertz() const { return hertz_; }

  constexpr bool operator==(const Frequency& o) const {
    return hertz_ == o.hertz_;
  }
  constexpr auto operator<=>(const Frequency& o) const {
    return hertz_ <=> o.hertz_;
  }

  static constexpr Frequency megahertz(std::int64_t mhz) { return Frequency{mhz * 1'000'000}; }
  static constexpr Frequency gigahertz(std::int64_t ghz) { return Frequency{ghz * 1'000'000'000}; }

  /// Clock period. Exact only when 1e12 is divisible by `hertz`; all clock
  /// frequencies used in this repository (50/100/666.67 MHz, 1/1.43 GHz)
  /// are modelled through the cycle<->ps converters below instead, which
  /// round deterministically.
  constexpr Picoseconds period() const {
    EASYDRAM_EXPECTS(hertz_ > 0);
    return Picoseconds{1'000'000'000'000 / hertz_};
  }

  /// Duration of `cycles` clock cycles, rounded to nearest picosecond.
  constexpr Picoseconds cycles_to_ps(std::int64_t cycles) const {
    if (static_cast<std::uint64_t>(cycles) < cycles_fast_end_) {
      const auto c = static_cast<std::uint64_t>(cycles);
      // A whole-picosecond period (a == 1): (2cb + 1) / 2 is exactly cb.
      if (a_ == 1) return Picoseconds{static_cast<std::int64_t>(c * b_)};
      const std::uint64_t num = 2 * c * b_ + a_;
      return Picoseconds{static_cast<std::int64_t>(twice_a_.divide(num))};
    }
    EASYDRAM_EXPECTS(hertz_ > 0);
    const __int128 num = static_cast<__int128>(cycles) * 1'000'000'000'000;
    return Picoseconds{static_cast<std::int64_t>((num + hertz_ / 2) / hertz_)};
  }

  constexpr Picoseconds cycles_to_ps(Cycles c) const { return cycles_to_ps(c.count); }

  /// Number of whole cycles that have *started* by time `t` (floor).
  constexpr std::int64_t ps_to_cycles_floor(Picoseconds t) const {
    if (static_cast<std::uint64_t>(t.count) < floor_fast_end_) {
      return static_cast<std::int64_t>(
          b_div_.divide(static_cast<std::uint64_t>(t.count) * a_));
    }
    EASYDRAM_EXPECTS(hertz_ > 0);
    EASYDRAM_EXPECTS(t.count >= 0);
    const __int128 num = static_cast<__int128>(t.count) * hertz_;
    return static_cast<std::int64_t>(num / 1'000'000'000'000);
  }

  /// Number of cycles needed to cover duration `t` (ceiling). This is the
  /// conversion used when a latency expressed in real time must be charged
  /// to a clocked domain: a partial cycle still occupies a full cycle.
  constexpr std::int64_t ps_to_cycles_ceil(Picoseconds t) const {
    if (static_cast<std::uint64_t>(t.count) < ceil_fast_end_) {
      return static_cast<std::int64_t>(
          b_div_.divide(static_cast<std::uint64_t>(t.count) * a_ + (b_ - 1)));
    }
    EASYDRAM_EXPECTS(hertz_ > 0);
    EASYDRAM_EXPECTS(t.count >= 0);
    const __int128 num = static_cast<__int128>(t.count) * hertz_;
    const __int128 den = 1'000'000'000'000;
    return static_cast<std::int64_t>((num + den - 1) / den);
  }

 private:
  static constexpr std::uint64_t kPsPerSecond = 1'000'000'000'000;

  std::int64_t hertz_ = 0;
  std::uint64_t a_ = 1;  ///< hz / g.
  std::uint64_t b_ = 1;  ///< 1e12 / g.
  ConstDivisor twice_a_;
  ConstDivisor b_div_;
  /// One past the largest operand of each converter's 64-bit path, at
  /// most 2^63: a negative operand read as unsigned is at least 2^63 and
  /// falls back. They stay 0 for hz <= 0, so every operand falls back to
  /// the reference formula and its contract check.
  std::uint64_t cycles_fast_end_ = 0;
  std::uint64_t floor_fast_end_ = 0;
  std::uint64_t ceil_fast_end_ = 0;
};

}  // namespace easydram
