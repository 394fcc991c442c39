#pragma once

#include <cstdint>

#include "common/contracts.hpp"
#include "common/units.hpp"

namespace easydram::timescale {

/// Clock configuration of one emulation domain (§4.3): the physical FPGA
/// clock the component's logic actually runs at, and the clock frequency it
/// is emulated to have in the modeled system.
struct DomainConfig {
  Frequency fpga_clock = Frequency::megahertz(100);
  Frequency emulated_clock = Frequency::gigahertz(1);
};

/// The processor and memory-controller time-scaling counters of Fig. 5
/// plus critical-mode state. Fig. 5's third counter, `global` (FPGA clock
/// cycles since power-on), is derived from the wall clock by
/// TimeKeeper::global_cycles().
///
/// Units: `proc` and `mc` count *emulated processor* cycles. Invariants
/// enforced:
///  * all counters are monotonically non-decreasing;
///  * while the SMC is in critical mode, the processor counter never
///    advances past the memory-controller counter (the SMC "locks" it);
///  * the MC counter never falls behind the processor counter when the SMC
///    finishes a scheduling step (responses cannot be released in the past).
class Counters {
 public:
  std::int64_t proc() const { return proc_; }
  std::int64_t mc() const { return mc_; }
  bool critical() const { return critical_; }

  /// Advances the processor-domain emulation point. While in critical mode
  /// the advance is clamped so proc never exceeds mc; the clamped amount is
  /// returned (callers use it to know how far the processors actually ran).
  std::int64_t advance_proc(std::int64_t cycles) {
    EASYDRAM_EXPECTS(cycles >= 0);
    std::int64_t granted = cycles;
    if (critical_ && proc_ + granted > mc_) granted = mc_ > proc_ ? mc_ - proc_ : 0;
    proc_ += granted;
    return granted;
  }

  /// Enters critical mode (Fig. 5(c)): locks the processor counter at or
  /// below the MC counter. On entry the MC counter snaps up to the
  /// processor counter: the SMC starts servicing *now*, not in the past.
  void enter_critical() {
    critical_ = true;
    if (mc_ < proc_) mc_ = proc_;
  }

  /// Leaves critical mode (all requests responded). The processor counter
  /// resynchronises with the MC counter: the stall window has been fully
  /// accounted and normal execution resumes.
  void exit_critical() {
    EASYDRAM_EXPECTS(critical_);
    critical_ = false;
    if (proc_ < mc_) proc_ = mc_;
  }

  /// Advances the memory-controller emulation point by `cycles` emulated
  /// processor cycles (Fig. 5 steps 5 and 11).
  void advance_mc(std::int64_t cycles) {
    EASYDRAM_EXPECTS(cycles >= 0);
    mc_ += cycles;
  }

 private:
  std::int64_t proc_ = 0;
  std::int64_t mc_ = 0;
  bool critical_ = false;
};

/// Converts durations between a domain's emulated timeline and real time.
class Scaler {
 public:
  explicit Scaler(DomainConfig cfg) : cfg_(cfg) {
    EASYDRAM_EXPECTS(cfg.fpga_clock.hertz() > 0);
    EASYDRAM_EXPECTS(cfg.emulated_clock.hertz() > 0);
  }

  const DomainConfig& config() const { return cfg_; }

  /// Emulated cycles that elapse in the domain during real duration `t`
  /// (e.g. DRAM Bender reports 75 ns; at 1 GHz emulated clock this is 75
  /// emulated cycles). Rounds up: a partial cycle still stalls a full one.
  Cycles real_to_emulated_cycles(Picoseconds t) const {
    return Cycles{cfg_.emulated_clock.ps_to_cycles_ceil(t)};
  }

  /// Emulated-timeline duration of `cycles` domain cycles.
  Picoseconds emulated_cycles_to_time(std::int64_t cycles) const {
    return cfg_.emulated_clock.cycles_to_ps(cycles);
  }

  /// FPGA wall time the domain needs to execute `cycles` of its own logic.
  Picoseconds fpga_time_for_cycles(std::int64_t cycles) const {
    return cfg_.fpga_clock.cycles_to_ps(cycles);
  }

 private:
  DomainConfig cfg_;
};

}  // namespace easydram::timescale
