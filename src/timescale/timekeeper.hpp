#pragma once

#include <cstdint>

#include "common/contracts.hpp"
#include "common/units.hpp"
#include "timescale/timescale.hpp"

namespace easydram::timescale {

/// Evaluation mode of a full-system build.
enum class SystemMode : std::uint8_t {
  /// §4.3 time scaling: emulated-processor-cycle timeline is the truth;
  /// the SMC's software slowness is hidden behind the configured hardware
  /// memory-controller scheduling latency.
  kTimeScaling,
  /// PiDRAM-style emulation: FPGA wall time is the truth; the processor
  /// experiences the SMC's software latency directly.
  kNoTimeScaling,
  /// The §6 validation reference: a hardware (RTL) memory controller at the
  /// target clock making the same scheduling decisions — no time-scaling
  /// machinery, no request-visibility quantization.
  kReference,
};

/// Owns the dual timeline of an EasyDRAM system: the FPGA wall clock and
/// the time-scaling counters (Fig. 5), and performs every mode-dependent
/// conversion in one place.
///
/// Wall-clock accounting feeds the simulation-speed study (Fig. 14) and is
/// the source of truth in kNoTimeScaling mode. The emulated timeline
/// (processor cycles) is the source of truth in kTimeScaling/kReference.
class TimeKeeper {
 public:
  /// `hardware_mc` models a fixed-function RTL memory controller: request
  /// servicing costs only the configured `mc_sched_latency` pipeline
  /// latency, never the software controller's cycle count (used by the
  /// Fig. 2 "FPGA + RTL memory controller" configuration).
  TimeKeeper(SystemMode mode, DomainConfig proc_domain, Frequency smc_core_clock,
             Cycles mc_sched_latency, bool hardware_mc = false)
      : mode_(mode),
        proc_scaler_(proc_domain),
        smc_core_clock_(smc_core_clock),
        mc_sched_latency_(mc_sched_latency),
        hardware_mc_(hardware_mc) {
    EASYDRAM_EXPECTS(smc_core_clock.hertz() > 0);
    EASYDRAM_EXPECTS(mc_sched_latency.count >= 0);
  }

  SystemMode mode() const { return mode_; }
  const Scaler& proc_scaler() const { return proc_scaler_; }
  Counters& counters() { return counters_; }
  const Counters& counters() const { return counters_; }
  Cycles mc_sched_latency() const { return mc_sched_latency_; }

  // --- FPGA wall clock -----------------------------------------------------

  Picoseconds wall() const { return wall_; }

  void advance_wall(Picoseconds d) {
    EASYDRAM_EXPECTS(d.count >= 0);
    wall_ += d;
  }

  /// Fig. 5's global counter: FPGA clock cycles since power-on. Derived
  /// from the wall clock on demand (the floor of wall() in FPGA cycles)
  /// rather than mirrored on every advance, which would cost a conversion
  /// per wall-clock step that nothing reads.
  Cycles global_cycles() const {
    return Cycles{proc_scaler_.config().fpga_clock.ps_to_cycles_floor(wall_)};
  }

  /// Advances the wall clock to `target` if it lies ahead (no-op otherwise).
  void advance_wall_to(Picoseconds target) {
    if (target > wall_) advance_wall(target - wall_);
  }

  /// Charges `core_cycles` of software-memory-controller execution against
  /// the wall clock only (background work: polling, critical-mode entry and
  /// exit — it overlaps processor execution in the modeled system).
  void account_smc_cycles(Cycles core_cycles) {
    EASYDRAM_EXPECTS(core_cycles.count >= 0);
    advance_wall(smc_core_clock_.cycles_to_ps(core_cycles));
  }

  /// Charges `core_cycles` of *request-servicing* SMC execution: under time
  /// scaling the controller program's cycle count is re-interpreted at the
  /// emulated system clock and advances the MC counter 1:1 (§4.3 — "the
  /// duration spent on scheduling a memory request is converted to the
  /// number of emulation cycles at the emulated system's clock frequency").
  /// This is exactly what makes the §6 reference system — the same
  /// controller in RTL at the target clock — report matching times.
  void account_mc_service_cycles(Cycles core_cycles) {
    EASYDRAM_EXPECTS(core_cycles.count >= 0);
    if (hardware_mc_) return;  // RTL controllers pipeline at clock speed.
    if (mode_ != SystemMode::kNoTimeScaling) counters_.advance_mc(core_cycles.count);
  }

  /// Charges processor execution of `proc_cycles` emulated cycles: the
  /// processor logic runs one emulated cycle per FPGA cycle of its domain.
  void account_proc_cycles(Cycles proc_cycles) {
    EASYDRAM_EXPECTS(proc_cycles.count >= 0);
    advance_wall(proc_scaler_.config().fpga_clock.cycles_to_ps(proc_cycles));
  }

  // --- Emulated timeline ---------------------------------------------------

  /// One hardware-MC-equivalent scheduling decision: time scaling charges
  /// the configured scheduling latency to the emulated MC domain.
  void account_schedule_decision() {
    if (mode_ != SystemMode::kNoTimeScaling) {
      counters_.advance_mc(mc_sched_latency_.count);
    }
  }

  /// DRAM Bender executed a batch occupying `elapsed` of real DRAM time.
  /// The wall clock always advances; under time scaling the MC counter
  /// additionally advances by the emulated-processor-cycle equivalent
  /// (Fig. 5 steps 4-5).
  void account_batch(Picoseconds elapsed) {
    EASYDRAM_EXPECTS(elapsed.count >= 0);
    advance_wall(elapsed);
    if (mode_ != SystemMode::kNoTimeScaling) {
      counters_.advance_mc(proc_scaler_.real_to_emulated_cycles(elapsed).count);
    }
  }

  /// Release tag for a response finalized now (Fig. 5 step 10): the
  /// processor may not consume the response before this cycle. Without
  /// time scaling that is the processor-cycle equivalent of the wall time:
  /// a 50 MHz FPGA processor simply counts its own cycles, the global
  /// counter's FPGA cycles.
  std::int64_t response_release_tag() const {
    if (mode_ == SystemMode::kNoTimeScaling) return global_cycles().count;
    return counters_.mc();
  }

  /// Emulated-system time "now" (drives refresh obligations).
  Picoseconds emulated_now() const {
    if (mode_ == SystemMode::kNoTimeScaling) return wall_;
    const std::int64_t cycles = counters_.mc() > counters_.proc() ? counters_.mc()
                                                                  : counters_.proc();
    return proc_scaler_.emulated_cycles_to_time(cycles);
  }

  /// Whether a request issued at `issue_proc_cycle` (tag) / `arrival_wall`
  /// is already visible to the SMC. Time scaling delays visibility until
  /// the MC emulation point has caught up (footnote 2 of the paper). The
  /// reference hardware controller obeys the same rule — a controller
  /// cannot see a request before its emulated issue time — so the two
  /// modes make identical scheduling decisions, which is what the §6
  /// validation demonstrates.
  bool request_visible(std::int64_t issue_proc_cycle, Picoseconds arrival_wall) const {
    switch (mode_) {
      case SystemMode::kTimeScaling:
      case SystemMode::kReference:
        return issue_proc_cycle <= counters_.mc() || !counters_.critical();
      case SystemMode::kNoTimeScaling:
        return arrival_wall <= wall_;
    }
    return true;
  }

  /// Lets the emulated MC point advance over an idle gap so that a "future"
  /// request becomes visible (no work exists before it).
  void skip_idle_until_proc_cycle(std::int64_t cycle) {
    if (mode_ == SystemMode::kNoTimeScaling) {
      const Picoseconds target = proc_scaler_.config().fpga_clock.cycles_to_ps(cycle);
      if (target > wall_) advance_wall(target - wall_);
    } else {
      if (cycle > counters_.mc()) counters_.advance_mc(cycle - counters_.mc());
    }
  }

 private:
  SystemMode mode_;
  Scaler proc_scaler_;
  Frequency smc_core_clock_;
  Cycles mc_sched_latency_;
  bool hardware_mc_;
  Counters counters_;
  Picoseconds wall_{};
};

}  // namespace easydram::timescale
