#pragma once

#include <cstdint>

#include "common/contracts.hpp"
#include "common/units.hpp"

namespace easydram::tile {

/// Per-operation programmable-core cycle costs.
///
/// The software memory controller is an ordinary program on the tile's
/// scalar core (Rocket in the paper); every EasyAPI call costs tens of
/// instructions. These constants model those costs in core clock cycles.
/// They are the knobs that make the *No-Time-Scaling* configuration slow in
/// exactly the way the paper describes (hundreds of FPGA cycles per request)
/// while the Time-Scaling configuration hides them from the emulated system.
/// Default costs are calibrated against the paper's observable behaviour:
/// the No-Time-Scaling lmbench memory latency (Fig. 8) implies the
/// common-case SMC request loop completes in roughly 50-70 core cycles —
/// the Tile Control Logic offloads FIFO transfers and Bender hand-off, so
/// the software path is tens of instructions, not hundreds.
struct CoreCostModel {
  Cycles poll_iteration{4};        ///< One empty main-loop iteration.
  Cycles receive_request{4};       ///< FIFO -> scratchpad (TCL-assisted).
  Cycles address_map{3};           ///< Physical -> DRAM translation.
  Cycles schedule_scan_entry{2};   ///< FR-FCFS per-scanned-entry cost.
  Cycles command_push{2};          ///< Append one Bender instruction.
  Cycles batch_kickoff{10};        ///< Trigger DRAM Bender + sync.
  Cycles readback_line{4};         ///< Readback buffer -> scratchpad.
  Cycles enqueue_response{4};      ///< Scratchpad -> FIFO (TCL-assisted).
  Cycles timescale_update{4};      ///< Advance a time-scaling counter.
  Cycles bloom_check{12};          ///< Bloom filter lookup on row open.
  Cycles table_insert{2};          ///< Request-table bookkeeping.
};

/// Accumulates programmable-core cycles charged by EasyAPI calls and
/// converts them to wall time at the core's FPGA clock.
class CycleMeter {
 public:
  CycleMeter(CoreCostModel costs, Frequency core_clock)
      : costs_(costs), core_clock_(core_clock) {
    EASYDRAM_EXPECTS(core_clock.hertz() > 0);
  }

  const CoreCostModel& costs() const { return costs_; }
  Frequency core_clock() const { return core_clock_; }

  void charge(Cycles cycles) {
    EASYDRAM_EXPECTS(cycles.count >= 0);
    total_cycles_ += cycles;
  }

  /// Core cycles charged since construction.
  Cycles total_cycles() const { return total_cycles_; }

  /// Cycles charged but not yet taken by the system engine.
  Cycles pending() const { return total_cycles_ - taken_; }

  /// Returns the cycles accumulated since the previous take() and resets
  /// the running delta. The system engine calls this to advance wall time.
  Cycles take() {
    const Cycles delta = total_cycles_ - taken_;
    taken_ = total_cycles_;
    return delta;
  }

  Picoseconds to_wall(Cycles cycles) const {
    return core_clock_.cycles_to_ps(cycles);
  }

 private:
  CoreCostModel costs_;
  Frequency core_clock_;
  Cycles total_cycles_{0};
  Cycles taken_{0};
};

}  // namespace easydram::tile
