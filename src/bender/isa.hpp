#pragma once

#include <cstdint>

#include "common/units.hpp"
#include "dram/types.hpp"

namespace easydram::bender {

/// Opcodes of the modelled DRAM Bender ISA.
///
/// The real DRAM Bender executes programs in an FPGA pipeline that issues
/// one DDR command (or idles) per DRAM cycle; SLEEP provides cycle-exact
/// inter-command delays. The modelled subset is DDR + SLEEP, which is
/// everything EasyAPI emits (its `ddr_*` calls and `flush_commands` build
/// straight lists of timed commands): a program is a flat instruction list.
/// The real engine's counted loops and register file are not modelled.
enum class Opcode : std::uint8_t {
  kDdr,    ///< Issue a DDR command; occupies one DRAM cycle slot.
  kSleep,  ///< Idle for `sleep` DRAM cycles.
};

/// One DRAM Bender instruction.
struct Instruction {
  Opcode op = Opcode::kDdr;
  dram::Command cmd = dram::Command::kNop;  ///< kDdr only.
  dram::DramAddress addr{};                 ///< kDdr only.
  /// kDdr+kWrite: index into the program's write-data table.
  std::uint32_t wdata_index = 0;
  /// kDdr+kRead: capture returned data into the readback buffer.
  bool capture = false;
  /// kDdr: when true the engine delays the command until the device's
  /// nominal timings allow it (the common case for regular accesses — in
  /// the real platform the SMC computes these delays and encodes them as
  /// SLEEPs; folding the computation into the engine keeps batches compact).
  /// When false the command issues exactly at the cursor, which is how
  /// DRAM techniques violate timings on purpose.
  bool respect_nominal = true;
  /// kDdr: minimum gap from the previous DDR command's issue time. Exact
  /// placement for techniques (e.g. a reduced-tRCD read sets min_gap =
  /// tRCD_reduced after its ACT with respect_nominal=false).
  Picoseconds min_gap{};
  /// kSleep: idle length in DRAM cycles.
  Cycles sleep{};
};

}  // namespace easydram::bender
