#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "bender/isa.hpp"
#include "common/units.hpp"
#include "dram/timing.hpp"
#include "dram/types.hpp"

namespace easydram::bender {

/// Capacity of the EasyTile command buffer in instructions. The software
/// memory controller accumulates at most this many instructions per batch
/// before it must call execute (flush_commands in EasyAPI terms).
inline constexpr std::size_t kCommandBufferCapacity = 16384;

/// A DRAM Bender program: flat instruction list plus the write-data table
/// referenced by WR instructions. Built by the software memory controller,
/// transferred into the command buffer, and executed by the interpreter.
/// Every append throws ContractViolation when the command buffer capacity
/// would be exceeded.
class Program {
 public:
  /// Appends a DDR command that waits for nominal timings (regular
  /// accesses).
  void ddr(dram::Command cmd, const dram::DramAddress& a, bool capture = false,
           std::uint32_t wdata_index = 0);

  /// Appends a DDR command issued exactly `min_gap` after the previous
  /// DDR command, ignoring nominal timings (DRAM techniques).
  void ddr_exact(dram::Command cmd, const dram::DramAddress& a,
                 Picoseconds min_gap, bool capture = false,
                 std::uint32_t wdata_index = 0);

  /// Appends SLEEP for `cycles` DRAM cycles (no-op when cycles == 0).
  void sleep(std::uint64_t cycles);

  /// Appends SLEEP long enough to cover `duration` at clock period `tck`.
  void sleep_at_least(Picoseconds duration, Picoseconds tck);

  /// Registers a 64-byte write payload; returns its wdata index.
  std::uint32_t add_wdata(std::span<const std::uint8_t> data);

  std::span<const Instruction> instructions() const { return instructions_; }
  std::span<const std::array<std::uint8_t, 64>> wdata() const { return wdata_; }
  std::size_t size() const { return instructions_.size(); }
  bool empty() const { return instructions_.empty(); }
  void clear();

 private:
  void push(const Instruction& inst);

  std::vector<Instruction> instructions_;
  std::vector<std::array<std::uint8_t, 64>> wdata_;
};

}  // namespace easydram::bender
