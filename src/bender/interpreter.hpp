#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "bender/program.hpp"
#include "common/units.hpp"
#include "dram/device.hpp"

namespace easydram::bender {

/// One captured readback line plus the reliability flag the device reported.
struct ReadbackEntry {
  std::array<std::uint8_t, 64> data{};
  bool reliable = true;
};

/// Outcome of executing one command batch.
struct ExecutionResult {
  /// Wall time the batch occupied on the DRAM interface. This is the value
  /// DRAM Bender reports back to the software memory controller and the
  /// quantity time scaling converts into emulated processor cycles.
  Picoseconds elapsed{};
  /// Captured read data, in program order (the readback buffer).
  std::vector<ReadbackEntry> readback;
  /// OR of all nominal-timing violations observed (diagnostics).
  std::uint32_t violations = 0;
  std::int64_t rowclone_attempts = 0;
  std::int64_t rowclone_successes = 0;
  std::int64_t commands_issued = 0;
};

/// Executes DRAM Bender programs against the DRAM device model.
///
/// The interpreter models the real engine's key property: once a batch
/// starts, commands and sleeps replay with cycle-exact spacing (one DDR
/// command slot per DRAM cycle), completely decoupled from the (slow)
/// software memory controller.
class Interpreter {
 public:
  explicit Interpreter(dram::DramDevice& device) : device_(&device) {}

  /// Runs `program` starting at device time `start` (which must be at or
  /// after the device's current time). Returns when the last instruction
  /// retires; `elapsed` covers start -> retirement of the final command
  /// slot, including trailing read-data latency of captured reads.
  /// `reuse` lends its storage to the result's readback buffer: it is
  /// cleared, then filled, so a caller that hands back the previous
  /// batch's buffer allocates nothing per batch.
  ExecutionResult execute(const Program& program, Picoseconds start,
                          std::vector<ReadbackEntry> reuse = {});

 private:
  dram::DramDevice* device_;
};

}  // namespace easydram::bender
