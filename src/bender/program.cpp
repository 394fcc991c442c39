#include "bender/program.hpp"

#include <cstring>

#include "common/contracts.hpp"

namespace easydram::bender {

void Program::push(const Instruction& inst) {
  EASYDRAM_EXPECTS(instructions_.size() < kCommandBufferCapacity);
  instructions_.push_back(inst);
}

void Program::ddr(dram::Command cmd, const dram::DramAddress& a, bool capture,
                  std::uint32_t wdata_index) {
  push({.op = Opcode::kDdr, .cmd = cmd, .addr = a, .wdata_index = wdata_index,
        .capture = capture});
}

void Program::ddr_exact(dram::Command cmd, const dram::DramAddress& a,
                        Picoseconds min_gap, bool capture,
                        std::uint32_t wdata_index) {
  EASYDRAM_EXPECTS(min_gap.count >= 0);
  push({.op = Opcode::kDdr, .cmd = cmd, .addr = a, .wdata_index = wdata_index,
        .capture = capture, .respect_nominal = false, .min_gap = min_gap});
}

void Program::sleep(std::uint64_t cycles) {
  if (cycles == 0) return;
  push({.op = Opcode::kSleep, .sleep = Cycles{static_cast<std::int64_t>(cycles)}});
}

void Program::sleep_at_least(Picoseconds duration, Picoseconds tck) {
  EASYDRAM_EXPECTS(tck.count > 0);
  if (duration.count <= 0) return;
  const std::int64_t cycles = (duration.count + tck.count - 1) / tck.count;
  sleep(static_cast<std::uint64_t>(cycles));
}

std::uint32_t Program::add_wdata(std::span<const std::uint8_t> data) {
  EASYDRAM_EXPECTS(data.size() == 64);
  std::array<std::uint8_t, 64> line{};
  std::memcpy(line.data(), data.data(), 64);
  wdata_.push_back(line);
  return static_cast<std::uint32_t>(wdata_.size() - 1);
}

void Program::clear() {
  instructions_.clear();
  wdata_.clear();
}

}  // namespace easydram::bender
