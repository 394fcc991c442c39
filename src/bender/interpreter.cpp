#include "bender/interpreter.hpp"

#include <algorithm>
#include <utility>

#include "common/contracts.hpp"

namespace easydram::bender {

ExecutionResult Interpreter::execute(const Program& program, Picoseconds start,
                                     std::vector<ReadbackEntry> reuse) {
  const Picoseconds tck = device_->timing().tCK;
  Picoseconds t = std::max(start, device_->now());
  const Picoseconds batch_start = t;
  Picoseconds last_data_end = t;
  Picoseconds last_cmd_issue = t - tck;  // So a first-command min_gap of tCK holds.

  ExecutionResult result;
  result.readback = std::move(reuse);
  result.readback.clear();
  for (const Instruction& inst : program.instructions()) {
    if (inst.op == Opcode::kSleep) {
      t += tck * inst.sleep.count;
      continue;
    }
    std::span<const std::uint8_t> wdata;
    if (inst.cmd == dram::Command::kWrite) {
      EASYDRAM_EXPECTS(inst.wdata_index < program.wdata().size());
      wdata = program.wdata()[inst.wdata_index];
    }
    // Command placement: exact commands issue min_gap after the previous
    // command, on the device's checked path (their violations are the
    // point); nominal commands are additionally delayed until the device's
    // timing parameters allow them, which the nominal path does in the
    // same call that issues them.
    const Picoseconds cursor = std::max(t, last_cmd_issue + inst.min_gap);
    const dram::IssueResult ir =
        inst.respect_nominal
            ? device_->issue_nominal(inst.cmd, inst.addr, cursor, wdata)
            : device_->issue(inst.cmd, inst.addr, cursor, wdata);
    t = ir.at;
    last_cmd_issue = t;
    result.violations |= ir.violations;
    if (ir.rowclone_attempted) {
      ++result.rowclone_attempts;
      if (ir.rowclone_success) ++result.rowclone_successes;
    }
    if (inst.cmd == dram::Command::kRead) {
      last_data_end = std::max(last_data_end,
                               t + device_->timing().read_data_latency());
      if (inst.capture) {
        // One allocation for a typical row-batch worth of lines instead of
        // doubling up from 1 (write-only batches still allocate nothing).
        if (result.readback.capacity() == 0) result.readback.reserve(16);
        result.readback.push_back(ReadbackEntry{ir.data, ir.data_reliable});
      }
    }
    if (inst.cmd == dram::Command::kWrite) {
      last_data_end = std::max(last_data_end,
                               t + device_->timing().write_data_latency());
    }
    if (inst.cmd == dram::Command::kRef) {
      last_data_end = std::max(last_data_end, t + device_->timing().tRFC);
    }
    ++result.commands_issued;
    t += tck;
  }

  result.elapsed = std::max(t, last_data_end) - batch_start;
  return result;
}

}  // namespace easydram::bender
