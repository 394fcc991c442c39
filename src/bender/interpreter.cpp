#include "bender/interpreter.hpp"

#include <algorithm>
#include <utility>

#include "common/contracts.hpp"

namespace easydram::bender {

namespace {

struct LoopFrame {
  std::size_t body_start = 0;
  std::uint64_t remaining = 0;
};

std::uint32_t resolve(const Operand& op,
                      const std::array<std::uint64_t, kNumRegisters>& regs) {
  if (!op.from_register) return op.value;
  EASYDRAM_EXPECTS(op.value < kNumRegisters);
  return static_cast<std::uint32_t>(regs[op.value]);
}

/// Finds the instruction index just past the loop end matching the
/// kLoopBegin at `begin_idx` (used to skip zero-trip loops).
std::size_t skip_loop(std::span<const Instruction> insts, std::size_t begin_idx) {
  int depth = 0;
  for (std::size_t i = begin_idx; i < insts.size(); ++i) {
    if (insts[i].op == Opcode::kLoopBegin) ++depth;
    if (insts[i].op == Opcode::kLoopEnd) {
      --depth;
      if (depth == 0) return i + 1;
    }
  }
  EASYDRAM_EXPECTS(!"unterminated loop in bender program");
  return insts.size();
}

}  // namespace

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
  std::array<std::uint64_t, kNumRegisters> regs{};
  std::vector<LoopFrame> loops;
  const auto insts = program.instructions();

  std::size_t pc = 0;
  while (pc < insts.size()) {
    const Instruction& inst = insts[pc];
    switch (inst.op) {
      case Opcode::kEnd:
        pc = insts.size();
        break;

      case Opcode::kDdr: {
        dram::DramAddress addr{resolve(inst.bank, regs), resolve(inst.row, regs),
                               resolve(inst.col, regs)};
        addr.rank = resolve(inst.rank, regs);
        std::span<const std::uint8_t> wdata;
        if (inst.cmd == dram::Command::kWrite) {
          EASYDRAM_EXPECTS(inst.wdata_index < program.wdata().size());
          wdata = program.wdata()[inst.wdata_index];
        }
        // Command placement: exact commands issue min_gap after the previous
        // command; nominal commands are additionally delayed until the
        // device's timing parameters allow them.
        Picoseconds issue_at = std::max(t, last_cmd_issue + inst.min_gap);
        if (inst.respect_nominal) {
          issue_at = std::max(issue_at, device_->earliest_legal(inst.cmd, addr));
        }
        t = issue_at;
        const dram::IssueResult ir = device_->issue(inst.cmd, addr, t, wdata);
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
            // One allocation for a typical row-batch worth of lines
            // instead of doubling up from 1 (write-only batches still
            // allocate nothing).
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
        ++pc;
        break;
      }

      case Opcode::kSleep:
        t += Picoseconds{static_cast<std::int64_t>(inst.imm) * tck.count};
        ++pc;
        break;

      case Opcode::kSetReg:
        EASYDRAM_EXPECTS(inst.reg < kNumRegisters);
        regs[inst.reg] = inst.imm;
        t += tck;
        ++pc;
        break;

      case Opcode::kAddReg:
        EASYDRAM_EXPECTS(inst.reg < kNumRegisters);
        regs[inst.reg] += inst.imm;
        t += tck;
        ++pc;
        break;

      case Opcode::kLoopBegin:
        if (inst.imm == 0) {
          pc = skip_loop(insts, pc);
        } else {
          loops.push_back(LoopFrame{pc + 1, inst.imm});
          ++pc;
        }
        break;

      case Opcode::kLoopEnd:
        EASYDRAM_EXPECTS(!loops.empty());
        if (--loops.back().remaining > 0) {
          pc = loops.back().body_start;
        } else {
          loops.pop_back();
          ++pc;
        }
        break;
    }
  }

  result.elapsed = std::max(t, last_data_end) - batch_start;
  return result;
}

}  // namespace easydram::bender
