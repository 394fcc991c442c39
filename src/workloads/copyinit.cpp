#include "workloads/copyinit.hpp"

#include "common/contracts.hpp"

namespace easydram::workloads {

CopyInitTrace::CopyInitTrace(CopyInitParams params, const smc::AddressMapper& mapper,
                             std::vector<smc::CopyPlanEntry> copy_plan,
                             std::vector<smc::InitPlanEntry> init_plan)
    : params_(params),
      mapper_(&mapper),
      copy_plan_(std::move(copy_plan)),
      init_plan_(std::move(init_plan)) {
  if (params_.kind == CopyInitParams::Kind::kCopy) {
    EASYDRAM_EXPECTS(!copy_plan_.empty());
  } else {
    EASYDRAM_EXPECTS(!init_plan_.empty());
  }
}

std::size_t CopyInitTrace::rows() const {
  return params_.kind == CopyInitParams::Kind::kCopy ? copy_plan_.size()
                                                     : init_plan_.size();
}

std::uint64_t CopyInitTrace::row_base(const smc::RowRef& r) const {
  return mapper_->to_physical(dram::DramAddress{r.bank, r.row, 0});
}

std::uint64_t CopyInitTrace::src_line(std::size_t row_index, std::uint32_t col) const {
  EASYDRAM_EXPECTS(params_.kind == CopyInitParams::Kind::kCopy);
  const smc::RowRef& r = copy_plan_[row_index].src;
  return mapper_->to_physical(dram::DramAddress{r.bank, r.row, col});
}

std::uint64_t CopyInitTrace::dst_line(std::size_t row_index, std::uint32_t col) const {
  const smc::RowRef& r = params_.kind == CopyInitParams::Kind::kCopy
                             ? copy_plan_[row_index].dst
                             : init_plan_[row_index].dst;
  return mapper_->to_physical(dram::DramAddress{r.bank, r.row, col});
}

void CopyInitTrace::enqueue_warm() {
  const std::uint32_t cols = mapper_->geometry().cols_per_row();
  if (params_.clflush) {
    // Dirty the array the measured operation must later flush: the source
    // array for Copy, the destination array for Init.
    for (std::size_t i = 0; i < rows(); ++i) {
      for (std::uint32_t c = 0; c < cols; ++c) {
        const std::uint64_t addr = params_.kind == CopyInitParams::Kind::kCopy
                                       ? src_line(i, c)
                                       : dst_line(i, c);
        pending_.emplace_back(cpu::Op::kStore, addr, params_.line_gap);
      }
    }
    pending_.emplace_back(cpu::Op::kDrain, 0);
  }
  pending_.emplace_back(cpu::Op::kMarker, 0);
  phase_ = Phase::kRow;
  row_index_ = 0;
}

void CopyInitTrace::enqueue_cpu_row(std::size_t row_index) {
  const std::uint32_t cols = mapper_->geometry().cols_per_row();
  for (std::uint32_t c = 0; c < cols; ++c) {
    if (params_.kind == CopyInitParams::Kind::kCopy) {
      // Each copied line's store consumes the loaded value: the load is on
      // the critical path (memcpy's load->store dependence).
      pending_.emplace_back(cpu::Op::kLoadDependent, src_line(row_index, c),
                            params_.line_gap);
    }
    // memset destinations are constant full-line streams (DC-ZVA-style
    // write streaming on cores that support it); memcpy destinations carry
    // loaded data and use the regular store path.
    if (params_.kind == CopyInitParams::Kind::kCopy) {
      pending_.emplace_back(cpu::Op::kStore, dst_line(row_index, c),
                            params_.line_gap);
    } else {
      pending_.emplace_back(cpu::Op::kStoreStream, dst_line(row_index, c),
                            params_.init_line_gap);
    }
  }
}

void CopyInitTrace::enqueue_row(std::size_t row_index) {
  const std::uint32_t cols = mapper_->geometry().cols_per_row();
  if (!params_.use_rowclone) {
    enqueue_cpu_row(row_index);
    return;
  }

  const bool planned = params_.kind == CopyInitParams::Kind::kCopy
                           ? copy_plan_[row_index].use_rowclone
                           : init_plan_[row_index].use_rowclone;

  if (params_.clflush) {
    // Coherence (§7.1): write back dirty source lines and invalidate the
    // destination's cached lines before operating in DRAM.
    if (params_.kind == CopyInitParams::Kind::kCopy) {
      for (std::uint32_t c = 0; c < cols; ++c) {
        pending_.emplace_back(cpu::Op::kFlush, src_line(row_index, c), 1);
      }
    }
    for (std::uint32_t c = 0; c < cols; ++c) {
      pending_.emplace_back(cpu::Op::kFlush, dst_line(row_index, c), 1);
    }
    pending_.emplace_back(cpu::Op::kDrain, 0);
  }

  if (!planned) {
    // The allocator could not verify this pair: fall back immediately.
    enqueue_cpu_row(row_index);
    return;
  }

  const std::uint64_t src = params_.kind == CopyInitParams::Kind::kCopy
                                ? row_base(copy_plan_[row_index].src)
                                : row_base(init_plan_[row_index].pattern_src);
  const std::uint64_t dst = params_.kind == CopyInitParams::Kind::kCopy
                                ? row_base(copy_plan_[row_index].dst)
                                : row_base(init_plan_[row_index].dst);
  // The pair ends the span, so the feedback check in pull() runs on the
  // pull after it.
  for (const cpu::TraceRecord& r : cpu::rowclone_pair(src, dst, 2)) {
    pending_.push_back(r);
  }
  awaiting_feedback_ = true;
}

void CopyInitTrace::enqueue_final() {
  pending_.emplace_back(cpu::Op::kMarker, 0);
  phase_ = Phase::kDone;
}

std::span<const cpu::TraceRecord> CopyInitTrace::pull(bool last_rowclone_ok) {
  pending_.clear();
  if (awaiting_feedback_) {
    awaiting_feedback_ = false;
    if (!last_rowclone_ok) {
      // Runtime RowClone failure: redo this row with CPU loads/stores.
      enqueue_cpu_row(row_index_);
    }
    ++row_index_;
  }

  while (pending_.empty()) {
    switch (phase_) {
      case Phase::kWarm:
        enqueue_warm();
        break;
      case Phase::kRow:
        if (row_index_ >= rows()) {
          phase_ = Phase::kFinal;
          break;
        }
        enqueue_row(row_index_);
        if (!awaiting_feedback_) ++row_index_;
        break;
      case Phase::kFinal:
        enqueue_final();
        break;
      case Phase::kDone:
        return {};
    }
  }
  return pending_;
}

}  // namespace easydram::workloads
