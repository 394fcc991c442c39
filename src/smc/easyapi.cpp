#include "smc/easyapi.hpp"

#include <algorithm>

#include "smc/ecc.hpp"
#include "smc/refresh_policy.hpp"

namespace easydram::smc {

EasyApi::EasyApi(tile::EasyTile& tile, dram::DramDevice& device,
                 const AddressMapper& mapper, timescale::TimeKeeper& keeper,
                 std::uint32_t channel)
    : tile_(&tile),
      device_(&device),
      mapper_(&mapper),
      keeper_(&keeper),
      channel_(channel),
      interpreter_(device),
      open_rows_(device.geometry().banks_per_channel(),
                 BankStateView::kClosed) {
  const std::uint32_t banks = device.geometry().num_banks();
  for (std::uint32_t rank = 0; rank < device.num_ranks(); ++rank) {
    for (std::uint32_t bank = 0; bank < banks; ++bank) {
      if (const auto row = device.open_row(bank, rank)) {
        open_rows_[flat(rank, bank)] = *row;
      }
    }
  }
}

void EasyApi::sync_meter() {
  keeper_->account_smc_cycles(tile_->meter().take());
}

void EasyApi::charge_service(Cycles core_cycles) {
  if (setup_mode_) return;
  tile_->meter().charge(core_cycles);
  keeper_->account_mc_service_cycles(core_cycles);
}

void EasyApi::charge_background(Cycles core_cycles) {
  if (setup_mode_) return;
  tile_->meter().charge(core_cycles);
}

bool EasyApi::req_empty() {
  charge_background(tile_->meter().costs().poll_iteration);
  sync_meter();
  auto& fifo = tile_->incoming();
  if (fifo.empty()) return true;
  const tile::Request& head = fifo.front();
  return !keeper_->request_visible(head.issue_proc_cycle, head.arrival_wall);
}

tile::Request EasyApi::receive_request() {
  // The MC cannot work on a request before it exists: snap the MC
  // emulation point to the arrival tag first, then charge the transfer
  // work on top. This keeps the time-scaled and reference systems
  // cycle-aligned regardless of how far the MC point lagged while idle.
  if (keeper_->mode() != timescale::SystemMode::kNoTimeScaling &&
      !tile_->incoming().empty()) {
    auto& counters = keeper_->counters();
    const std::int64_t tag = tile_->incoming().front().issue_proc_cycle;
    if (tag > counters.mc()) counters.advance_mc(tag - counters.mc());
  }
  charge_service(tile_->meter().costs().receive_request);
  sync_meter();
  ++stats_.requests_received;
  return tile_->incoming().pop();
}

void EasyApi::enqueue_response(tile::Response&& r) {
  charge_service(tile_->meter().costs().enqueue_response);
  sync_meter();
  r.release_proc_cycle = keeper_->response_release_tag();
  tile_->outgoing().push(std::move(r));
  ++stats_.responses_sent;
}

void EasyApi::set_scheduling_state(bool critical) {
  charge_background(tile_->meter().costs().timescale_update);
  auto& counters = keeper_->counters();
  if (critical && !counters.critical()) {
    counters.enter_critical();
  } else if (!critical && counters.critical()) {
    counters.exit_critical();
  }
}

void EasyApi::note_service_start(std::int64_t issue_proc_cycle) {
  charge_service(tile_->meter().costs().timescale_update);
  if (keeper_->mode() != timescale::SystemMode::kNoTimeScaling) {
    auto& counters = keeper_->counters();
    if (issue_proc_cycle > counters.mc()) {
      counters.advance_mc(issue_proc_cycle - counters.mc());
    }
  }
  keeper_->account_schedule_decision();
}

void EasyApi::set_open_row(std::uint32_t bank, std::uint32_t rank,
                           std::uint64_t row) {
  const std::uint32_t idx = flat(rank, bank);
  EASYDRAM_EXPECTS(bank < device_->geometry().num_banks() &&
                   idx < open_rows_.size());
  open_rows_[idx] = row;
  touched_.push_back({rank, bank});
}

void EasyApi::touch_rank(std::uint32_t rank) {
  for (std::uint32_t bank = 0; bank < device_->geometry().num_banks(); ++bank) {
    touched_.push_back({rank, bank});
  }
}

dram::DramAddress EasyApi::get_addr_mapping(std::uint64_t paddr) {
  charge_service(tile_->meter().costs().address_map);
  return mapper_->to_dram(paddr);
}

void EasyApi::ddr_activate(std::uint32_t bank, std::uint32_t row,
                           std::uint32_t rank) {
  charge_service(tile_->meter().costs().command_push);
  const dram::DramAddress a{bank, row, 0, channel_, rank};
  program_.ddr(dram::Command::kAct, a);
  set_open_row(bank, rank, row);
  if (act_sink_ != nullptr && !setup_mode_) act_sink_->on_act(a);
}

void EasyApi::ddr_precharge(std::uint32_t bank, std::uint32_t rank) {
  charge_service(tile_->meter().costs().command_push);
  program_.ddr(dram::Command::kPre, dram::DramAddress{bank, 0, 0, channel_, rank});
  set_open_row(bank, rank, BankStateView::kClosed);
}

void EasyApi::ddr_read(const dram::DramAddress& a, bool capture) {
  charge_service(tile_->meter().costs().command_push);
  program_.ddr(dram::Command::kRead, a, capture);
}

void EasyApi::ddr_write(const dram::DramAddress& a,
                        std::span<const std::uint8_t> data) {
  charge_service(tile_->meter().costs().command_push);
  const std::uint32_t idx = program_.add_wdata(data);
  program_.ddr(dram::Command::kWrite, a, false, idx);
}

void EasyApi::ddr_refresh(std::uint32_t rank) {
  charge_service(tile_->meter().costs().command_push);
  program_.ddr(dram::Command::kRef, dram::DramAddress{0, 0, 0, channel_, rank});
  touch_rank(rank);
  if (act_sink_ != nullptr) act_sink_->on_refresh(rank);
}

void EasyApi::ddr_exact(dram::Command cmd, const dram::DramAddress& a,
                        Picoseconds gap, bool capture) {
  charge_service(tile_->meter().costs().command_push);
  program_.ddr_exact(cmd, a, gap, capture);
  if (cmd == dram::Command::kAct) {
    set_open_row(a.bank, a.rank, a.row);
    if (act_sink_ != nullptr && !setup_mode_) act_sink_->on_act(a);
  }
  if (cmd == dram::Command::kPre) {
    set_open_row(a.bank, a.rank, BankStateView::kClosed);
  }
  if (cmd == dram::Command::kPreAll || cmd == dram::Command::kRef) {
    touch_rank(a.rank);
  }
}

void EasyApi::ddr_wait(Picoseconds duration) {
  charge_service(tile_->meter().costs().command_push);
  program_.sleep_at_least(duration, device_->timing().tCK);
}

dram::DramAddress EasyApi::remap_retired(const dram::DramAddress& a) const {
  if (error_policy_ == nullptr) return a;
  dram::DramAddress r = a;
  // PPR-style remap: a retired row's traffic lands on its spare. Modeled
  // at zero marginal cost, like the in-DRAM fuse remap it stands in for.
  r.row = error_policy_->retirement().remap(flat(a.rank, a.bank), a.row);
  return r;
}

void EasyApi::read_sequence(const dram::DramAddress& addr) {
  const dram::DramAddress a = remap_retired(addr);
  const auto open = open_row(a.bank, a.rank);
  if (!open || *open != a.row) {
    if (open) ddr_precharge(a.bank, a.rank);
    ddr_activate(a.bank, a.row, a.rank);
  }
  ddr_read(a, /*capture=*/true);
}

void EasyApi::read_sequence_reduced(const dram::DramAddress& addr,
                                    Picoseconds trcd) {
  const dram::DramAddress a = remap_retired(addr);
  const auto open = open_row(a.bank, a.rank);
  if (open && *open == a.row) {
    // Row already open: tRCD does not apply; a plain read suffices.
    ddr_read(a, /*capture=*/true);
    return;
  }
  if (open) ddr_precharge(a.bank, a.rank);
  ddr_activate(a.bank, a.row, a.rank);
  // The read issues exactly `trcd` after the ACT, violating the nominal
  // parameter on purpose.
  charge_service(tile_->meter().costs().command_push);
  program_.ddr_exact(dram::Command::kRead, a, trcd, /*capture=*/true);
}

void EasyApi::write_sequence(const dram::DramAddress& addr,
                             std::span<const std::uint8_t> data) {
  const dram::DramAddress a = remap_retired(addr);
  const auto open = open_row(a.bank, a.rank);
  if (!open || *open != a.row) {
    if (open) ddr_precharge(a.bank, a.rank);
    ddr_activate(a.bank, a.row, a.rank);
  }
  ddr_write(a, data);
}

void EasyApi::rowclone(std::uint32_t bank, std::uint32_t src_row,
                       std::uint32_t dst_row, std::uint32_t rank) {
  close_row(bank, rank);
  const Picoseconds two_tck = device_->timing().tCK * 2;
  ddr_activate(bank, src_row, rank);
  // Early precharge and immediate re-activation: the FPM RowClone pattern.
  ddr_exact(dram::Command::kPre, dram::DramAddress{bank, 0, 0, channel_, rank},
            two_tck);
  ddr_exact(dram::Command::kAct,
            dram::DramAddress{bank, dst_row, 0, channel_, rank}, two_tck);
  // Let the destination row fully restore, then close the bank.
  ddr_wait(device_->timing().tRAS);
  ddr_precharge(bank, rank);
}

void EasyApi::close_row(std::uint32_t bank, std::uint32_t rank) {
  if (open_row(bank, rank)) ddr_precharge(bank, rank);
}

bender::ExecutionResult EasyApi::flush_commands(bool charge) {
  if (setup_mode_) charge = false;
  charge_service(tile_->meter().costs().batch_kickoff);
  if (charge) {
    sync_meter();
  } else {
    // Setup-phase batches (characterization, pair verification, catch-up
    // refreshes) discard their core-cycle cost so it cannot leak into a
    // later charged sync.
    tile_->meter().take();
  }
  // Fault manifestation is keyed to absolute emulated time, which the
  // device's command timeline does not track (it lags on sparse traffic).
  device_->set_fault_clock(keeper_->emulated_now());
  bender::ExecutionResult result =
      interpreter_.execute(program_, device_->now(), std::move(readback_));
  ++stats_.batches_executed;
  stats_.commands_executed += result.commands_issued;
  stats_.rowclone_attempts += result.rowclone_attempts;
  stats_.rowclone_successes += result.rowclone_successes;
  stats_.violations_seen |= result.violations;
  if (charge) {
    keeper_->account_batch(result.elapsed);
    stats_.dram_busy += result.elapsed;
    charge_service(tile_->meter().costs().readback_line *
                   static_cast<std::int64_t>(result.readback.size()));
  }
  // Steal the readback buffer (no caller reads it off the returned
  // ExecutionResult; they consume lines through rdback_cacheline()).
  readback_ = std::move(result.readback);
  rdback_cursor_ = 0;
  program_.clear();
  // Commands queued in the batch have now run: fold the device's state
  // back in, for the banks the batch touched only.
  for (const TouchedBank& t : touched_) {
    const auto row = device_->open_row(t.bank, t.rank);
    open_rows_[flat(t.rank, t.bank)] = row ? *row : BankStateView::kClosed;
  }
  touched_.clear();
  return result;
}

bender::ReadbackEntry EasyApi::rdback_cacheline() {
  EASYDRAM_EXPECTS(!rdback_empty());
  return readback_[rdback_cursor_++];
}

void EasyApi::refresh_rank_if_due(std::uint32_t rank) {
  const dram::TimingParams& t = device_->timing();
  // Converge: charged refreshes advance the emulated timeline, which can
  // make one more refresh due; tRFC << tREFI guarantees termination
  // (skipped slots advance the slot count without advancing time, so they
  // strictly approach `due` too).
  for (int guard = 0; guard < 1'000'000; ++guard) {
    const Picoseconds now = keeper_->emulated_now();
    const std::int64_t due = device_->refreshes_due(now);
    const std::int64_t slot = device_->refresh_slots(rank);
    if (slot >= due) return;
    if (refresh_policy_ != nullptr && !refresh_policy_->should_issue(rank, slot)) {
      // Skipped slot: the round-robin position advances, nothing issues,
      // and no timeline is charged — the command-slot/energy saving the
      // RAIDR scenarios measure. The policy decision itself is treated as
      // free, like the hardware refresh counter it replaces.
      device_->skip_refresh(rank);
      ++stats_.refreshes_skipped;
      // Window-tracking observers (Graphene) still need the slot's tREFI
      // of retention-window time even though no REF issued.
      if (act_sink_ != nullptr) act_sink_->on_refresh_skipped(rank);
      // Patrol scrub rides the slot whether or not the REF issued — a
      // skipped stripe is exactly where a misbinned row decays, so scrub
      // coverage must compose with RAIDR's skipping.
      scrub_slot(rank, slot, now);
      continue;
    }
    const bool last = slot + 1 == due;
    // Only a refresh whose tRFC window overlaps "now" can delay current
    // requests; earlier catch-up refreshes overlapped compute phases and
    // run in setup mode (uncharged).
    const bool in_flight = last && (now.count % t.tREFI.count) < t.tRFC.count;
    EASYDRAM_EXPECTS(program_.empty());
    const bool was_setup = setup_mode_;
    if (!in_flight) setup_mode_ = true;
    for (std::uint32_t bank = 0; bank < device_->geometry().num_banks(); ++bank) {
      close_row(bank, rank);
    }
    ddr_refresh(rank);
    flush_commands(/*charge=*/in_flight);
    setup_mode_ = was_setup;
    ++stats_.refreshes_issued;
    scrub_slot(rank, slot, now);
  }
  EASYDRAM_EXPECTS(!"refresh catch-up failed to converge");
}

void EasyApi::scrub_slot(std::uint32_t rank, std::int64_t slot, Picoseconds now) {
  if (error_policy_ == nullptr) return;
  const std::int64_t before = stats_.scrub_reads;
  error_policy_->scrub_on_slot(rank, slot, now, *device_, stats_);
  const std::int64_t scrubbed = stats_.scrub_reads - before;
  if (scrubbed > 0) {
    // Scrub reads ride idle refresh-adjacent cycles: programmable-core
    // time only, never demand-request latency.
    charge_background(tile_->meter().costs().poll_iteration * scrubbed);
  }
}

void EasyApi::refresh_if_due() {
  for (std::uint32_t rank = 0; rank < device_->num_ranks(); ++rank) {
    refresh_rank_if_due(rank);
  }
}

}  // namespace easydram::smc
