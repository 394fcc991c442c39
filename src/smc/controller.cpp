#include "smc/controller.hpp"

#include <algorithm>
#include <cstring>

#include "common/rng.hpp"
#include "smc/ecc.hpp"

namespace easydram::smc {

namespace {

/// Deterministic data pattern for profiling requests: a line-unique pattern
/// so any corrupted bit is detected by comparison.
std::array<std::uint8_t, 64> profile_pattern(std::uint64_t paddr) {
  std::array<std::uint8_t, 64> p{};
  SplitMix64 sm(paddr ^ 0x0F11E5ULL);
  for (auto& b : p) b = static_cast<std::uint8_t>(sm.next());
  return p;
}

}  // namespace

MemoryController::MemoryController(ControllerOptions options)
    : options_(std::move(options)), table_(options_.request_table_capacity) {
  if (!options_.scheduler) options_.scheduler = std::make_unique<FrfcfsScheduler>();
}

bool MemoryController::step(EasyApi& api) {
  bool worked = false;

  // (i) Transfer newly visible requests from the hardware FIFO into the
  // software request table (Fig. 6 steps 4-5).
  while (!api.req_empty() && !table_.full()) {
    if (!api.keeper().counters().critical()) api.set_scheduling_state(true);
    // Built in place from the FIFO's head; the table stamps arrival_seq.
    TableEntry entry{api.receive_request(), {}, 0};
    entry.dram_addr = api.get_addr_mapping(entry.request.paddr);
    api.charge(api.tile().meter().costs().table_insert);
    streams_.note_arrival(entry.request.stream_id);
    table_.insert(std::move(entry));
    worked = true;
  }

  if (table_.empty()) {
    if (api.keeper().counters().critical()) api.set_scheduling_state(false);
    return worked;
  }

  // (ii) Make a scheduling decision against the api's open-row array (one
  // inline load per scanned entry).
  std::size_t scanned = 0;
  const BankStateView banks = api.bank_view();
  const PickContext ctx{table_, banks, &streams_};
  const auto pick = options_.scheduler->pick(ctx, scanned);
  api.charge(api.tile().meter().costs().schedule_scan_entry *
             static_cast<std::int64_t>(scanned));
  EASYDRAM_ENSURES(pick.has_value());

  // Scheduler counters are host-side bookkeeping only (no timeline charge):
  // the modeled cost of the decision is already the scan charge above. The
  // hit/conflict verdict is taken against the bank state the policy saw,
  // before serving mutates it.
  ApiStats& stats = api.stats_mutable();
  ++stats.sched_picks;
  stats.sched_entries_scanned += scanned;
  {
    const dram::DramAddress& a = table_.at(*pick).dram_addr;
    const auto open = banks.open_row(a);
    if (open.has_value()) {
      if (*open == a.row) {
        ++stats.sched_row_hits;
      } else {
        ++stats.sched_row_conflicts;
      }
    }
  }

  TableEntry entry = table_.remove(*pick);
  api.note_service_start(entry.request.issue_proc_cycle);
  api.refresh_if_due();
  serve(api, std::move(entry));
  flush_mitigation(api);
  return true;
}

void MemoryController::on_act(const dram::DramAddress& a) {
  if (options_.mitigator == nullptr || injecting_mitigation_) return;
  options_.mitigator->on_activate(a, pending_victims_);
}

void MemoryController::on_refresh(std::uint32_t rank) {
  if (options_.mitigator != nullptr) options_.mitigator->on_refresh(rank);
}

void MemoryController::on_refresh_skipped(std::uint32_t rank) {
  if (options_.mitigator != nullptr) {
    options_.mitigator->on_refresh_skipped(rank);
  }
}

void MemoryController::flush_mitigation(EasyApi& api) {
  if (pending_victims_.empty()) return;
  injecting_mitigation_ = true;
  // Targeted neighbor refresh: open the victim row long enough for a full
  // restore, then close it. Built and charged like any other batch — the
  // program construction and DRAM occupancy ARE the mitigation overhead.
  for (const dram::DramAddress& v : pending_victims_) {
    api.close_row(v.bank, v.rank);
    api.ddr_activate(v.bank, v.row, v.rank);
    api.ddr_wait(api.timing().tRAS);
    api.ddr_precharge(v.bank, v.rank);
  }
  api.flush_commands();
  pending_victims_.clear();
  injecting_mitigation_ = false;
}

void MemoryController::serve(EasyApi& api, TableEntry&& entry) {
  switch (entry.request.kind) {
    case tile::RequestKind::kRead:
    case tile::RequestKind::kWrite:
      serve_column_batch(api, std::move(entry));
      break;
    case tile::RequestKind::kRowClone:
      serve_rowclone(api, entry);
      break;
    case tile::RequestKind::kProfileTrcd:
      serve_profile(api, entry);
      break;
  }
}

Picoseconds MemoryController::trcd_for(const dram::DramAddress& a,
                                       const EasyApi& api) const {
  if (options_.weak_rows == nullptr) return api.timing().tRCD;
  if (options_.weak_rows->maybe_contains(dram::row_key(a))) return api.timing().tRCD;
  return options_.reduced_trcd;
}

void MemoryController::serve_column_batch(EasyApi& api, TableEntry&& first) {
  const dram::DramAddress target = first.dram_addr;

  // Drain further column requests to the same row into this batch: the
  // row opens once and the remaining accesses are back-to-back column
  // commands — write streaming / row-hit read draining. One pass over the
  // arrival-ordered records, removing matches in place, oldest first, until
  // the batch holds row_batch_limit requests. Each match costs one scan
  // charge.
  std::vector<TableEntry>& batch = batch_scratch_;
  batch.clear();
  batch.push_back(std::move(first));
  const std::uint64_t key = dram::row_key(target);
  table_.remove_if(
      [key](const TableRecord& r) { return r.column_op && r.row_key == key; },
      std::max<std::size_t>(options_.row_batch_limit, 1) - 1,
      [&](TableEntry&& e) {
        api.charge(api.tile().meter().costs().schedule_scan_entry);
        batch.push_back(std::move(e));
      });

  // Open the row once, choosing the tRCD per the weak-row filter. The
  // lookup overlaps the previous batch's execution on the Bender engine.
  if (options_.weak_rows != nullptr) {
    api.charge_overlapped(api.tile().meter().costs().bloom_check);
  }
  ErrorPolicy* const ep = api.error_policy();
  const bool ecc_on = ep != nullptr && ep->config().enabled;

  const Picoseconds trcd = trcd_for(target, api);
  overwritten_scratch_.clear();
  for (std::size_t pos = 0; pos < batch.size(); ++pos) {
    const TableEntry& e = batch[pos];
    if (e.request.kind == tile::RequestKind::kRead) {
      if (pos == 0 && trcd < api.timing().tRCD) {
        api.read_sequence_reduced(e.dram_addr, trcd);
      } else {
        api.read_sequence(e.dram_addr);
      }
    } else {
      api.write_sequence(e.dram_addr, e.request.wdata);
      if (ecc_on) {
        // ECC encode on the write path: the check bits are keyed by the
        // physical (post-retirement-remap) location the data lands on.
        const dram::DramAddress& a = e.dram_addr;
        const std::uint32_t fbank = api.geometry().flat_bank(a.rank, a.bank);
        const std::uint32_t prow = ep->retirement().remap(fbank, a.row);
        api.charge(api.tile().meter().costs().command_push);
        note_overwritten_reads(api, *ep, pos, prow);
        ep->note_write(fbank, prow, a.col, e.request.wdata);
      }
    }
  }
  api.flush_commands();

  // Capture this batch's readbacks before the error pipeline runs: a retry
  // is a fresh flush_commands, which invalidates the readback buffer.
  rdback_scratch_.clear();
  for (const TableEntry& e : batch) {
    if (e.request.kind != tile::RequestKind::kRead) continue;
    EASYDRAM_ENSURES(!api.rdback_empty());
    rdback_scratch_.push_back(api.rdback_cacheline());
  }

  // Responses: data for reads (in batch order), acks for writes — posted
  // from the processor's perspective, but the ack lets drains/barriers
  // (and the system engine) observe completion.
  std::size_t rd = 0;
  for (std::size_t pos = 0; pos < batch.size(); ++pos) {
    const TableEntry& e = batch[pos];
    streams_.note_service(e.request.stream_id);
    tile::Response resp;
    resp.id = e.request.id;
    resp.stream_id = e.request.stream_id;
    if (e.request.kind == tile::RequestKind::kRead) {
      bender::ReadbackEntry& rb = rdback_scratch_[rd++];
      if (ecc_on) {
        const OverwrittenRead* seen = nullptr;
        for (const OverwrittenRead& o : overwritten_scratch_) {
          if (o.batch_pos == pos) seen = &o;
        }
        resp.error = serve_read_ecc(api, *ep, e.dram_addr, rb, seen);
        resp.ok = resp.error == RequestError::kNone;
      }
      resp.has_data = true;
      resp.data = rb.data;
      resp.data_reliable = rb.reliable;
    }
    api.enqueue_response(std::move(resp));
  }
}

void MemoryController::note_overwritten_reads(EasyApi& api,
                                              const ErrorPolicy& ep,
                                              std::size_t pos,
                                              std::uint32_t prow) {
  // Walk back to the previous write of the line: the reads in between see
  // that write's cells, or the cells from before the batch if there is
  // none. Earlier reads were recorded by that write already.
  const std::vector<TableEntry>& batch = batch_scratch_;
  const std::uint32_t col = batch[pos].dram_addr.col;
  const std::size_t first = overwritten_scratch_.size();
  const TableEntry* prev_write = nullptr;
  for (std::size_t i = pos; i-- > 0;) {
    const TableEntry& e = batch[i];
    if (e.dram_addr.col != col) continue;
    if (e.request.kind != tile::RequestKind::kRead) {
      prev_write = &e;
      break;
    }
    overwritten_scratch_.emplace_back().batch_pos = i;
  }
  if (overwritten_scratch_.size() == first) return;

  // No command of the batch has run yet, so the check bits stored now are
  // those of the previous write, and the device still holds the cells
  // from before the batch.
  dram::DramAddress pa = batch[pos].dram_addr;
  pa.row = prow;
  const std::uint32_t fbank = api.geometry().flat_bank(pa.rank, pa.bank);
  const ErrorPolicy::LineChecks checks = ep.line_checks(fbank, prow, col);
  std::array<std::uint8_t, 64> cells{};
  if (api.device_for_setup().fault_model() != nullptr) {
    if (prev_write != nullptr) {
      std::memcpy(cells.data(), prev_write->request.wdata.data(), 64);
    } else {
      api.device_for_setup().backdoor_read(pa, cells);
    }
  }
  for (std::size_t i = first; i < overwritten_scratch_.size(); ++i) {
    overwritten_scratch_[i].checks = checks;
    overwritten_scratch_[i].cells = cells;
  }
}

RequestError MemoryController::serve_read_ecc(EasyApi& api, ErrorPolicy& ep,
                                              const dram::DramAddress& addr,
                                              bender::ReadbackEntry& rb,
                                              const OverwrittenRead* seen) {
  ApiStats& stats = api.stats_mutable();
  const std::uint32_t fbank = api.geometry().flat_bank(addr.rank, addr.bank);

  // CE bookkeeping: count the correction and retire the row once its CE
  // total crosses the threshold (predictive retirement — get the data out
  // before the row degrades into a UE).
  const auto on_corrected = [&](std::uint32_t prow) {
    ++stats.ecc_corrected;
    if (ep.note_ce(fbank, prow)) {
      if (ep.retire_row(addr.rank, addr.bank, prow, api.device_for_setup())) {
        ++stats.rows_retired;
      }
    }
  };

  // The decode itself: one charge per line, against the physical
  // (post-remap) location the check bits are keyed by, or against the
  // check bits an overwritten read saw.
  const auto decode = [&]() {
    api.charge(api.tile().meter().costs().command_push);
    const std::uint32_t prow = ep.retirement().remap(fbank, addr.row);
    const EccStatus st = seen != nullptr
                             ? ErrorPolicy::decode_line(seen->checks, rb.data)
                             : ep.decode_line(fbank, prow, addr.col, rb.data);
    if (st == EccStatus::kCorrected) on_corrected(prow);
    return st;
  };

  EccStatus st = decode();

  // Bounded re-read: a UE may be a transient upset (clean on retry); an
  // unreliable read means the reduced-tRCD gamble lost and the nominal
  // retry fetches trustworthy data. Retries run at nominal timing.
  for (std::uint32_t attempt = 0;
       (st == EccStatus::kUncorrectable || !rb.reliable) &&
       attempt < ep.config().max_retries;
       ++attempt) {
    ++stats.retries_issued;
    api.read_sequence(addr);
    api.flush_commands();
    EASYDRAM_ENSURES(!api.rdback_empty());
    rb = api.rdback_cacheline();
    // The re-read runs after the whole batch: it returns the line's
    // latest cells, which the stored check bits cover.
    seen = nullptr;
    st = decode();
  }

  if (st == EccStatus::kUncorrectable || !rb.reliable) {
    // Hard fault: the stored data is gone. Retire the row so future
    // traffic lands on a spare (budget permitting) and fail THIS request
    // with a typed error — graceful degradation, never a silent wrong
    // answer.
    ++stats.ecc_uncorrectable;
    const std::uint32_t prow = ep.retirement().remap(fbank, addr.row);
    if (!ep.retirement().budget_exhausted(fbank)) {
      if (ep.retire_row(addr.rank, addr.bank, prow, api.device_for_setup())) {
        ++stats.rows_retired;
      }
    }
    return RequestError::kUncorrectable;
  }

  // Escape verification against the device's stored cells: a read
  // acknowledged ok whose (post-correction) data diverges from ground
  // truth is a silent escape — the count the pipeline exists to zero.
  // Unprotected (never-written) lines carry no check bits, so the pipeline
  // makes no claim about them; their ground truth is the device's
  // faulty_reads_served counter, not an ECC escape. Without an installed
  // fault model no read can ever diverge from the stored bytes, so the
  // audit (a backdoor line compare per read) is skipped entirely.
  if (api.device_for_setup().fault_model() != nullptr) {
    if (seen != nullptr) {
      if (seen->checks.present &&
          std::memcmp(seen->cells.data(), rb.data.data(), 64) != 0) {
        ++stats.ecc_escaped;
      }
      return RequestError::kNone;
    }
    dram::DramAddress pa = addr;
    pa.row = ep.retirement().remap(fbank, addr.row);
    if (ep.line_protected(fbank, pa.row, pa.col)) {
      std::array<std::uint8_t, 64> truth{};
      api.device_for_setup().backdoor_read(pa, truth);
      if (std::memcmp(truth.data(), rb.data.data(), 64) != 0) {
        ++stats.ecc_escaped;
      }
    }
  }
  return RequestError::kNone;
}

void MemoryController::serve_rowclone(EasyApi& api, const TableEntry& entry) {
  const dram::DramAddress src = entry.dram_addr;
  const dram::DramAddress dst = api.get_addr_mapping(entry.request.paddr2);

  streams_.note_service(entry.request.stream_id);
  tile::Response resp;
  resp.id = entry.request.id;
  resp.stream_id = entry.request.stream_id;
  // RowClone is an intra-bank operation: the pair must share the full
  // (channel, rank, bank) coordinate. The clone map is keyed by the
  // system-wide bank index so ranks/channels never alias.
  const bool same_bank = src.channel == dst.channel && src.rank == dst.rank &&
                         src.bank == dst.bank;
  const bool known_clonable =
      options_.clonable != nullptr && same_bank &&
      options_.clonable->clonable(api.geometry().system_bank(src), src.row,
                                  dst.row);
  if (!known_clonable) {
    // Unverified or failing pair: tell the processor to fall back to
    // load/store copy (§7.1, "Source and Target Row Allocation").
    resp.ok = false;
    api.enqueue_response(std::move(resp));
    return;
  }

  api.rowclone(src.bank, src.row, dst.row, src.rank);
  const auto exec = api.flush_commands();
  resp.ok = exec.rowclone_attempts == exec.rowclone_successes;
  api.enqueue_response(std::move(resp));
}

void MemoryController::serve_profile(EasyApi& api, const TableEntry& entry) {
  const dram::DramAddress& a = entry.dram_addr;
  const auto pattern = profile_pattern(entry.request.paddr);

  // Step 1: initialize the target cache line with a known pattern.
  api.close_row(a.bank, a.rank);
  api.write_sequence(a, pattern);
  api.close_row(a.bank, a.rank);
  api.flush_commands();

  // Step 2: access it with the requested tRCD.
  api.read_sequence_reduced(a, entry.request.profile_trcd);
  api.close_row(a.bank, a.rank);
  api.flush_commands();

  // Step 3: report whether the reduced access returned correct data.
  EASYDRAM_ENSURES(!api.rdback_empty());
  const auto rb = api.rdback_cacheline();
  streams_.note_service(entry.request.stream_id);
  tile::Response resp;
  resp.id = entry.request.id;
  resp.stream_id = entry.request.stream_id;
  resp.ok = std::memcmp(rb.data.data(), pattern.data(), 64) == 0;
  api.enqueue_response(std::move(resp));
}

bool SimpleReadController::step(EasyApi& api) {
  // Listing 1: wait for a request, serve it, respond.
  if (api.req_empty()) return false;
  api.set_scheduling_state(true);
  tile::Request req = api.receive_request();
  api.note_service_start(req.issue_proc_cycle);
  api.refresh_if_due();
  const dram::DramAddress addr = api.get_addr_mapping(req.paddr);
  EASYDRAM_EXPECTS(req.kind == tile::RequestKind::kRead);
  api.read_sequence(addr);
  api.flush_commands();
  tile::Response resp;
  resp.id = req.id;
  resp.stream_id = req.stream_id;
  resp.has_data = true;
  resp.data = api.rdback_cacheline().data;
  api.enqueue_response(std::move(resp));
  api.set_scheduling_state(false);
  return true;
}

}  // namespace easydram::smc
