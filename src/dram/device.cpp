#include "dram/device.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>

#include "common/rng.hpp"

namespace easydram::dram {

namespace {

constexpr Picoseconds kNegInf{std::numeric_limits<std::int64_t>::min() / 4};

/// 2^64 / golden ratio: multiplicative (Fibonacci) hashing of row keys.
constexpr std::uint64_t kFibonacci = 0x9E3779B97F4A7C15ull;

/// ACT->PRE gaps below this fraction of tRAS count as an "early precharge",
/// the first half of the FPM RowClone ACT->PRE->ACT pattern. Real chips need
/// the gap to be a handful of tCK; half of tRAS separates that cleanly from
/// legal operation.
constexpr double kRowClonePreFraction = 0.5;
/// PRE->ACT gaps below this fraction of tRP complete the RowClone pattern.
constexpr double kRowCloneActFraction = 0.5;

}  // namespace

std::string_view to_string(Command c) {
  switch (c) {
    case Command::kAct: return "ACT";
    case Command::kPre: return "PRE";
    case Command::kPreAll: return "PREA";
    case Command::kRead: return "RD";
    case Command::kWrite: return "WR";
    case Command::kRef: return "REF";
    case Command::kNop: return "NOP";
  }
  return "?";
}

DramDevice::DramDevice(const Geometry& geo, const TimingParams& timing,
                       const VariationConfig& variation)
    : geo_(geo),
      timing_(timing),
      variation_(geo, variation),
      banks_(geo.banks_per_channel()),
      cells_(geo.banks_per_channel(), geo.rows_per_bank, geo.cols_per_row()),
      ranks_(geo.ranks_per_channel),
      data_bus_free_(kNegInf),
      now_(Picoseconds{0}) {
  // Column accesses move exactly one stored line.
  EASYDRAM_EXPECTS(geo.col_bytes == sizeof(LineStore::Line));
  for (auto& b : banks_) {
    b.act_time = b.pre_time = b.last_rd = b.wr_data_end = b.early_pre_at = kNegInf;
  }
  for (auto& r : ranks_) {
    r.last_act_in_group.assign(geo.bank_groups, kNegInf);
    r.last_act_any = kNegInf;
    r.last_col_in_group.assign(geo.bank_groups, kNegInf);
    r.last_col_any = kNegInf;
    r.last_wr_data_end_any = kNegInf;
    r.wr_data_end_in_group.assign(geo.bank_groups, kNegInf);
    r.ref_busy_until = kNegInf;
  }
}

DramDevice::LineStore::LineStore(std::uint32_t banks, std::uint32_t rows_per_bank,
                                 std::uint32_t cols_per_row)
    : rows_per_bank_(rows_per_bank),
      chunks_per_row_((cols_per_row + kChunkLines - 1) / kChunkLines) {
  // The largest key plus one must not wrap to the empty-slot marker.
  EASYDRAM_EXPECTS(std::uint64_t{banks} * rows_per_bank * chunks_per_row_ <
                   std::uint64_t{kNoRecord});
}

std::size_t DramDevice::LineStore::home(std::uint32_t key) const {
  return static_cast<std::size_t>((key * kFibonacci) >> index_shift_);
}

std::uint32_t DramDevice::LineStore::find_record(std::uint32_t key) const {
  if (index_.empty()) return kNoRecord;
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = home(key);; i = (i + 1) & mask) {
    const Slot& s = index_[i];
    if (s.key_plus_one == key + 1) return s.record;
    if (s.key_plus_one == 0) return kNoRecord;
  }
}

void DramDevice::LineStore::place(Slot slot) {
  const std::size_t mask = index_.size() - 1;
  std::size_t i = home(slot.key_plus_one - 1);
  while (index_[i].key_plus_one != 0) i = (i + 1) & mask;
  index_[i] = slot;
}

std::uint32_t DramDevice::LineStore::insert_record(std::uint32_t key) {
  const auto record = static_cast<std::uint32_t>(line_ids_.size() / kChunkLines);
  if (2 * (static_cast<std::size_t>(record) + 1) > index_.size()) {
    // Double (64 slots minimum) and rehash every record.
    std::vector<Slot> old = std::move(index_);
    index_.assign(std::max<std::size_t>(64, 2 * old.size()), Slot{});
    index_shift_ = 64 - std::countr_zero(index_.size());
    for (const Slot& s : old) {
      if (s.key_plus_one != 0) place(s);
    }
  }
  place(Slot{key + 1, record});
  line_ids_.resize(line_ids_.size() + kChunkLines, 0);
  return record;
}

DramDevice::LineStore::Line& DramDevice::LineStore::line_data(std::uint32_t fbank,
                                                              std::uint32_t row,
                                                              std::uint32_t col) {
  const std::uint32_t k = key(fbank, row, col);
  std::uint32_t record = find_record(k);
  if (record == kNoRecord) record = insert_record(k);
  std::uint32_t& id = line_ids_[id_index(record, col)];
  if (id != 0) return line_at(id);
  if (lines_ % kLinesPerBlock == 0) {
    blocks_.push_back(std::make_unique_for_overwrite<Line[]>(kLinesPerBlock));
  }
  id = static_cast<std::uint32_t>(++lines_);
  Line& line = line_at(id);
  line.fill(0);
  return line;
}

const DramDevice::LineStore::Line* DramDevice::LineStore::line_if_present(
    std::uint32_t fbank, std::uint32_t row, std::uint32_t col) const {
  const std::uint32_t record = find_record(key(fbank, row, col));
  if (record == kNoRecord) return nullptr;
  const std::uint32_t id = line_ids_[id_index(record, col)];
  return id == 0 ? nullptr : &line_at(id);
}

void DramDevice::corrupt_line(std::uint32_t fbank, std::uint32_t row,
                              std::uint32_t col, std::uint64_t salt) {
  LineStore::Line& line = cells_.line_data(fbank, row, col);
  SplitMix64 sm(hash_mix(variation_.config().seed ^ 0xBADBADBAD, fbank, row,
                         (static_cast<std::uint64_t>(col) << 32) | salt));
  // Flip a deterministic set of bits across the 64-byte line. Weak-tRCD
  // failures in real chips flip a few bits per line; eight flips is enough
  // for any data-comparison test to detect the failure reliably.
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t r = sm.next();
    line[r % 64] ^= static_cast<std::uint8_t>(1u << ((r >> 8) % 8));
  }
}

void DramDevice::corrupt_row(std::uint32_t fbank, std::uint32_t row, std::uint64_t salt) {
  for (std::uint32_t col = 0; col < geo_.cols_per_row(); ++col) {
    corrupt_line(fbank, row, col, salt ^ 0x517EC10E);
  }
}

Picoseconds DramDevice::bus_free_for(std::uint32_t rank) const {
  if (data_bus_free_ == kNegInf || rank == last_bus_rank_) return data_bus_free_;
  return data_bus_free_ + timing_.tRTRS;
}

// `inline` lets the compiler fold the switch into each caller that passes
// a constant command (every issue case): the rules cost what hand-written
// checks would.
template <class F>
inline void DramDevice::for_each_rule(Command c, const DramAddress& a, F&& f) const {
  // REF and PREA address the whole rank and ignore a.bank.
  const bool per_bank = c != Command::kRef && c != Command::kPreAll && c != Command::kNop;
  EASYDRAM_EXPECTS(a.rank < num_ranks() && (!per_bank || a.bank < geo_.num_banks()));
  const RankState& r = ranks_[a.rank];
  // PRE's rules; PREA applies them to every active bank of the rank.
  auto pre_rules = [&](const BankState& b) {
    f(b.act_time + timing_.tRAS, kTras);
    f(b.last_rd + timing_.tRTP, kTrtp);
    f(b.wr_data_end + timing_.tWR, kTwr);
  };
  switch (c) {
    case Command::kAct: {
      const BankState& b = banks_[flat(a)];
      f(b.pre_time + timing_.tRP, kTrp);
      f(b.act_time + timing_.tRC, kTrc);
      f(r.last_act_in_group[geo_.bank_group_of(a.bank)] + timing_.tRRD_L, kTrrd);
      f(r.last_act_any + timing_.tRRD_S, kTrrd);
      if (r.act_window.full()) f(r.act_window.oldest() + timing_.tFAW, kTfaw);
      f(r.ref_busy_until, kTrfc);
      return;
    }
    case Command::kRead:
    case Command::kWrite: {
      const std::uint32_t group = geo_.bank_group_of(a.bank);
      f(banks_[flat(a)].act_time + timing_.tRCD, kTrcd);
      f(r.last_col_in_group[group] + timing_.tCCD_L, kTccd);
      f(r.last_col_any + timing_.tCCD_S, kTccd);
      // Column commands are as illegal during tRFC as ACTs: the rank's
      // internal refresh owns every bank.
      f(r.ref_busy_until, kTrfc);
      if (c == Command::kRead) {
        f(r.wr_data_end_in_group[group] + timing_.tWTR_L, kTwtr);
        f(r.last_wr_data_end_any + timing_.tWTR_S, kTwtr);
        f(bus_free_for(a.rank) - timing_.tCL, kBusConflict);
      } else {
        f(bus_free_for(a.rank) - timing_.tCWL, kBusConflict);
      }
      return;
    }
    case Command::kPre:
      pre_rules(banks_[flat(a)]);
      return;
    case Command::kPreAll:
      for (std::uint32_t bank = 0; bank < geo_.num_banks(); ++bank) {
        const BankState& b = banks_[geo_.flat_bank(a.rank, bank)];
        if (b.active) pre_rules(b);
      }
      return;
    case Command::kRef:
      for (std::uint32_t bank = 0; bank < geo_.num_banks(); ++bank) {
        f(banks_[geo_.flat_bank(a.rank, bank)].pre_time + timing_.tRP, kTrp);
      }
      f(r.ref_busy_until, kTrfc);
      return;
    case Command::kNop:
      return;
  }
}

Picoseconds DramDevice::earliest_legal(Command c, const DramAddress& a) const {
  Picoseconds t = now_;
  for_each_rule(c, a, [&t](Picoseconds not_before, Violation) {
    if (t < not_before) t = not_before;
  });
  return t;
}

std::uint32_t DramDevice::timing_violations(Command c, const DramAddress& a,
                                            Picoseconds at) const {
  std::uint32_t v = kNone;
  for_each_rule(c, a, [&v, at](Picoseconds not_before, Violation bit) {
    if (at < not_before) v |= bit;
  });
  return v;
}

std::int64_t DramDevice::refreshes_due(Picoseconds at) const {
  return at.count / timing_.tREFI.count;
}

std::int64_t DramDevice::refreshes_issued(std::uint32_t rank) const {
  EASYDRAM_EXPECTS(rank < ranks_.size());
  return ranks_[rank].refreshes_issued;
}

std::int64_t DramDevice::refresh_slots(std::uint32_t rank) const {
  EASYDRAM_EXPECTS(rank < ranks_.size());
  return ranks_[rank].refresh_slots;
}

void DramDevice::skip_refresh(std::uint32_t rank) {
  EASYDRAM_EXPECTS(rank < ranks_.size());
  // The skipped stripe is NOT refreshed: victim counters keep
  // accumulating and the stripe's retention clock keeps running — only
  // the round-robin position advances.
  ++ranks_[rank].refresh_slots;
}

IssueResult DramDevice::issue(Command c, const DramAddress& a, Picoseconds at,
                              std::span<const std::uint8_t> wdata) {
  EASYDRAM_EXPECTS(at >= now_);
  EASYDRAM_EXPECTS(a.rank < ranks_.size());
  IssueResult res;
  now_ = at;
  ++cmd_counts_[static_cast<std::size_t>(c)];

  switch (c) {
    case Command::kNop:
      return res;

    case Command::kAct: {
      EASYDRAM_EXPECTS(a.bank < geo_.num_banks() && a.row < geo_.rows_per_bank);
      const std::uint32_t fbank = flat(a);
      BankState& b = banks_[fbank];
      RankState& r = ranks_[a.rank];
      if (b.active) res.violations |= kBankNotIdle;
      res.violations |= timing_violations(Command::kAct, a, at);
      const std::uint32_t group = geo_.bank_group_of(a.bank);

      // RowClone: this ACT completes ACT(src) -> early PRE -> early ACT(dst).
      if (b.early_pre_pending) {
        const Picoseconds gap = at - b.early_pre_at;
        const auto threshold = Picoseconds{static_cast<std::int64_t>(
            kRowCloneActFraction * static_cast<double>(timing_.tRP.count))};
        if (gap < threshold) {
          res.rowclone_attempted = true;
          const std::uint32_t src = b.early_pre_row;
          const std::uint32_t dst = a.row;
          res.rowclone_success = variation_.rowclone_pair_ok(fbank, src, dst);
          if (res.rowclone_success) {
            if (src != dst) {
              // Line by line, holding no lookup across a destination insert
              // (which may grow the row index). A never-written source line
              // clears only a destination line that holds data; the rest
              // already read as zero.
              for (std::uint32_t col = 0; col < geo_.cols_per_row(); ++col) {
                const LineStore::Line* s = cells_.line_if_present(fbank, src, col);
                if (s != nullptr || cells_.line_if_present(fbank, dst, col) != nullptr) {
                  cells_.line_data(fbank, dst, col) = s != nullptr ? *s : LineStore::Line{};
                }
              }
            }
          } else {
            corrupt_row(fbank, dst, static_cast<std::uint64_t>(at.count));
          }
        }
        b.early_pre_pending = false;
      }

      b.active = true;
      b.row = a.row;
      b.act_time = at;
      b.last_rd = b.wr_data_end = kNegInf;
      r.last_act_in_group[group] = at;
      r.last_act_any = at;
      r.act_window.push(at);
      if (hammer_tracking_) note_hammer_act(fbank, a.row);
      return res;
    }

    case Command::kPre: {
      EASYDRAM_EXPECTS(a.bank < geo_.num_banks());
      BankState& b = banks_[flat(a)];
      if (!b.active) {
        res.violations |= kBankNotActive;
        return res;
      }
      res.violations |= timing_violations(Command::kPre, a, at);

      const Picoseconds act_to_pre = at - b.act_time;
      const auto early_threshold = Picoseconds{static_cast<std::int64_t>(
          kRowClonePreFraction * static_cast<double>(timing_.tRAS.count))};
      if (act_to_pre < early_threshold) {
        b.early_pre_pending = true;
        b.early_pre_row = b.row;
        b.early_pre_at = at;
      } else {
        b.early_pre_pending = false;
      }
      b.active = false;
      b.pre_time = at;
      return res;
    }

    case Command::kPreAll: {
      res.violations |= timing_violations(Command::kPreAll, a, at);
      for (std::uint32_t bank = 0; bank < geo_.num_banks(); ++bank) {
        BankState& b = banks_[geo_.flat_bank(a.rank, bank)];
        if (!b.active) continue;
        b.active = false;
        b.pre_time = at;
        b.early_pre_pending = false;
      }
      return res;
    }

    case Command::kRead: {
      EASYDRAM_EXPECTS(a.bank < geo_.num_banks() && a.row < geo_.rows_per_bank &&
                       a.col < geo_.cols_per_row());
      const std::uint32_t fbank = flat(a);
      BankState& b = banks_[fbank];
      RankState& r = ranks_[a.rank];
      res.has_data = true;
      if (!b.active || b.row != a.row) {
        // Reading a closed (or different) row returns garbage.
        res.violations |= kBankNotActive;
        res.data_reliable = false;
        SplitMix64 sm(hash_mix(0xDEAD, fbank, a.row, a.col));
        for (auto& byte : res.data) byte = static_cast<std::uint8_t>(sm.next());
        return res;
      }
      res.violations |= timing_violations(Command::kRead, a, at);
      const std::uint32_t group = geo_.bank_group_of(a.bank);
      // At or above the field's ceiling every line reads reliably; only a
      // reduced-tRCD read needs the per-line lookup.
      const Picoseconds opened = at - b.act_time;
      res.data_reliable = opened >= variation_.line_min_trcd_ceiling() ||
                          opened >= variation_.line_min_trcd(fbank, a.row, a.col);
      if (!res.data_reliable) {
        // The sense amplifier latched a wrong value; it is both returned and
        // restored into the cells.
        corrupt_line(fbank, a.row, a.col, static_cast<std::uint64_t>(at.count));
      }
      if (const auto* line = cells_.line_if_present(fbank, a.row, a.col)) {
        res.data = *line;
      } else {
        res.data.fill(0);
      }
      if (fault_model_ != nullptr) {
        fault_model_->apply_read(
            fault_context(a.rank, fbank, a.row, a.col, std::max(at, fault_clock_)),
            res.data);
      }

      b.last_rd = at;
      r.last_col_in_group[group] = at;
      r.last_col_any = at;
      data_bus_free_ = std::max(data_bus_free_, at + timing_.read_data_latency());
      last_bus_rank_ = a.rank;
      return res;
    }

    case Command::kWrite: {
      EASYDRAM_EXPECTS(a.bank < geo_.num_banks() && a.row < geo_.rows_per_bank &&
                       a.col < geo_.cols_per_row());
      EASYDRAM_EXPECTS(wdata.size() == 64);
      const std::uint32_t fbank = flat(a);
      BankState& b = banks_[fbank];
      RankState& r = ranks_[a.rank];
      if (!b.active || b.row != a.row) {
        res.violations |= kBankNotActive;
        return res;  // Write to a closed row is dropped.
      }
      res.violations |= timing_violations(Command::kWrite, a, at);
      const std::uint32_t group = geo_.bank_group_of(a.bank);

      std::memcpy(cells_.line_data(fbank, a.row, a.col).data(), wdata.data(), 64);
      if (fault_model_ != nullptr) {
        fault_model_->on_write(fbank, a.row, a.col,
                               retention_epoch_of(a.rank, a.row));
      }

      b.wr_data_end = at + timing_.write_data_latency();
      r.wr_data_end_in_group[group] = b.wr_data_end;
      r.last_wr_data_end_any = b.wr_data_end;
      r.last_col_in_group[group] = at;
      r.last_col_any = at;
      data_bus_free_ = std::max(data_bus_free_, b.wr_data_end);
      last_bus_rank_ = a.rank;
      return res;
    }

    case Command::kRef: {
      RankState& r = ranks_[a.rank];
      res.violations |= timing_violations(Command::kRef, a, at);
      for (std::uint32_t bank = 0; bank < geo_.num_banks(); ++bank) {
        BankState& b = banks_[geo_.flat_bank(a.rank, bank)];
        if (b.active) res.violations |= kRefreshNotIdle;
        // Post-refresh bank state is explicit: the internal refresh takes
        // over every bank of the rank, so each one leaves the tRFC window
        // precharged regardless of what it held before (a REF issued over
        // an open row is still flagged above, but cannot leave the model
        // half-open). pre_time lands tRP before the window closes, so
        // earliest ACT == ref_busy_until exactly as without this clamp.
        b.active = false;
        b.early_pre_pending = false;
        b.pre_time = at + timing_.tRFC - timing_.tRP;
      }
      // The refresh's internal activations dominate any recent host ACTs
      // (tRFC >> tFAW): post-refresh tFAW accounting starts from a clean
      // window, so a mitigator-injected REF can never inherit stale
      // entries that mis-flag (or mis-delay) its follow-up activations.
      r.act_window.clear();
      r.ref_busy_until = at + timing_.tRFC;
      // The stripe this REF targets is set by the slot position (issued +
      // skipped), so a retention-aware policy skipping slots keeps the
      // round-robin aligned with what a real device's internal counter —
      // which advances per REF *opportunity* in the policy's schedule —
      // would target.
      if (hammer_tracking_) note_hammer_refresh(a.rank, r.refresh_slots);
      if (retention_tracking_) note_retention_refresh(a.rank, r.refresh_slots);
      ++r.refresh_slots;
      ++r.refreshes_issued;
      return res;
    }
  }
  return res;
}

void DramDevice::backdoor_write(const DramAddress& a,
                                std::span<const std::uint8_t> data) {
  EASYDRAM_EXPECTS(a.rank < ranks_.size() && a.bank < geo_.num_banks() &&
                   a.row < geo_.rows_per_bank && a.col < geo_.cols_per_row());
  EASYDRAM_EXPECTS(data.size() == 64);
  std::memcpy(cells_.line_data(flat(a), a.row, a.col).data(), data.data(), 64);
}

void DramDevice::backdoor_read(const DramAddress& a,
                               std::span<std::uint8_t> out) const {
  EASYDRAM_EXPECTS(a.rank < ranks_.size() && a.bank < geo_.num_banks() &&
                   a.row < geo_.rows_per_bank && a.col < geo_.cols_per_row());
  EASYDRAM_EXPECTS(out.size() == 64);
  if (const auto* line = cells_.line_if_present(flat(a), a.row, a.col)) {
    std::memcpy(out.data(), line->data(), 64);
  } else {
    std::fill(out.begin(), out.end(), std::uint8_t{0});
  }
}

void DramDevice::backdoor_write_row(std::uint32_t bank, std::uint32_t row,
                                    std::span<const std::uint8_t> data,
                                    std::uint32_t rank) {
  EASYDRAM_EXPECTS(rank < ranks_.size() && bank < geo_.num_banks() &&
                   row < geo_.rows_per_bank);
  EASYDRAM_EXPECTS(data.size() == geo_.row_bytes);
  const std::uint32_t fbank = geo_.flat_bank(rank, bank);
  for (std::uint32_t col = 0; col < geo_.cols_per_row(); ++col) {
    std::memcpy(cells_.line_data(fbank, row, col).data(),
                data.data() + col * geo_.col_bytes, geo_.col_bytes);
  }
}

std::int64_t DramDevice::commands_issued(Command c) const {
  return cmd_counts_[static_cast<std::size_t>(c)];
}

void DramDevice::install_fault_model(const FaultConfig& cfg) {
  fault_model_ = cfg.enabled ? std::make_unique<FaultModel>(geo_, cfg) : nullptr;
}

std::int64_t DramDevice::retention_epoch_of(std::uint32_t rank,
                                            std::uint32_t row) const {
  if (!retention_tracking_) return 0;
  const std::uint32_t stripe = geo_.refresh_stripe_of_row(row);
  if (stripe >= geo_.refresh_window_refs) return 0;
  return stripe_last_ref_slot_[rank * geo_.refresh_window_refs + stripe];
}

FaultReadContext DramDevice::fault_context(std::uint32_t rank,
                                           std::uint32_t fbank,
                                           std::uint32_t row, std::uint32_t col,
                                           Picoseconds at) const {
  FaultReadContext ctx;
  ctx.at = at;
  ctx.rank = rank;
  ctx.fbank = fbank;
  ctx.row = row;
  ctx.col = col;
  // Retention ground truth is filled only when both the device tracks
  // stripes and the model wants it (row_retention is a hashed field — not
  // free on a hot path that may never read it).
  if (retention_tracking_ && fault_model_ != nullptr &&
      fault_model_->config().retention_flips) {
    ctx.retention_valid = true;
    ctx.stripe_last_ref_slot = retention_epoch_of(rank, row);
    ctx.trefi = timing_.tREFI;
    ctx.row_retention = variation_.row_retention(fbank, row);
  }
  return ctx;
}

void DramDevice::scrub_read(const DramAddress& a, Picoseconds at,
                            std::span<std::uint8_t> out) {
  EASYDRAM_EXPECTS(a.rank < ranks_.size() && a.bank < geo_.num_banks() &&
                   a.row < geo_.rows_per_bank && a.col < geo_.cols_per_row());
  EASYDRAM_EXPECTS(out.size() == 64);
  backdoor_read(a, out);
  const std::uint32_t fbank = flat(a);
  if (fault_model_ != nullptr) {
    fault_model_->apply_read(fault_context(a.rank, fbank, a.row, a.col, at), out);
  }
}

void DramDevice::scrub_writeback(const DramAddress& a,
                                 std::span<const std::uint8_t> data) {
  EASYDRAM_EXPECTS(data.size() == 64);
  backdoor_write(a, data);
  if (fault_model_ != nullptr) {
    fault_model_->on_write(flat(a), a.row, a.col,
                           retention_epoch_of(a.rank, a.row));
  }
}

void DramDevice::set_hammer_tracking(bool on) {
  hammer_tracking_ = on;
  hammer_counts_.assign(on ? geo_.banks_per_channel() : 0, {});
  hammer_max_exposure_ = 0;
}

std::int64_t DramDevice::hammer_count(std::uint32_t bank, std::uint32_t row,
                                      std::uint32_t rank) const {
  EASYDRAM_EXPECTS(rank < ranks_.size() && bank < geo_.num_banks() &&
                   row < geo_.rows_per_bank);
  if (!hammer_tracking_) return 0;
  const auto& counts = hammer_counts_[geo_.flat_bank(rank, bank)];
  const auto it = counts.find(row);
  return it == counts.end() ? 0 : it->second;
}

void DramDevice::note_hammer_act(std::uint32_t fbank, std::uint32_t row) {
  auto& counts = hammer_counts_[fbank];
  // Opening a row fully restores its cells: the activated row stops being
  // a victim of its neighbors' earlier activity.
  counts.erase(row);
  const Geometry::NeighborRows n = geo_.neighbor_rows(row);
  for (std::uint32_t i = 0; i < n.count; ++i) {
    const std::int64_t c = ++counts[n.rows[i]];
    hammer_max_exposure_ = std::max(hammer_max_exposure_, c);
    if (fault_model_ != nullptr) fault_model_->on_hammer_act(fbank, n.rows[i], c);
  }
}

void DramDevice::note_hammer_refresh(std::uint32_t rank, std::int64_t ref_slot) {
  // REF slot n refreshes one refresh_stripe_rows() stripe of every bank in
  // the rank (round-robin over the retention window), so only runs long
  // enough to genuinely re-visit a row ever reset its victim counter this
  // way — short runs keep accumulating, exactly like real tREFW exposure.
  // Keyed by the *slot* (issued + skipped), so a skipping refresh policy
  // leaves exactly the skipped stripes' victims accumulating.
  const std::uint32_t stripe_rows = geo_.refresh_stripe_rows();
  const std::uint32_t first = geo_.refresh_stripe_of_slot(ref_slot) * stripe_rows;
  for (std::uint32_t bank = 0; bank < geo_.num_banks(); ++bank) {
    auto& counts = hammer_counts_[geo_.flat_bank(rank, bank)];
    for (std::uint32_t row = first;
         row < std::min(first + stripe_rows, geo_.rows_per_bank); ++row) {
      counts.erase(row);
    }
  }
}

void DramDevice::set_retention_tracking(bool on) {
  retention_tracking_ = on;
  const std::size_t slots =
      on ? static_cast<std::size_t>(ranks_.size()) * geo_.refresh_window_refs
         : 0;
  stripe_last_ref_slot_.assign(slots, 0);
  for (std::size_t i = 0; i < slots; ++i) {
    // Power-on: stripe s counts as last refreshed at virtual slot
    // s - window, i.e. exactly one full round before its first slot, so
    // an undisturbed all-rows schedule measures gap == one window.
    const auto stripe = static_cast<std::int64_t>(i % geo_.refresh_window_refs);
    stripe_last_ref_slot_[i] = stripe - geo_.refresh_window_refs;
  }
  stripe_min_retention_.assign(slots, -1);
  retention_violations_ = 0;
  retention_overshoot_ = Picoseconds{};
}

Picoseconds DramDevice::stripe_min_retention(std::uint32_t rank,
                                             std::uint32_t stripe) const {
  EASYDRAM_EXPECTS(retention_tracking_ && rank < ranks_.size() &&
                   stripe < geo_.refresh_window_refs);
  const std::size_t idx = rank * geo_.refresh_window_refs + stripe;
  if (stripe_min_retention_[idx] >= 0) {
    return Picoseconds{stripe_min_retention_[idx]};
  }
  const std::uint32_t stripe_rows = geo_.refresh_stripe_rows();
  const std::uint32_t first = stripe * stripe_rows;
  const std::uint32_t last = std::min(first + stripe_rows, geo_.rows_per_bank);
  std::int64_t min_ps = std::numeric_limits<std::int64_t>::max();
  for (std::uint32_t bank = 0; bank < geo_.num_banks(); ++bank) {
    const std::uint32_t fbank = geo_.flat_bank(rank, bank);
    for (std::uint32_t row = first; row < last; ++row) {
      min_ps = std::min(min_ps, variation_.row_retention(fbank, row).count);
    }
  }
  stripe_min_retention_[idx] = min_ps;
  return Picoseconds{min_ps};
}

void DramDevice::note_retention_refresh(std::uint32_t rank, std::int64_t ref_slot) {
  const std::uint32_t stripe = geo_.refresh_stripe_of_slot(ref_slot);
  const std::size_t idx = rank * geo_.refresh_window_refs + stripe;
  const std::int64_t gap_slots = ref_slot - stripe_last_ref_slot_[idx];
  stripe_last_ref_slot_[idx] = ref_slot;
  const Picoseconds gap{gap_slots * timing_.tREFI.count};
  const Picoseconds min_ret = stripe_min_retention(rank, stripe);
  if (gap > min_ret) {
    ++retention_violations_;
    retention_overshoot_ = std::max(retention_overshoot_, gap - min_ret);
  }
}

}  // namespace easydram::dram
