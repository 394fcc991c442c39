#include "sys/system.hpp"

#include <algorithm>
#include <cstring>

#include "common/rng.hpp"

namespace easydram::sys {

SystemConfig jetson_nano_time_scaling() {
  SystemConfig cfg;  // Defaults already model this target.
  return cfg;
}

SystemConfig pidram_no_time_scaling() {
  SystemConfig cfg;
  cfg.mode = timescale::SystemMode::kNoTimeScaling;
  cfg.core = cpu::pidram_inorder_core();
  cfg.caches = cpu::easydram_caches();
  // In the PiDRAM-style build the processor's FPGA clock *is* its clock.
  cfg.proc_domain = timescale::DomainConfig{Frequency::megahertz(50),
                                            Frequency::megahertz(50)};
  return cfg;
}

SystemConfig validation_time_scaling() {
  SystemConfig cfg;
  cfg.core = cpu::boom_1ghz_core();
  cfg.proc_domain = timescale::DomainConfig{Frequency::megahertz(100),
                                            Frequency::gigahertz(1)};
  return cfg;
}

SystemConfig validation_reference() {
  SystemConfig cfg = validation_time_scaling();
  cfg.mode = timescale::SystemMode::kReference;
  // The reference RTL system runs everything at the 1 GHz target clock.
  cfg.proc_domain = timescale::DomainConfig{Frequency::gigahertz(1),
                                            Frequency::gigahertz(1)};
  return cfg;
}

namespace {

/// The channel's device with the ground-truth trackers and the fault model
/// the configuration asks for. Channel 0 keeps the configured variation and
/// fault seeds (so the 1x1 default reproduces the original synthetic chip
/// bit for bit); further channels model physically distinct modules.
dram::DramDevice make_device(const SystemConfig& cfg, std::uint32_t channel) {
  dram::VariationConfig v = cfg.variation;
  if (channel != 0) v.seed = hash_mix(v.seed, channel);
  dram::DramDevice device(cfg.geometry, cfg.timing, v);
  if (cfg.track_row_hammer) device.set_hammer_tracking(true);
  if (cfg.track_retention) device.set_retention_tracking(true);
  if (cfg.faults.enabled) {
    // The fault model reads the ground-truth bookkeeping its triggers
    // need, so those trackers come on with it.
    if (cfg.faults.hammer_flip_threshold > 0) device.set_hammer_tracking(true);
    if (cfg.faults.retention_flips) device.set_retention_tracking(true);
    dram::FaultConfig f = cfg.faults;
    if (channel != 0) f.seed = hash_mix(f.seed, channel);
    device.install_fault_model(f);
  }
  return device;
}

/// Retention-aware refresh: profiles the channel's (independently seeded)
/// chip once at power-on and returns its binning. An offline setup pass,
/// so it charges no timeline — matching how the weak-row and RowClone
/// characterizations run before emulation begins.
std::unique_ptr<smc::RefreshPolicy> make_refresh_policy(
    const SystemConfig& cfg, const dram::DramDevice& device,
    smc::RaidrBinStats& stats) {
  if (cfg.refresh != smc::RefreshKind::kRaidr) return nullptr;
  return std::make_unique<smc::RaidrRefreshPolicy>(
      smc::profile_retention_bins(device, cfg.retention_profiler, &stats));
}

smc::ControllerOptions controller_options(
    const SystemConfig& cfg, smc::mitigation::RowHammerMitigator* mitigator,
    const smc::RowCloneMap& clone_map) {
  smc::ControllerOptions options;
  // A null scheduler leaves the controller's default, FR-FCFS.
  if (cfg.scheduler_factory) {
    options.scheduler = cfg.scheduler_factory();
    EASYDRAM_EXPECTS(options.scheduler != nullptr);
  } else if (cfg.sched != smc::SchedulerKind::kAuto) {
    options.scheduler = smc::make_scheduler(cfg.sched);
  } else if (!cfg.use_frfcfs) {
    options.scheduler = std::make_unique<smc::FcfsScheduler>();
  }
  options.reduced_trcd = cfg.reduced_trcd;
  options.row_batch_limit = cfg.row_batch_limit;
  options.clonable = &clone_map;
  options.mitigator = mitigator;
  return options;
}

}  // namespace

EasyDramSystem::ChannelSlice::ChannelSlice(const SystemConfig& cfg,
                                           const smc::AddressMapper& mapper,
                                           const smc::RowCloneMap& clone_map,
                                           std::uint32_t channel)
    : device(make_device(cfg, channel)),
      tile(cfg.tile),
      keeper(cfg.mode, cfg.proc_domain, cfg.tile.core_clock,
             cfg.mc_sched_latency, cfg.hardware_mc),
      api(tile, device, mapper, keeper, channel),
      error_policy(cfg.ecc.enabled
                       ? std::make_unique<smc::ErrorPolicy>(cfg.geometry, cfg.ecc)
                       : nullptr),
      mitigator(smc::mitigation::make_mitigator(cfg.mitigation, cfg.geometry,
                                                channel)),
      refresh_policy(make_refresh_policy(cfg, device, refresh_bin_stats)),
      controller(controller_options(cfg, mitigator.get(), clone_map)) {
  api.set_error_policy(error_policy.get());
  api.set_refresh_policy(refresh_policy.get());
  // The controller observes its own command stream: ACTs feed the
  // mitigation policy. Without a policy the sink stays unset (zero
  // virtual-call cost on the batch-building path).
  if (mitigator != nullptr) api.set_act_sink(&controller);
}

EasyDramSystem::EasyDramSystem(const SystemConfig& cfg)
    : cfg_(cfg),
      mapper_(smc::make_mapper(cfg.mapping, cfg.geometry, cfg.bank_partitions)) {
  EASYDRAM_EXPECTS(cfg.core.emulated_clock == cfg.proc_domain.emulated_clock);
  EASYDRAM_EXPECTS(cfg.geometry.channels >= 1);
  EASYDRAM_EXPECTS(cfg.geometry.ranks_per_channel >= 1);
  channels_.reserve(cfg.geometry.channels);
  for (std::uint32_t ch = 0; ch < cfg.geometry.channels; ++ch) {
    channels_.push_back(
        std::make_unique<ChannelSlice>(cfg_, *mapper_, clone_map_, ch));
  }
}

smc::EasyApi& EasyDramSystem::api(std::uint32_t channel) {
  EASYDRAM_EXPECTS(channel < channels_.size());
  return channels_[channel]->api;
}

dram::DramDevice& EasyDramSystem::device(std::uint32_t channel) {
  EASYDRAM_EXPECTS(channel < channels_.size());
  return channels_[channel]->device;
}

smc::ErrorPolicy* EasyDramSystem::error_policy(std::uint32_t channel) {
  EASYDRAM_EXPECTS(channel < channels_.size());
  return channels_[channel]->error_policy.get();
}

const timescale::TimeKeeper& EasyDramSystem::keeper(std::uint32_t channel) const {
  EASYDRAM_EXPECTS(channel < channels_.size());
  return channels_[channel]->keeper;
}

Picoseconds EasyDramSystem::wall() const {
  Picoseconds w{};
  for (const auto& ch : channels_) w = std::max(w, ch->keeper.wall());
  return w;
}

smc::ApiStats EasyDramSystem::smc_stats() const {
  smc::ApiStats total;
  for (const auto& ch : channels_) {
    const smc::ApiStats& s = ch->api.stats();
    total.requests_received += s.requests_received;
    total.responses_sent += s.responses_sent;
    total.batches_executed += s.batches_executed;
    total.commands_executed += s.commands_executed;
    total.rowclone_attempts += s.rowclone_attempts;
    total.rowclone_successes += s.rowclone_successes;
    total.refreshes_issued += s.refreshes_issued;
    total.refreshes_skipped += s.refreshes_skipped;
    total.violations_seen |= s.violations_seen;
    total.dram_busy += s.dram_busy;
    total.ecc_corrected += s.ecc_corrected;
    total.ecc_uncorrectable += s.ecc_uncorrectable;
    total.scrub_reads += s.scrub_reads;
    total.retries_issued += s.retries_issued;
    total.rows_retired += s.rows_retired;
    total.ecc_escaped += s.ecc_escaped;
    total.sched_picks += s.sched_picks;
    total.sched_row_hits += s.sched_row_hits;
    total.sched_row_conflicts += s.sched_row_conflicts;
    total.sched_entries_scanned += s.sched_entries_scanned;
  }
  return total;
}

smc::mitigation::MitigationStats EasyDramSystem::mitigation_stats() const {
  smc::mitigation::MitigationStats total;
  for (const auto& ch : channels_) {
    if (ch->mitigator == nullptr) continue;
    const smc::mitigation::MitigationStats& s = ch->mitigator->stats();
    total.acts_observed += s.acts_observed;
    total.triggers += s.triggers;
    total.neighbor_refreshes += s.neighbor_refreshes;
    total.window_resets += s.window_resets;
  }
  return total;
}

std::int64_t EasyDramSystem::max_hammer_exposure() const {
  std::int64_t m = 0;
  for (const auto& ch : channels_) {
    m = std::max(m, ch->device.max_hammer_exposure());
  }
  return m;
}

smc::RaidrBinStats EasyDramSystem::refresh_bin_stats() const {
  smc::RaidrBinStats total{};
  double issue_acc = 0.0;
  for (const auto& ch : channels_) {
    const smc::RaidrBinStats& s = ch->refresh_bin_stats;
    total.stripes_total += s.stripes_total;
    total.stripes_x1 += s.stripes_x1;
    total.stripes_x2 += s.stripes_x2;
    total.stripes_x4 += s.stripes_x4;
    total.rows_profiled += s.rows_profiled;
    // Channel order is fixed at construction, so this sum is reproducible
    // at any thread count.
    // NOLINT-easydram-next-line(float-accumulation-order)
    issue_acc += s.issue_fraction * static_cast<double>(s.stripes_total);
  }
  if (total.stripes_total > 0) {
    total.issue_fraction = issue_acc / static_cast<double>(total.stripes_total);
  }
  return total;
}

std::int64_t EasyDramSystem::refresh_slots_consumed() const {
  std::int64_t total = 0;
  for (const auto& ch : channels_) {
    for (std::uint32_t rank = 0; rank < ch->device.num_ranks(); ++rank) {
      total += ch->device.refresh_slots(rank);
    }
  }
  return total;
}

std::int64_t EasyDramSystem::retention_violations() const {
  std::int64_t total = 0;
  for (const auto& ch : channels_) total += ch->device.retention_violations();
  return total;
}

Picoseconds EasyDramSystem::max_retention_overshoot() const {
  Picoseconds m{};
  for (const auto& ch : channels_) {
    m = std::max(m, ch->device.max_retention_overshoot());
  }
  return m;
}

void EasyDramSystem::install_weak_row_filter(smc::BloomFilter filter) {
  weak_rows_ = std::move(filter);
  for (auto& ch : channels_) ch->controller.set_weak_rows(&*weak_rows_);
}

smc::WeakRowFilterStats EasyDramSystem::characterize_and_install_weak_rows(
    std::span<const std::uint32_t> banks, std::uint32_t rows_per_bank,
    Picoseconds threshold, std::size_t filter_bits, std::size_t hashes,
    std::uint32_t lines_per_row) {
  smc::WeakRowFilterStats total{};
  std::optional<smc::BloomFilter> merged;
  for (auto& ch : channels_) {
    smc::WeakRowFilterStats s{};
    smc::BloomFilter f = smc::build_weak_row_filter(
        ch->api, banks, rows_per_bank, threshold, filter_bits, hashes, &s,
        lines_per_row);
    total.rows_profiled += s.rows_profiled;
    total.weak_rows += s.weak_rows;
    if (!merged) {
      merged = std::move(f);
    } else {
      merged->merge(f);
    }
  }
  total.weak_fraction = total.rows_profiled == 0
                            ? 0.0
                            : static_cast<double>(total.weak_rows) /
                                  static_cast<double>(total.rows_profiled);
  install_weak_row_filter(std::move(*merged));
  return total;
}

void EasyDramSystem::account_cpu_progress(std::int64_t now) {
  if (now <= last_cpu_cycle_) return;
  for (auto& ch : channels_) {
    if (cfg_.mode == timescale::SystemMode::kNoTimeScaling) {
      // Without time scaling the processor's cycle count *is* the wall clock
      // at its FPGA frequency: stall cycles already elapsed as SMC/DRAM wall
      // time, so the wall is synchronized, never double-charged.
      ch->keeper.advance_wall_to(cfg_.proc_domain.fpga_clock.cycles_to_ps(now));
    } else {
      // Under time scaling every emulated cycle — including the replayed
      // stall windows of Fig. 5(e) — executes on the processor's FPGA clock.
      ch->keeper.account_proc_cycles(Cycles{now - last_cpu_cycle_});
    }
  }
  last_cpu_cycle_ = now;
}

void EasyDramSystem::drain_outgoing() {
  for (auto& ch : channels_) {
    auto& fifo = ch->tile.outgoing();
    while (!fifo.empty()) {
      // The system engine only tracks completion metadata; the 64-byte
      // payload stays in the ring slot and is never copied out.
      const tile::Response& resp = fifo.front();
      completed_.put(resp.id, resp.release_proc_cycle, resp.ok, resp.error,
                     resp.data_reliable);
      record_latency(resp.id, resp.stream_id, resp.release_proc_cycle);
      fifo.drop();
    }
  }
}

void EasyDramSystem::record_latency(std::uint64_t id, std::uint32_t stream,
                                    std::int64_t release_proc_cycle) {
  if (!cfg_.track_stream_latency) return;
  if (stream >= stream_latency_.size()) stream_latency_.resize(stream + 1);
  stream_latency_[stream].add(release_proc_cycle - completed_.issue_proc_cycle(id));
}

bool EasyDramSystem::step_channel(ChannelSlice& ch) {
  // Fast path for provably idle channels: with nothing staged, nothing
  // arriving, and no critical-mode exit pending, a full controller step
  // reduces to one charged poll iteration — apply exactly that charge
  // and skip the scheduler machinery. (The poll charge is modeled SMC
  // spin time, so it must happen either way to keep timelines
  // bit-identical; in setup mode the step would not charge it either.)
  tile::EasyTile& tile = ch.tile;
  if (ch.controller.idle() && tile.incoming().empty() &&
      tile.outgoing().empty() && !ch.keeper.counters().critical() &&
      tile.meter().pending().count == 0) {
    if (!ch.api.setup_mode()) {
      tile.meter().charge(tile.meter().costs().poll_iteration);
      ch.keeper.account_smc_cycles(tile.meter().take());
    }
    return false;
  }
  const bool worked = ch.controller.step(ch.api);
  ch.keeper.account_smc_cycles(tile.meter().take());
  if (!worked) {
    // Only future-tagged requests remain on this channel: let its
    // emulation point skip the idle gap so the head request becomes
    // visible.
    if (!tile.incoming().empty()) {
      ch.keeper.skip_idle_until_proc_cycle(
          tile.incoming().front().issue_proc_cycle);
    }
  }
  return worked;
}

bool EasyDramSystem::pump_once() {
  bool any_worked = false;
  for (auto& ch : channels_) {
    any_worked = step_channel(*ch) || any_worked;
  }
  drain_outgoing();
  return any_worked;
}

void EasyDramSystem::pump_until_fifo_has_room(std::uint32_t channel) {
  pump_until(
      [this, channel] { return !channels_[channel]->tile.incoming().full(); },
      1'000'000);
}

std::uint64_t EasyDramSystem::submit(tile::Request req, std::uint32_t channel,
                                     std::int64_t now) {
  account_cpu_progress(now);
  pump_until_fifo_has_room(channel);
  ChannelSlice& ch = *channels_[channel];
  req.id = next_id_++;
  req.stream_id = current_stream_;
  req.issue_proc_cycle = now;
  req.arrival_wall = ch.keeper.wall();
  const std::uint64_t id = req.id;
  // Stream and issue cycle ride along for per-stream latency accounting.
  completed_.note_pending(id, req.stream_id, now);
  ch.tile.incoming().push(std::move(req));
  return id;
}

std::uint32_t EasyDramSystem::channel_of(std::uint64_t paddr) const {
  // Channel routing is a hardware address decode, not controller software:
  // it costs nothing on any timeline (and nothing on the host with one
  // channel).
  if (channels_.size() == 1) return 0;
  return mapper_->to_dram(paddr).channel;
}

std::uint64_t EasyDramSystem::submit_read(std::uint64_t paddr, std::int64_t now) {
  tile::Request req;
  req.kind = tile::RequestKind::kRead;
  req.paddr = paddr;
  return submit(std::move(req), channel_of(paddr), now);
}

std::uint64_t EasyDramSystem::submit_write(std::uint64_t paddr, std::int64_t now) {
  tile::Request req;
  req.kind = tile::RequestKind::kWrite;
  req.paddr = paddr;
  // The timing models carry no data; fabricate a deterministic payload so
  // DRAM contents evolve benignly. Eight RNG draws fill the line a word at
  // a time — nothing downstream ever inspects these bytes.
  SplitMix64 sm(paddr ^ 0xD47A);
  for (std::size_t w = 0; w < req.wdata.size(); w += 8) {
    const std::uint64_t v = sm.next();
    std::memcpy(req.wdata.data() + w, &v, 8);
  }
  return submit(std::move(req), channel_of(paddr), now);
}

std::uint64_t EasyDramSystem::submit_rowclone(std::uint64_t src_paddr,
                                              std::uint64_t dst_paddr,
                                              std::int64_t now) {
  tile::Request req;
  req.kind = tile::RequestKind::kRowClone;
  req.paddr = src_paddr;
  req.paddr2 = dst_paddr;
  // Routed by the source row's channel; a cross-channel pair is rejected by
  // the controller's same-bank check and falls back to CPU copy.
  return submit(std::move(req), channel_of(src_paddr), now);
}

std::uint64_t EasyDramSystem::submit_profile(std::uint64_t paddr, Picoseconds trcd,
                                             std::int64_t now) {
  tile::Request req;
  req.kind = tile::RequestKind::kProfileTrcd;
  req.paddr = paddr;
  req.profile_trcd = trcd;
  return submit(std::move(req), channel_of(paddr), now);
}

cpu::Completion EasyDramSystem::wait(std::uint64_t id) {
  pump_until([this, id] { return completed_.ready(id); });
  cpu::Completion c;
  c.release_cycle = completed_.release_proc_cycle(id);
  c.stream = completed_.stream(id);
  c.ok = completed_.ok(id);
  c.data_reliable = completed_.data_reliable(id);
  c.error = completed_.error(id);
  completed_.consume(id);
  return c;
}

bool EasyDramSystem::all_idle() const {
  for (const auto& ch : channels_) {
    if (!ch->tile.incoming().empty() || !ch->controller.idle()) return false;
  }
  return true;
}

cpu::RunResult EasyDramSystem::run(cpu::TraceSource& trace) {
  cpu::Core core(cfg_.core, cfg_.caches);
  cpu::RunResult result = core.run(trace, *this);

  // Process any remaining posted writes and reconcile the wall clock with
  // the core's final cycle count. Each drain phase gets its own full pump
  // budget (they previously shared one guard, halving the second phase's).
  account_cpu_progress(result.cycles);
  pump_until([this] { return all_idle(); });
  // Let every controller observe its empty table and leave critical mode,
  // resynchronising the time-scaling counters (Fig. 5(f)).
  pump_until([this] {
    for (const auto& ch : channels_) {
      if (ch->keeper.counters().critical()) return false;
    }
    return true;
  });
  drain_outgoing();
  completed_.clear();  // Unconsumed posted-write acks.
  return result;
}

}  // namespace easydram::sys
