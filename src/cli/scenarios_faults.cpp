// End-to-end error-pipeline scenarios: deterministic fault injection
// (dram/faults.hpp) driven through SEC-DED demand decoding, bounded
// re-read retries, patrol scrubbing, and PPR-style row retirement
// (smc/ecc.hpp). Each scenario reads back every line it planted faults
// under and checks the pipeline's ground-truth escape counter — a read
// acknowledged ok with wrong data — stays zero: errors are corrected,
// retried, retired, or failed with a typed error, never silently eaten.
// Fifth technique family of this repository (after RowClone,
// reduced-tRCD, the RowHammer mitigators, and retention-aware refresh),
// and the first that composes with all of them.

#include <algorithm>
#include <array>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "cli/measure.hpp"
#include "cli/scenario.hpp"
#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "workloads/hammer.hpp"

namespace easydram::cli {
namespace {

using smc::mitigation::MitigationKind;

/// Emulated-processor cycles per refresh slot: how far `now` must advance
/// between submits for the pacing machinery to owe one more REF.
std::int64_t cycles_per_slot(const sys::SystemConfig& cfg) {
  return cfg.proc_domain.emulated_clock.ps_to_cycles_ceil(cfg.timing.tREFI);
}

/// The deterministic payload submit_write fabricates for `paddr` (same
/// derivation as EasyDramSystem::submit_write): scenarios replicate it to
/// aim planned stuck-at bits at cells whose stored value is known.
std::array<std::uint8_t, 64> demand_write_payload(std::uint64_t paddr) {
  std::array<std::uint8_t, 64> data{};
  SplitMix64 sm(paddr ^ 0xD47A);
  for (std::size_t w = 0; w < data.size(); w += 8) {
    const std::uint64_t v = sm.next();
    std::memcpy(data.data() + w, &v, 8);
  }
  return data;
}

/// (byte_in_line, bit) positions of word `word_idx` whose stored bit is 1:
/// forcing any of them to 0 guarantees every read differs from the data
/// the check bits protect (a stuck bit that matches the stored value would
/// never manifest).
std::vector<std::pair<std::uint32_t, std::uint32_t>> set_bits_of_word(
    const std::array<std::uint8_t, 64>& data, std::uint32_t word_idx) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
  for (std::uint32_t b = 0; b < 8; ++b) {
    const std::uint32_t byte = word_idx * 8 + b;
    for (std::uint32_t bit = 0; bit < 8; ++bit) {
      if ((data[byte] >> bit) & 1u) out.emplace_back(byte, bit);
    }
  }
  return out;
}

/// Error-pipeline accounting of one measured run.
struct PipelineOutcome {
  std::int64_t corrected = 0;
  std::int64_t uncorrectable = 0;
  std::int64_t scrub_reads = 0;
  std::int64_t retries = 0;
  std::int64_t retired = 0;
  std::int64_t escaped = 0;
  std::int64_t manifested = 0;      ///< Sticky flips the device manifested.
  std::int64_t faulty_served = 0;   ///< Reads the device altered (ground truth).
  std::int64_t reads = 0;           ///< Demand reads the scenario issued.
  std::int64_t failed_reads = 0;    ///< Typed kUncorrectable completions.
  std::int64_t unreliable_ok = 0;   ///< ok completions flagged data_reliable=false.
  double wall_us = 0;
};

void fill_stats(PipelineOutcome& o, sys::EasyDramSystem& sysm) {
  const smc::ApiStats s = sysm.smc_stats();
  o.corrected = s.ecc_corrected;
  o.uncorrectable = s.ecc_uncorrectable;
  o.scrub_reads = s.scrub_reads;
  o.retries = s.retries_issued;
  o.retired = s.rows_retired;
  o.escaped = s.ecc_escaped;
  for (std::uint32_t ch = 0; ch < sysm.num_channels(); ++ch) {
    if (const dram::FaultModel* fm = sysm.device(ch).fault_model()) {
      o.manifested += fm->faults_manifested();
      o.faulty_served += fm->faulty_reads_served();
    }
  }
  o.wall_us = sysm.wall().microseconds();
}

Json outcome_json(const PipelineOutcome& o) {
  Json j = Json::object();
  j["ecc_corrected"] = o.corrected;
  j["ecc_uncorrectable"] = o.uncorrectable;
  j["scrub_reads"] = o.scrub_reads;
  j["retries_issued"] = o.retries;
  j["rows_retired"] = o.retired;
  j["ecc_escaped"] = o.escaped;
  j["faults_manifested"] = o.manifested;
  j["faulty_reads_served"] = o.faulty_served;
  j["demand_reads"] = o.reads;
  j["failed_reads"] = o.failed_reads;
  j["unreliable_ok_reads"] = o.unreliable_ok;
  j["wall_us"] = o.wall_us;
  return j;
}

// --- fault_sweep ----------------------------------------------------------

/// Random-transient rates swept (per-read upset probability). Rate 0 keeps
/// only the planned faults, whose outcome is exactly predictable: the
/// single stuck bit is a CE on every read until the CE threshold retires
/// its row; the double stuck bit is a hard UE (typed error, immediate
/// retirement — the spare is fault-free, so later passes read clean); the
/// scheduled double-bit transient recovers on the first bounded retry.
constexpr double kFaultRates[] = {0.0, 0.02, 0.1, 0.3};
constexpr std::uint32_t kSweepLines = 40;
constexpr int kSweepPasses = 5;  ///< > ce_retire_threshold: the CE row retires.
constexpr std::uint32_t kSweepBank = 2;
constexpr std::uint32_t kSweepBaseRow = 64;
constexpr std::uint32_t kSweepCol = 3;
constexpr std::uint32_t kStuckSingleLine = 5;
constexpr std::uint32_t kStuckDoubleLine = 9;
constexpr std::uint32_t kTransientLine = 2;

sys::SystemConfig fault_sweep_config(std::uint64_t seed, double rate) {
  sys::SystemConfig cfg = sys::jetson_nano_time_scaling();
  cfg.variation.seed = seed;
  cfg.ecc.enabled = true;
  cfg.faults.enabled = true;
  cfg.faults.seed = hash_mix(seed, 0xFA017u);
  cfg.faults.transient_read_rate = rate;

  const auto mapper = smc::make_mapper(cfg.mapping, cfg.geometry);
  const std::uint32_t fbank = cfg.geometry.flat_bank(0, kSweepBank);
  {
    // One stuck bit -> a CE on every read (predictive retirement fodder).
    const dram::DramAddress a{kSweepBank, kSweepBaseRow + kStuckSingleLine,
                              kSweepCol};
    const auto bits = set_bits_of_word(demand_write_payload(mapper->to_physical(a)), 1);
    EASYDRAM_EXPECTS(!bits.empty());
    cfg.faults.plan.stuck.push_back(
        {fbank, a.row, a.col, bits[0].first, bits[0].second, 0});
  }
  {
    // Two stuck bits in one 64-bit word -> a hard (detected) UE.
    const dram::DramAddress a{kSweepBank, kSweepBaseRow + kStuckDoubleLine,
                              kSweepCol};
    const auto bits = set_bits_of_word(demand_write_payload(mapper->to_physical(a)), 2);
    EASYDRAM_EXPECTS(bits.size() >= 2);
    cfg.faults.plan.stuck.push_back(
        {fbank, a.row, a.col, bits[0].first, bits[0].second, 0});
    cfg.faults.plan.stuck.push_back(
        {fbank, a.row, a.col, bits[1].first, bits[1].second, 0});
  }
  {
    // Scheduled double-bit transient on the first read of its line: decodes
    // as a UE, then the bounded re-read observes clean data — the
    // transient/hard distinction the retry policy exists for.
    const dram::DramAddress a{kSweepBank, kSweepBaseRow + kTransientLine,
                              kSweepCol};
    cfg.faults.plan.transient.push_back({Picoseconds{0}, fbank, a.row, a.col,
                                         /*byte_in_line=*/28, /*xor_mask=*/0x3});
  }
  return cfg;
}

PipelineOutcome run_fault_sweep_cell(const sys::SystemConfig& cfg) {
  sys::EasyDramSystem sysm(cfg);
  const smc::AddressMapper& mapper = sysm.mapper();
  auto paddr_of = [&](std::uint32_t j) {
    return mapper.to_physical(
        dram::DramAddress{kSweepBank, kSweepBaseRow + j, kSweepCol});
  };

  PipelineOutcome o;
  std::int64_t now = 100;
  for (std::uint32_t j = 0; j < kSweepLines; ++j) {
    now += 200;
    sysm.wait(sysm.submit_write(paddr_of(j), now));
  }
  for (int pass = 0; pass < kSweepPasses; ++pass) {
    for (std::uint32_t j = 0; j < kSweepLines; ++j) {
      now += 400;
      const cpu::Completion c = sysm.wait(sysm.submit_read(paddr_of(j), now));
      ++o.reads;
      if (!c.ok) ++o.failed_reads;
      if (c.ok && !c.data_reliable) ++o.unreliable_ok;
    }
  }
  fill_stats(o, sysm);
  return o;
}

Json run_fault_sweep(const RunOptions& opts) {
  const auto all = sweep(
      opts, std::size(kFaultRates), [](std::uint64_t seed, std::size_t point) {
        return run_fault_sweep_cell(
            fault_sweep_config(seed, kFaultRates[point]));
      });

  Json rows = Json::array();
  for (std::size_t i = 0; i < std::size(kFaultRates); ++i) {
    Json j = outcome_json(all.rep(0)[i]);
    j["transient_read_rate"] = kFaultRates[i];
    rows.push_back(std::move(j));
  }

  // Headlines over every repetition and rate: no silent wrong answers, and
  // the planned-fault dynamics at rate 0 land exactly as designed.
  auto rep_escapes = [](std::span<const PipelineOutcome> r) {
    std::int64_t escapes = 0;
    for (const PipelineOutcome& o : r) escapes += o.escaped;
    return escapes;
  };
  bool zero_escaped = true;
  bool planned_faults_handled = true;
  for (int r = 0; r < all.reps(); ++r) {
    zero_escaped = zero_escaped && rep_escapes(all.rep(r)) == 0;
    const PipelineOutcome& clean = all.rep(r)[0];  // Planned faults only.
    planned_faults_handled = planned_faults_handled &&
                             clean.corrected == 4 && clean.uncorrectable == 1 &&
                             clean.retries == 3 && clean.retired == 2 &&
                             clean.failed_reads == 1;
  }

  Json out = Json::object();
  out["rates"] = std::move(rows);
  out["read_passes"] = kSweepPasses;
  out["lines"] = static_cast<std::int64_t>(kSweepLines);
  out["zero_escaped_all_rates"] = zero_escaped;
  out["planned_faults_handled_exactly"] = planned_faults_handled;
  out["escaped_per_rep"] =
      per_rep_json(all, [&](std::span<const PipelineOutcome> r) {
        return static_cast<double>(rep_escapes(r));
      });
  return out;
}

// --- ecc_vs_hammer --------------------------------------------------------

constexpr MitigationKind kHammerMitKinds[] = {MitigationKind::kNone,
                                              MitigationKind::kGraphene};
/// Victim disturbance count at which the fault model flips cells. The
/// unmitigated double-sided kernel exposes the middle victim 2x rounds and
/// the outer victims 1x rounds — both beyond the threshold — while
/// Graphene's targeted refreshes (threshold 128) reset the ground-truth
/// counters two decades earlier, so no victim ever accumulates 1024.
constexpr std::int64_t kHammerFlipThreshold = 1024;

sys::SystemConfig ecc_vs_hammer_config(std::uint64_t seed, MitigationKind mk) {
  sys::SystemConfig cfg = sys::jetson_nano_time_scaling();
  cfg.variation.seed = seed;
  cfg.track_row_hammer = true;
  cfg.mitigation.kind = mk;
  // Same stream seeding as the rowhammer scenarios: mixed so it never
  // aliases the chip's variation stream.
  cfg.mitigation.seed = hash_mix(seed, 0x4A77E12u);
  cfg.ecc.enabled = true;
  cfg.ecc.scrub = true;
  cfg.faults.enabled = true;
  cfg.faults.seed = hash_mix(seed, 0xFA017u);
  cfg.faults.hammer_flip_threshold = kHammerFlipThreshold;
  cfg.faults.hammer_flip_cells = 4;
  return cfg;
}

PipelineOutcome run_ecc_vs_hammer_cell(const sys::SystemConfig& cfg,
                                       const workloads::HammerParams& hp) {
  sys::EasyDramSystem sysm(cfg);
  const smc::AddressMapper& mapper = sysm.mapper();
  const std::vector<std::uint32_t> victims =
      workloads::hammer_victim_rows(hp, cfg.geometry);

  // Setup phase: protect every line of every victim row (flips land on
  // fault-model-chosen columns, so coverage must be full-row). Backdoor
  // writes plus explicit check-bit stores — the uncharged setup idiom.
  smc::ErrorPolicy* ep = sysm.error_policy(0);
  EASYDRAM_EXPECTS(ep != nullptr);
  const std::uint32_t fbank = cfg.geometry.flat_bank(hp.rank, hp.bank);
  for (const std::uint32_t row : victims) {
    for (std::uint32_t col = 0; col < cfg.geometry.cols_per_row(); ++col) {
      const dram::DramAddress a{hp.bank, row, col, hp.channel, hp.rank};
      const auto data = demand_write_payload(mapper.to_physical(a));
      sysm.device(0).backdoor_write(a, data);
      ep->note_write(fbank, row, col, data);
    }
  }

  // The attack, then a full read-back of every victim line.
  std::vector<cpu::TraceRecord> records = workloads::make_hammer_trace(hp, mapper);
  const cpu::RunResult res = [&] {
    cpu::VectorTrace trace(std::move(records));
    return sysm.run(trace);
  }();

  PipelineOutcome o;
  std::int64_t now = res.cycles + 1000;
  for (const std::uint32_t row : victims) {
    for (std::uint32_t col = 0; col < cfg.geometry.cols_per_row(); ++col) {
      const dram::DramAddress a{hp.bank, row, col, hp.channel, hp.rank};
      now += 400;
      const cpu::Completion c =
          sysm.wait(sysm.submit_read(mapper.to_physical(a), now));
      ++o.reads;
      if (!c.ok) ++o.failed_reads;
      if (c.ok && !c.data_reliable) ++o.unreliable_ok;
    }
  }
  fill_stats(o, sysm);
  return o;
}

Json run_ecc_vs_hammer(const RunOptions& opts) {
  workloads::HammerParams hp;
  hp.pattern = workloads::HammerPattern::kDoubleSided;

  const auto all = sweep(
      opts, std::size(kHammerMitKinds),
      [&](std::uint64_t seed, std::size_t point) {
        return run_ecc_vs_hammer_cell(
            ecc_vs_hammer_config(seed, kHammerMitKinds[point]), hp);
      });

  Json rows = Json::array();
  for (std::size_t i = 0; i < std::size(kHammerMitKinds); ++i) {
    Json j = outcome_json(all.rep(0)[i]);
    j["mitigation"] = smc::mitigation::to_string(kHammerMitKinds[i]);
    rows.push_back(std::move(j));
  }

  bool zero_escaped = true;
  bool unmitigated_flips = true;   // The attack actually flips bits...
  bool graphene_prevents = true;   // ...and Graphene prevents all of them.
  for (int r = 0; r < all.reps(); ++r) {
    const PipelineOutcome& none = all.rep(r)[0];
    const PipelineOutcome& graphene = all.rep(r)[1];
    zero_escaped = zero_escaped && none.escaped == 0 && graphene.escaped == 0;
    unmitigated_flips = unmitigated_flips && none.manifested > 0;
    graphene_prevents = graphene_prevents && graphene.manifested == 0;
  }

  Json out = Json::object();
  out["hammer_rounds"] = hp.rounds;
  out["flip_threshold"] = kHammerFlipThreshold;
  out["cells"] = std::move(rows);
  out["zero_escaped_all_cells"] = zero_escaped;
  out["unmitigated_attack_flips_bits"] = unmitigated_flips;
  out["graphene_prevents_all_flips"] = graphene_prevents;
  out["unmitigated_flips_per_rep"] =
      per_rep_json(all, [](std::span<const PipelineOutcome> r) {
        return static_cast<double>(r[0].manifested);
      });
  return out;
}

// --- scrub_raidr ----------------------------------------------------------

constexpr std::uint32_t kScrubRows = 512;   ///< Written rows (8 per stripe).
constexpr std::uint32_t kScrubRowStride = 64;
constexpr int kScrubPasses = 5;
constexpr std::int64_t kScrubRoundsPerPass = 2;

/// The raidr_misbinning time-compressed chamber (64-slot refresh rounds,
/// retention rescaled to match) with the weakness probabilities raised so
/// the 512 written rows contain several weak rows, and the profiler
/// sampling stride at its sparsest: RAIDR overbins the stripes whose weak
/// rows it never sampled and stops refreshing them often enough. With
/// retention flips on, the decayed cells actually corrupt — the scrub-off
/// cell shows demand reads eating CEs and typed UE failures; the scrub-on
/// cell catches the decay during the (skipped) refresh slots' patrol
/// window, writes back corrected data, and retires uncorrectable rows
/// before demand traffic ever sees them.
sys::SystemConfig scrub_raidr_config(std::uint64_t seed, bool scrub) {
  using namespace easydram::literals;
  sys::SystemConfig cfg = sys::jetson_nano_time_scaling();
  cfg.variation.seed = seed;
  cfg.refresh = smc::RefreshKind::kRaidr;
  cfg.geometry.refresh_window_refs = 64;  // Round = 64 x tREFI ~ 499 us.
  cfg.variation.retention_base = 560_us;
  cfg.variation.retention_p_weakest = 6e-3;
  cfg.variation.retention_p_weak = 1.2e-2;
  cfg.track_retention = true;
  cfg.retention_profiler.sample_stride = 256;
  cfg.faults.enabled = true;
  cfg.faults.seed = hash_mix(seed, 0xFA017u);
  cfg.faults.retention_flips = true;
  cfg.ecc.enabled = true;
  cfg.ecc.scrub = scrub;
  cfg.ecc.scrub_lines_per_slot = 4;
  return cfg;
}

PipelineOutcome run_scrub_raidr_cell(const sys::SystemConfig& cfg) {
  sys::EasyDramSystem sysm(cfg);
  const smc::AddressMapper& mapper = sysm.mapper();
  auto paddr_of = [&](std::uint32_t i) {
    return mapper.to_physical(dram::DramAddress{0, i * kScrubRowStride, 0});
  };

  PipelineOutcome o;
  std::int64_t now = 100;
  for (std::uint32_t i = 0; i < kScrubRows; ++i) {
    now += 100;
    sysm.wait(sysm.submit_write(paddr_of(i), now));
  }
  // Each pass first idles across whole refresh rounds of emulated time —
  // skipped stripes outlive their weak rows' retention — then reads every
  // written line back.
  const std::int64_t pass_gap =
      kScrubRoundsPerPass * cfg.geometry.refresh_window_refs *
      cycles_per_slot(cfg);
  for (int pass = 0; pass < kScrubPasses; ++pass) {
    now += pass_gap;
    for (std::uint32_t i = 0; i < kScrubRows; ++i) {
      now += 50;
      const cpu::Completion c = sysm.wait(sysm.submit_read(paddr_of(i), now));
      ++o.reads;
      if (!c.ok) ++o.failed_reads;
      if (c.ok && !c.data_reliable) ++o.unreliable_ok;
    }
  }
  fill_stats(o, sysm);
  return o;
}

Json run_scrub_raidr(const RunOptions& opts) {
  // Points: scrub off, scrub on.
  const auto all = sweep(opts, 2, [](std::uint64_t seed, std::size_t point) {
    return run_scrub_raidr_cell(scrub_raidr_config(seed, point == 1));
  });

  Json rows = Json::array();
  for (std::size_t i = 0; i < 2; ++i) {
    Json j = outcome_json(all.rep(0)[i]);
    j["scrub"] = i == 1;
    rows.push_back(std::move(j));
  }

  bool zero_escaped = true;
  bool decay_observed = true;       // The chamber actually corrupts cells...
  bool scrub_shields_demand = true; // ...and scrubbing absorbs the damage.
  for (int r = 0; r < all.reps(); ++r) {
    const PipelineOutcome& off = all.rep(r)[0];
    const PipelineOutcome& on = all.rep(r)[1];
    zero_escaped = zero_escaped && off.escaped == 0 && on.escaped == 0;
    decay_observed = decay_observed && off.manifested > 0;
    scrub_shields_demand = scrub_shields_demand && on.scrub_reads > 0 &&
                           on.failed_reads <= off.failed_reads;
  }

  Json out = Json::object();
  out["window_refs"] = 64;
  out["rows_written"] = static_cast<std::int64_t>(kScrubRows);
  out["read_passes"] = kScrubPasses;
  out["cells"] = std::move(rows);
  out["zero_escaped_all_cells"] = zero_escaped;
  out["decay_observed_without_scrub"] = decay_observed;
  out["scrub_never_increases_demand_failures"] = scrub_shields_demand;
  out["demand_failures_avoided_per_rep"] =
      per_rep_json(all, [](std::span<const PipelineOutcome> r) {
        return static_cast<double>(r[0].failed_reads - r[1].failed_reads);
      });
  return out;
}

}  // namespace

void register_faults_scenarios(ScenarioRegistry& r) {
  r.add({"fault_sweep",
         "Deterministic fault injection vs the full error pipeline",
         "EasyDRAM (DSN 2025), extension beyond §7-§8", &run_fault_sweep,
         {{"rates",
           {{"transient_read_rate", "Rate"},
            {"ecc_corrected", "CE"},
            {"ecc_uncorrectable", "UE"},
            {"retries_issued", "retries"},
            {"rows_retired", "retired"},
            {"failed_reads", "failed reads"},
            {"ecc_escaped", "escaped"}}}},
         "Every read lands on a written (ECC-protected) line: faults\n"
         "are corrected (CE), recovered by a bounded re-read (planned\n"
         "transient), or detected and failed with a typed error after\n"
         "retirement (double stuck bit). 'escaped' counts ok-acked\n"
         "reads whose data mismatched the stored cells - it must be 0\n"
         "at every rate."});
  r.add({"ecc_vs_hammer",
         "Hammer-induced bitflips under ECC, retirement, and Graphene",
         "EasyDRAM (DSN 2025), extension beyond §7-§8", &run_ecc_vs_hammer,
         {{"cells",
           {{"mitigation", "Mitigation"},
            {"faults_manifested", "flips manifested"},
            {"ecc_corrected", "CE"},
            {"ecc_uncorrectable", "UE"},
            {"rows_retired", "retired"},
            {"failed_reads", "failed reads"},
            {"ecc_escaped", "escaped"}}}},
         "Unmitigated, the double-sided kernel pushes every victim\n"
         "past the flip threshold: ECC corrects the single-bit flips,\n"
         "retires rows, and fails double-bit lines with typed errors\n"
         "- never a silent wrong answer. Graphene resets the\n"
         "ground-truth victim counters long before the threshold, so\n"
         "no flip ever manifests: mitigation and ECC compose."});
  r.add({"scrub_raidr",
         "Patrol scrub catching RAIDR-misbinned decay (time-compressed)",
         "EasyDRAM (DSN 2025), extension beyond §7-§8; RAIDR (ISCA 2012)",
         &run_scrub_raidr,
         {{"cells",
           {{"scrub", "Scrub"},
            {"scrub_reads", "scrub reads"},
            {"ecc_corrected", "CE"},
            {"ecc_uncorrectable", "UE"},
            {"rows_retired", "retired"},
            {"failed_reads", "failed reads"},
            {"ecc_escaped", "escaped"}}}},
         "Sparse profiling overbins stripes holding unsampled weak\n"
         "rows; RAIDR then under-refreshes them and their cells decay\n"
         "(sticky flips). Without scrubbing, demand reads absorb the\n"
         "CEs and typed UE failures; the patrol scrubber - riding the\n"
         "very refresh slots RAIDR skips - corrects and write-backs\n"
         "decayed lines (and retires dead rows) before demand traffic\n"
         "reaches them. Escapes must be zero either way."});
}

}  // namespace easydram::cli
