// Memory-system scaling scenarios: throughput of the multi-channel /
// multi-rank subsystem under each address mapping. These are repository
// extensions beyond the paper's single-channel case study (§7.2); the
// 1-channel/1-rank row in every table is the paper's configuration.

#include <algorithm>
#include <string>
#include <vector>

#include "cli/measure.hpp"
#include "cli/scenario.hpp"

namespace easydram::cli {
namespace {

constexpr smc::MappingKind kMappings[] = {
    smc::MappingKind::kLinear,
    smc::MappingKind::kLineInterleaved,
    smc::MappingKind::kChannelInterleaved,
};

/// Requests per microsecond of FPGA wall time for a burst of independent
/// reads driven straight into the memory backend (no core model in the
/// way): the bank/channel-parallel workload the scaling studies need. The
/// stride-64 burst touches consecutive cache lines, so the mapper's bit
/// placement alone decides how much channel/rank/bank parallelism the
/// subsystem can extract.
double read_burst_throughput(const sys::SystemConfig& cfg, int n_requests) {
  sys::EasyDramSystem sysm(cfg);
  std::vector<std::uint64_t> ids;
  ids.reserve(static_cast<std::size_t>(n_requests));
  for (int i = 0; i < n_requests; ++i) {
    ids.push_back(sysm.submit_read(static_cast<std::uint64_t>(i) * 64,
                                   /*now=*/100 + i));
  }
  for (const std::uint64_t id : ids) sysm.wait(id);
  return static_cast<double>(n_requests) / sysm.wall().microseconds();
}

sys::SystemConfig memsys_config(std::uint64_t seed, std::uint32_t channels,
                                std::uint32_t ranks, smc::MappingKind mapping) {
  sys::SystemConfig cfg = sys::jetson_nano_time_scaling();
  cfg.variation.seed = seed;
  cfg.geometry.channels = channels;
  cfg.geometry.ranks_per_channel = ranks;
  cfg.mapping = mapping;
  return cfg;
}

constexpr int kBurstRequests = 256;

// --- channel_scaling ------------------------------------------------------

/// Aggregate read throughput as the channel count grows, for every mapper.
/// Expected shape: channel-interleaved mapping scales near-linearly with
/// channels (consecutive lines spread across every channel's bus and
/// controller); linear mapping keeps the burst on one channel and cannot
/// scale.
Json run_channel_scaling(const RunOptions& opts) {
  std::vector<std::uint32_t> channel_counts{1, 2, 4};
  if (std::find(channel_counts.begin(), channel_counts.end(), opts.channels) ==
      channel_counts.end()) {
    channel_counts.push_back(opts.channels);
    std::sort(channel_counts.begin(), channel_counts.end());
  }

  const std::size_t n_mappings = std::size(kMappings);
  const auto all = sweep(opts, channel_counts.size() * n_mappings,
                         [&](std::uint64_t seed, std::size_t point) {
                           return read_burst_throughput(
                               memsys_config(seed,
                                             channel_counts[point / n_mappings],
                                             opts.ranks,
                                             kMappings[point % n_mappings]),
                               kBurstRequests);
                         });

  Json rows = Json::array();
  const std::span<const double> rep0 = all.rep(0);
  const double base_channel_tp = rep0[n_mappings - 1];  // 1 ch, channel map.
  for (std::size_t ci = 0; ci < channel_counts.size(); ++ci) {
    const double lin = rep0[ci * n_mappings + 0];
    const double line = rep0[ci * n_mappings + 1];
    const double chan = rep0[ci * n_mappings + 2];
    Json j = Json::object();
    j["channels"] = static_cast<std::int64_t>(channel_counts[ci]);
    j["ranks"] = static_cast<std::int64_t>(opts.ranks);
    j["linear_req_per_us"] = lin;
    j["line_req_per_us"] = line;
    j["channel_req_per_us"] = chan;
    j["channel_speedup_vs_1ch"] = chan / base_channel_tp;
    rows.push_back(std::move(j));
  }

  Json out = Json::object();
  out["requests"] = kBurstRequests;
  out["points"] = std::move(rows);
  // Per-repetition aggregate: does the widest channel-interleaved sweep
  // point beat single-channel on this repetition's synthetic chips?
  const std::size_t widest = channel_counts.size() - 1;
  out["widest_channel_speedup_per_rep"] =
      per_rep_json(all, [&](std::span<const double> r) {
        return r[widest * n_mappings + 2] / r[n_mappings - 1];
      });
  return out;
}

// --- rank_interleaving ----------------------------------------------------

/// Read throughput of 1 vs 2 (and --ranks) ranks per channel under every
/// mapper. Rank bits sit directly above the bank bits in the line- and
/// channel-interleaved layouts, so a burst alternates ranks; because one
/// software controller serves a channel's requests one batch at a time,
/// the visible effect is the tRTRS bus turnaround between ranks, not a
/// bank-pool win — the honest cost of rank interleaving under a serial
/// software MC.
Json run_rank_interleaving(const RunOptions& opts) {
  std::vector<std::uint32_t> rank_counts{1, 2};
  if (std::find(rank_counts.begin(), rank_counts.end(), opts.ranks) ==
      rank_counts.end()) {
    rank_counts.push_back(opts.ranks);
    std::sort(rank_counts.begin(), rank_counts.end());
  }

  const std::size_t n_mappings = std::size(kMappings);
  const auto all = sweep(opts, rank_counts.size() * n_mappings,
                         [&](std::uint64_t seed, std::size_t point) {
                           return read_burst_throughput(
                               memsys_config(seed, opts.channels,
                                             rank_counts[point / n_mappings],
                                             kMappings[point % n_mappings]),
                               kBurstRequests);
                         });

  Json rows = Json::array();
  const std::span<const double> rep0 = all.rep(0);
  for (std::size_t ri = 0; ri < rank_counts.size(); ++ri) {
    const double lin = rep0[ri * n_mappings + 0];
    const double line = rep0[ri * n_mappings + 1];
    const double chan = rep0[ri * n_mappings + 2];
    Json j = Json::object();
    j["ranks"] = static_cast<std::int64_t>(rank_counts[ri]);
    j["channels"] = static_cast<std::int64_t>(opts.channels);
    j["linear_req_per_us"] = lin;
    j["line_req_per_us"] = line;
    j["channel_req_per_us"] = chan;
    rows.push_back(std::move(j));
  }

  Json out = Json::object();
  out["requests"] = kBurstRequests;
  out["points"] = std::move(rows);
  out["line_2rank_speedup_per_rep"] =
      per_rep_json(all, [&](std::span<const double> r) {
        return r[n_mappings + 1] / r[1];
      });
  return out;
}

}  // namespace

void register_memsys_scenarios(ScenarioRegistry& r) {
  r.add({"channel_scaling",
         "Read-burst throughput vs channel count for each address mapping",
         "EasyDRAM (DSN 2025), extension beyond §7.2", &run_channel_scaling,
         {{"points",
           {{"channels", "Channels"},
            {"linear_req_per_us", "linear (req/us)"},
            {"line_req_per_us", "line (req/us)"},
            {"channel_req_per_us", "channel (req/us)"},
            {"channel_speedup_vs_1ch", "channel speedup vs 1ch"}}}},
         "Expected shape: the channel-interleaved mapping spreads\n"
         "the burst across every channel's bus and software\n"
         "controller, so throughput grows with the channel count;\n"
         "the row-linear mapping pins the burst to channel 0 and\n"
         "stays flat. 1 channel x 1 rank is the paper's §7.2 system."});
  r.add({"rank_interleaving",
         "Read-burst throughput of 1 vs 2 ranks/channel for each mapping",
         "EasyDRAM (DSN 2025), extension beyond §7.2", &run_rank_interleaving,
         {{"points",
           {{"ranks", "Ranks/channel"},
            {"linear_req_per_us", "linear (req/us)"},
            {"line_req_per_us", "line (req/us)"},
            {"channel_req_per_us", "channel (req/us)"}}}},
         "Expected shape: the linear mapping never leaves rank 0,\n"
         "so its row is flat; the interleaved mappings alternate\n"
         "ranks and pay the tRTRS bus turnaround on every switch.\n"
         "A channel's software controller serves one command batch\n"
         "at a time, so rank interleaving costs a little instead of\n"
         "scaling — channels (one controller each) are the scaling\n"
         "axis, which is exactly what channel_scaling shows."});
}

}  // namespace easydram::cli
