// Golden-hash regression test: every deterministic scenario's JSON payload
// is digested and compared against a checked-in hash, turning the
// repository's "bit-identical outputs" claims into an enforced invariant
// instead of a manual diff. fig14_sim_speed is excluded by design — its
// Ramulator column reads the host clock.
//
// When a change *intentionally* alters scenario output, run this suite
// with EASYDRAM_PRINT_GOLDEN=1 to print the new table, verify the diff is
// expected, and update kGolden below.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>

#include "cli/scenario.hpp"

namespace easydram::cli {
namespace {

/// FNV-1a 64-bit: tiny, dependency-free, and stable across platforms for
/// byte-identical input (which is exactly the claim under test).
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001B3ull;
  }
  return h;
}

struct GoldenEntry {
  const char* scenario;
  std::uint64_t hash;
};

/// Digests of each scenario's run_scenario() JSON under the default
/// RunOptions (seed 0x5AFA2125, iters 1, threads 1) — the same document
/// `easydram_cli --scenario NAME --quiet --out f.json` writes.
constexpr GoldenEntry kGolden[] = {
    {"ablation_batch_limit", 0x5FC0FED93B35E488ull},
    {"ablation_hardware_mc", 0x06B091933B0004DAull},
    {"ablation_rowclone_interleaving", 0xDDF09E5AFE864175ull},
    {"ablation_scheduler", 0x02ED3E8BFA40DBE3ull},
    {"channel_scaling", 0xC91348487B0729C2ull},
    {"ecc_vs_hammer", 0x22933A1122B58EAEull},
    {"fault_sweep", 0xAFBC440AD7F11E97ull},
    {"fig10_rowclone_noflush", 0x90B9DA5F28F443FFull},
    {"fig11_rowclone_clflush", 0x589F05103398A380ull},
    {"fig12_trcd_heatmap", 0x006FB08859876E4Full},
    {"fig13_trcd_speedup", 0xD8AE6DB2AF811381ull},
    {"fig2_breakdown", 0xD070C9DB79A7858Aull},
    {"fig8_latency_profile", 0x0BEC113C08C4FC67ull},
    {"latency_sweep", 0xA62476266726E912ull},
    {"mitigation_overhead", 0x44FF6F4B882509B9ull},
    {"qos_bank_partition", 0xC6CC1895D784AB1Aull},
    {"qos_mitigation", 0xED42D1BBCB2C9035ull},
    {"qos_mixed_tenants", 0xE834B07DB32CA8F6ull},
    {"qos_tenant_scaling", 0xFD316D25A77D8CACull},
    {"quickstart", 0x030BF38B297270D9ull},
    {"raidr_baseline", 0xF41CB380C1C0612Cull},
    {"raidr_misbinning", 0xEB18E22701594F4Eull},
    {"raidr_savings", 0xA27DF139B4AC7DEAull},
    {"raidr_vs_mitigation", 0xC92AB453CEB6CD09ull},
    {"rank_interleaving", 0x6B607F7263283940ull},
    {"rowhammer_baseline", 0x26297656C3C21DA7ull},
    {"rowhammer_graphene", 0x58C1ADC7E933FD8Cull},
    {"rowhammer_para", 0x97C61FB1735CA39Aull},
    {"scrub_raidr", 0xD4EAED7D14A4DB4Eull},
    {"stream_sweep", 0x59D22BAE68461BAFull},
    {"table1_platforms", 0x0F61635A17B1D40Cull},
    {"validation_timescale", 0x76793482AB8533D5ull},
};

std::uint64_t scenario_hash(const char* name) {
  const Scenario* s = ScenarioRegistry::instance().find(name);
  EXPECT_NE(s, nullptr) << name;
  if (s == nullptr) return 0;
  RunOptions opts;
  opts.verbose = false;
  return fnv1a(run_scenario(*s, opts).dump_string());
}

TEST(GoldenHashTest, DeterministicScenariosMatchCheckedInDigests) {
  const bool print = std::getenv("EASYDRAM_PRINT_GOLDEN") != nullptr;
  bool all_match = true;
  for (const GoldenEntry& g : kGolden) {
    const std::uint64_t h = scenario_hash(g.scenario);
    if (print) {
      printf("    {\"%s\", 0x%016llXull},\n", g.scenario,
             static_cast<unsigned long long>(h));
      all_match = all_match && h == g.hash;
      continue;
    }
    EXPECT_EQ(h, g.hash) << g.scenario
                         << ": scenario JSON changed. If intentional, rerun "
                            "with EASYDRAM_PRINT_GOLDEN=1 and update kGolden.";
  }
  if (print) {
    EXPECT_TRUE(all_match) << "printed table differs from kGolden";
  }
}

/// Cross-thread determinism sweep: every multi-channel deterministic
/// scenario must emit a bit-identical `results` payload at any `--threads`
/// value. Only the `results` member is compared because the envelope
/// records the requested `threads` value verbatim.
TEST(GoldenHashTest, MultiChannelScenariosThreadCountInvariant) {
  const char* kMultiChannel[] = {"channel_scaling", "rank_interleaving"};
  for (const char* name : kMultiChannel) {
    const Scenario* s = ScenarioRegistry::instance().find(name);
    ASSERT_NE(s, nullptr) << name;
    RunOptions base;
    base.verbose = false;
    base.channels = 8;  // Widest sweep point: 8-channel systems.
    const std::string serial =
        run_scenario(*s, base)["results"].dump_string();
    for (const int threads : {2, 4}) {
      RunOptions opts = base;
      opts.threads = threads;
      EXPECT_EQ(run_scenario(*s, opts)["results"].dump_string(), serial)
          << name << " diverged at --threads " << threads;
    }
  }
}

/// Stream identity rides through the request table, completion ring, and
/// per-stream latency histograms — every one a candidate for
/// thread-count-dependent ordering. The QoS scenarios must stay
/// bit-identical at any `--threads` value, like everything else.
TEST(GoldenHashTest, QosScenariosThreadCountInvariant) {
  const char* kQos[] = {"qos_tenant_scaling", "qos_bank_partition"};
  for (const char* name : kQos) {
    const Scenario* s = ScenarioRegistry::instance().find(name);
    ASSERT_NE(s, nullptr) << name;
    RunOptions base;
    base.verbose = false;
    const std::string serial =
        run_scenario(*s, base)["results"].dump_string();
    RunOptions opts = base;
    opts.threads = 4;
    EXPECT_EQ(run_scenario(*s, opts)["results"].dump_string(), serial)
        << name << " diverged at --threads 4";
  }
}

/// The sweep scenarios shard iters x (kernel x size) tasks across the
/// sweep pool. Their bandwidth/latency curves (and so the monotonicity
/// booleans the curves feed) must be bit-identical at any `--threads`
/// value.
TEST(GoldenHashTest, StreamSweepScenariosThreadCountInvariant) {
  const char* kSweeps[] = {"stream_sweep", "latency_sweep"};
  for (const char* name : kSweeps) {
    const Scenario* s = ScenarioRegistry::instance().find(name);
    ASSERT_NE(s, nullptr) << name;
    RunOptions base;
    base.verbose = false;
    const std::string serial =
        run_scenario(*s, base)["results"].dump_string();
    RunOptions opts = base;
    opts.threads = 4;
    EXPECT_EQ(run_scenario(*s, opts)["results"].dump_string(), serial)
        << name << " diverged at --threads 4";
  }
}

/// The registry growing a new scenario should force a conscious decision
/// about its determinism (add it to kGolden or document why not).
TEST(GoldenHashTest, EveryScenarioIsClassified) {
  std::size_t classified = std::size(kGolden) + 1;  // +1: fig14_sim_speed.
  EXPECT_EQ(ScenarioRegistry::instance().all().size(), classified)
      << "new scenario registered: classify it in test_golden.cpp";
}

}  // namespace
}  // namespace easydram::cli
