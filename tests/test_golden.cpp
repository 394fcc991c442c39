// Golden-hash regression test: every deterministic scenario's JSON payload
// is digested and compared against a checked-in hash, turning the
// repository's "bit-identical outputs" claims into an enforced invariant
// instead of a manual diff. fig14_sim_speed is excluded by design — its
// Ramulator column reads the host clock.
//
// Each kGolden row is its own test instance and its own CTest entry
// (test_golden.<scenario>; tests/CMakeLists.txt reads the rows from this
// file), as is each thread-count sweep, so `ctest -j` runs them in
// parallel and a failure names its scenario.
//
// Each digested run document is also drawn by print_scenario, and every
// column path of the scenario's verbose tables must resolve in it.
//
// When a change *intentionally* alters scenario output, run this suite
// with EASYDRAM_PRINT_GOLDEN=1 to print the new table, verify the diff is
// expected, and update kGolden below.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <sstream>
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
  std::uint64_t hash;         ///< Default options: iters 1, threads 1.
  std::uint64_t iters2_hash;  ///< iters 2, threads 3, or kUnpinned.
};

/// iters2_hash of the five slowest scenarios (each takes seconds per
/// repetition), which only the iters-1 digest pins.
constexpr std::uint64_t kUnpinned = 0;

/// Digests of each scenario's run_scenario() JSON under the default
/// RunOptions (seed 0x5AFA2125, iters 1, threads 1) — the same document
/// `easydram_cli --scenario NAME --quiet --out f.json` writes — and under
/// --iters 2 --threads 3. At iters 1 every per-rep fold reduces to rep 0;
/// the second digest pins the [rep][point] indexing of the later reps, with
/// 2 x points tasks split unevenly over three threads.
constexpr GoldenEntry kGolden[] = {
    {"ablation_batch_limit", 0x5FC0FED93B35E488ull, 0xC8C38C55A1233264ull},
    {"ablation_hardware_mc", 0x06B091933B0004DAull, 0x8319C02EB4909A23ull},
    {"ablation_rowclone_interleaving", 0xDDF09E5AFE864175ull, 0xE60139032965A490ull},
    {"ablation_scheduler", 0x02ED3E8BFA40DBE3ull, 0xEE67109DC97EE2F1ull},
    {"channel_scaling", 0xC91348487B0729C2ull, 0x3E18F3A79751AB77ull},
    {"ecc_vs_hammer", 0x22933A1122B58EAEull, 0x08708D1021FA06ACull},
    {"fault_sweep", 0xAFBC440AD7F11E97ull, 0xD895F1CFAA3939F8ull},
    {"fig10_rowclone_noflush", 0x90B9DA5F28F443FFull, kUnpinned},
    {"fig11_rowclone_clflush", 0x589F05103398A380ull, kUnpinned},
    {"fig12_trcd_heatmap", 0x006FB08859876E4Full, 0x636587D3A9C02AA8ull},
    {"fig13_trcd_speedup", 0xD8AE6DB2AF811381ull, kUnpinned},
    {"fig2_breakdown", 0xD070C9DB79A7858Aull, 0x0F0394B389047985ull},
    {"fig8_latency_profile", 0x0BEC113C08C4FC67ull, kUnpinned},
    {"latency_sweep", 0xA62476266726E912ull, 0xA762D76B4AA3C5F7ull},
    {"mitigation_overhead", 0x44FF6F4B882509B9ull, 0xC18F6CF29CC0BC48ull},
    {"qos_bank_partition", 0xC6CC1895D784AB1Aull, 0x3FEBF518ECEBBFA5ull},
    {"qos_mitigation", 0xED42D1BBCB2C9035ull, 0xC007907C1529D0CFull},
    {"qos_mixed_tenants", 0xE834B07DB32CA8F6ull, 0x17957D853D466AABull},
    {"qos_tenant_scaling", 0xFD316D25A77D8CACull, 0x9026B4A95AC73556ull},
    {"quickstart", 0x030BF38B297270D9ull, 0xB87C0F8714DBA9F1ull},
    {"raidr_baseline", 0xF41CB380C1C0612Cull, 0xEF3C8C3149FAEA9Bull},
    {"raidr_misbinning", 0xEB18E22701594F4Eull, 0x0E12839E145DFCF3ull},
    {"raidr_savings", 0xA27DF139B4AC7DEAull, 0x8584FF57F1409EB9ull},
    {"raidr_vs_mitigation", 0xC92AB453CEB6CD09ull, 0x3698FB32DC4A4373ull},
    {"rank_interleaving", 0x6B607F7263283940ull, 0xEAD548215D6F1466ull},
    {"rowhammer_baseline", 0x26297656C3C21DA7ull, 0x42143A48715D4DEEull},
    {"rowhammer_graphene", 0x58C1ADC7E933FD8Cull, 0xA206455B7C15ED41ull},
    {"rowhammer_para", 0x97C61FB1735CA39Aull, 0x05C2528334B8F8E4ull},
    {"scrub_raidr", 0xD4EAED7D14A4DB4Eull, 0x0190C393E1F5D99Cull},
    {"stream_sweep", 0x59D22BAE68461BAFull, 0x00630DF803880C6Eull},
    {"table1_platforms", 0x0F61635A17B1D40Cull, 0x7FD71D8DD20AB8A8ull},
    {"validation_timescale", 0x76793482AB8533D5ull, kUnpinned},
};

std::uint64_t scenario_hash(const char* name, int iters = 1, int threads = 1) {
  const Scenario* s = ScenarioRegistry::instance().find(name);
  EXPECT_NE(s, nullptr) << name;
  if (s == nullptr) return 0;
  RunOptions opts;
  opts.iters = iters;
  opts.threads = threads;
  const Json doc = run_scenario(*s, opts);
  std::ostringstream verbose;
  for (const std::string& cell : print_scenario(verbose, *s, doc)) {
    ADD_FAILURE() << name << ": verbose column " << cell << " does not resolve";
  }
  return fnv1a(doc.dump_string());
}

std::uint64_t iters2_hash(const GoldenEntry& g) {
  return g.iters2_hash == kUnpinned ? kUnpinned : scenario_hash(g.scenario, 2, 3);
}

bool print_mode() { return std::getenv("EASYDRAM_PRINT_GOLDEN") != nullptr; }

class GoldenDigest : public ::testing::TestWithParam<GoldenEntry> {};

TEST_P(GoldenDigest, DeterministicScenariosMatchCheckedInDigests) {
  if (print_mode()) GTEST_SKIP() << "GoldenHashTest.PrintTable prints the table";
  const GoldenEntry& g = GetParam();
  EXPECT_EQ(scenario_hash(g.scenario), g.hash)
      << g.scenario
      << ": scenario JSON changed. If intentional, rerun "
         "with EASYDRAM_PRINT_GOLDEN=1 and update kGolden.";
}

TEST_P(GoldenDigest, TwoRepsOnThreeThreadsMatchCheckedInDigests) {
  if (print_mode()) GTEST_SKIP() << "GoldenHashTest.PrintTable prints the table";
  const GoldenEntry& g = GetParam();
  if (g.iters2_hash == kUnpinned) GTEST_SKIP() << g.scenario << " is slow";
  EXPECT_EQ(iters2_hash(g), g.iters2_hash)
      << g.scenario
      << ": --iters 2 --threads 3 JSON changed. If intentional, rerun "
         "with EASYDRAM_PRINT_GOLDEN=1 and update kGolden.";
}

INSTANTIATE_TEST_SUITE_P(Golden, GoldenDigest, ::testing::ValuesIn(kGolden),
                         [](const ::testing::TestParamInfo<GoldenEntry>& info) {
                           return std::string(info.param.scenario);
                         });

/// EASYDRAM_PRINT_GOLDEN=1 prints every scenario's digests as one kGolden
/// table, in kGolden's order.
TEST(GoldenHashTest, PrintTable) {
  if (!print_mode()) GTEST_SKIP() << "set EASYDRAM_PRINT_GOLDEN=1 to print";
  bool all_match = true;
  for (const GoldenEntry& g : kGolden) {
    const std::uint64_t h = scenario_hash(g.scenario);
    const std::uint64_t h2 = iters2_hash(g);
    char iters2[32];
    if (h2 == kUnpinned) {
      snprintf(iters2, sizeof iters2, "kUnpinned");
    } else {
      snprintf(iters2, sizeof iters2, "0x%016llXull",
               static_cast<unsigned long long>(h2));
    }
    printf("    {\"%s\", 0x%016llXull, %s},\n", g.scenario,
           static_cast<unsigned long long>(h), iters2);
    all_match = all_match && h == g.hash && h2 == g.iters2_hash;
  }
  EXPECT_TRUE(all_match) << "printed table differs from kGolden";
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
    const std::string serial =
        run_scenario(*s, base)["results"].dump_string();
    RunOptions opts = base;
    opts.threads = 4;
    EXPECT_EQ(run_scenario(*s, opts)["results"].dump_string(), serial)
        << name << " diverged at --threads 4";
  }
}

// tests/CMakeLists.txt registers one CTest entry per kGolden row it finds
// in this file; a row written in another layout would have no entry.
#ifdef EASYDRAM_GOLDEN_CTEST_ENTRIES
static_assert(std::size(kGolden) == EASYDRAM_GOLDEN_CTEST_ENTRIES,
              "tests/CMakeLists.txt found a different number of kGolden rows");
#endif

/// The registry growing a new scenario should force a conscious decision
/// about its determinism (add it to kGolden or document why not).
TEST(GoldenHashTest, EveryScenarioIsClassified) {
  std::size_t classified = std::size(kGolden) + 1;  // +1: fig14_sim_speed.
  EXPECT_EQ(ScenarioRegistry::instance().all().size(), classified)
      << "new scenario registered: classify it in test_golden.cpp";
}

}  // namespace
}  // namespace easydram::cli
