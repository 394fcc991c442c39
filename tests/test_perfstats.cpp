// The v2 measurement contract, tested at both layers: the RepStats
// reduction every perf bench goes through (cli/measure.hpp) and the
// tools/check_bench.py gate that thresholds the resulting document in CI.
// Also covers measure_sim_speed, the fig14_sim_speed measurement, and the
// scenario built on it.
// The gate tests build fixture documents with the same Json writer the
// harness uses and drive the real script through python3, asserting its
// exit-code contract (0 pass / 1 gate failure / 2 unusable input).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "cli/json.hpp"
#include "cli/measure.hpp"
#include "cli/perf.hpp"
#include "cli/scenario.hpp"
#include "common/stats.hpp"
#include "workloads/polybench.hpp"

namespace easydram::cli {
namespace {

// --------------------------------------------------------------------------
// RepStats / reduce_reps
// --------------------------------------------------------------------------

TEST(RepStatsTest, WarmupSamplesAreDiscardedFromEveryStatistic) {
  // A slow cold first rep must not reach best/median/mean.
  const std::vector<double> samples = {100.0, 2.0, 4.0, 6.0};
  const RepStats r = reduce_reps(samples, /*warmup=*/1);
  EXPECT_EQ(r.warmup, 1);
  EXPECT_EQ(r.measured, 3);
  EXPECT_DOUBLE_EQ(r.best, 2.0);
  EXPECT_DOUBLE_EQ(r.median, 4.0);
  EXPECT_DOUBLE_EQ(r.mean, 4.0);
}

TEST(RepStatsTest, KnownFiveSampleSeries) {
  const std::vector<double> samples = {1.0, 2.0, 3.0, 4.0, 5.0};
  const RepStats r = reduce_reps(samples, /*warmup=*/0);
  EXPECT_DOUBLE_EQ(r.best, 1.0);
  EXPECT_DOUBLE_EQ(r.median, 3.0);
  EXPECT_DOUBLE_EQ(r.mean, 3.0);
  // Linear-interpolated p95 over 5 samples: index 0.95*4 = 3.8.
  EXPECT_DOUBLE_EQ(r.p95, 4.8);
  // Sample stddev (n-1) of 1..5 is sqrt(2.5).
  EXPECT_NEAR(r.stddev, 1.5811388300841898, 1e-12);
  EXPECT_NEAR(r.cv, r.stddev / 3.0, 1e-12);
}

TEST(RepStatsTest, SingleMeasuredRepHasZeroSpread) {
  const std::vector<double> samples = {7.0, 3.0};
  const RepStats r = reduce_reps(samples, /*warmup=*/1);
  EXPECT_EQ(r.measured, 1);
  EXPECT_DOUBLE_EQ(r.best, 3.0);
  EXPECT_DOUBLE_EQ(r.median, 3.0);
  EXPECT_DOUBLE_EQ(r.p95, 3.0);
  EXPECT_DOUBLE_EQ(r.stddev, 0.0);
  EXPECT_DOUBLE_EQ(r.cv, 0.0);
}

TEST(RepStatsTest, AllEqualSamplesGiveZeroCv) {
  const std::vector<double> samples = {2.5, 2.5, 2.5, 2.5};
  const RepStats r = reduce_reps(samples, /*warmup=*/0);
  EXPECT_DOUBLE_EQ(r.stddev, 0.0);
  EXPECT_DOUBLE_EQ(r.cv, 0.0);
  EXPECT_DOUBLE_EQ(r.median, 2.5);
}

TEST(RepStatsTest, AllZeroSamplesDoNotDivideByZero) {
  const std::vector<double> samples = {0.0, 0.0};
  const RepStats r = reduce_reps(samples, /*warmup=*/0);
  EXPECT_DOUBLE_EQ(r.median, 0.0);
  EXPECT_DOUBLE_EQ(r.cv, 0.0);  // Defined as 0 when the median is 0.
}

TEST(RepStatsTest, RejectsNonFiniteAndNegativeSamples) {
  EXPECT_THROW(
      reduce_reps(std::vector<double>{1.0, std::nan(""), 2.0}, 0), StatsError);
  EXPECT_THROW(
      reduce_reps(
          std::vector<double>{std::numeric_limits<double>::infinity()}, 0),
      StatsError);
  EXPECT_THROW(reduce_reps(std::vector<double>{1.0, -0.5}, 0), StatsError);
  // A NaN in the warmup prefix is just as fatal: the bench misbehaved.
  EXPECT_THROW(
      reduce_reps(std::vector<double>{std::nan(""), 1.0}, 1), StatsError);
}

TEST(RepStatsTest, RejectsEmptyMeasuredSeries) {
  EXPECT_THROW(reduce_reps(std::vector<double>{}, 0), StatsError);
  EXPECT_THROW(reduce_reps(std::vector<double>{1.0}, 1), StatsError);
  EXPECT_THROW(reduce_reps(std::vector<double>{1.0, 2.0}, 5), StatsError);
  EXPECT_THROW(reduce_reps(std::vector<double>{1.0}, -1), StatsError);
}

// --------------------------------------------------------------------------
// measure_sim_speed (the fig14_sim_speed measurement)
// --------------------------------------------------------------------------

TEST(SimSpeedTest, EasyDramRateIsModeledAndRamulatorRateIsHostTimed) {
  // trisolv is the smallest Fig. 13 kernel. The EasyDRAM rate is modeled
  // cycles over modeled wall, so it repeats exactly; the Ramulator rate
  // reads the host clock, so only its sign and finiteness are stable.
  const SimSpeed a = measure_sim_speed("trisolv", 7);
  const SimSpeed b = measure_sim_speed("trisolv", 7);
  EXPECT_EQ(a.easy_mhz, b.easy_mhz);
  EXPECT_GT(a.easy_mhz, 0.0);
  for (const SimSpeed& s : {a, b}) {
    EXPECT_TRUE(std::isfinite(s.ram_mhz) && s.ram_mhz > 0.0) << s.ram_mhz;
    EXPECT_TRUE(std::isfinite(s.ratio) && s.ratio > 0.0) << s.ratio;
  }
}

/// The text of every scalar value stored under `key` in a dumped JSON
/// document, in document order; object and array values are skipped.
std::vector<std::string> scalar_values(const std::string& json,
                                       const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  std::vector<std::string> out;
  for (auto pos = json.find(needle); pos != std::string::npos;
       pos = json.find(needle, pos + 1)) {
    const auto start = pos + needle.size();
    if (json[start] == '{' || json[start] == '[') continue;
    out.push_back(json.substr(start, json.find_first_of(",}\n", start) - start));
  }
  return out;
}

TEST(SimSpeedTest, Fig14EasyDramColumnIsThreadCountInvariant) {
  // The one scenario no golden digest pins: its Ramulator column reads the
  // host clock. The EasyDRAM column is modeled, so it must match exactly
  // at any --threads; every ratio must be a finite positive number.
  const Scenario* s = ScenarioRegistry::instance().find("fig14_sim_speed");
  ASSERT_NE(s, nullptr);
  RunOptions opts;
  Json doc = Json::object();
  doc["results"] = s->run(opts);
  const std::string serial = doc["results"].dump_string();
  // Outside the golden suite, so its verbose columns are checked here.
  std::ostringstream verbose;
  EXPECT_TRUE(print_scenario(verbose, *s, doc).empty());
  opts.threads = 3;
  const std::string threaded = s->run(opts).dump_string();

  const std::size_t n = workloads::fig13_names().size();
  const std::vector<std::string> mhz = scalar_values(serial, "easydram_mhz");
  ASSERT_EQ(mhz.size(), n);
  EXPECT_EQ(scalar_values(threaded, "easydram_mhz"), mhz);
  for (const std::string& json : {serial, threaded}) {
    const std::vector<std::string> ratios = scalar_values(json, "ratio");
    ASSERT_EQ(ratios.size(), n);
    for (const std::string& r : ratios) {
      const double v = std::strtod(r.c_str(), nullptr);
      EXPECT_TRUE(std::isfinite(v) && v > 0.0) << r;
    }
  }
}

TEST(PerfTable, DrawsEveryRowFromTheResultsDocument) {
  PerfBenchOutcome steady;
  steady.name = "steady";
  steady.work_items = 100;
  steady.warmup = 1;
  steady.host_seconds = {0.5, 0.25, 0.25, 0.25};
  steady.stats = reduce_reps(steady.host_seconds, steady.warmup);
  PerfBenchOutcome broken;  // A NaN sample leaves the bench unreduced.
  broken.name = "broken";
  broken.warmup = 1;
  broken.host_seconds = {0.5, std::numeric_limits<double>::quiet_NaN()};

  std::ostringstream os;
  print_perf_table(os, perf_results_json(PerfOptions{}, {steady, broken}));
  const std::string text = os.str();
  const std::size_t steady_row = text.find("steady");
  const std::size_t broken_row = text.find("broken");
  ASSERT_NE(steady_row, std::string::npos);
  ASSERT_NE(broken_row, std::string::npos);
  const std::string steady_line =
      text.substr(steady_row, text.find('\n', steady_row) - steady_row);
  const std::string broken_line =
      text.substr(broken_row, text.find('\n', broken_row) - broken_row);
  // median and best 0.25 s, cv 0, 100 requests at 400 req/s.
  EXPECT_NE(steady_line.find("0.2500"), std::string::npos) << steady_line;
  EXPECT_NE(steady_line.find("400"), std::string::npos) << steady_line;
  // A non-finite bench has no statistics in the document: "-" cells.
  EXPECT_NE(broken_line.find(" - "), std::string::npos) << broken_line;
  EXPECT_EQ(broken_line.find("0.2500"), std::string::npos) << broken_line;
}

TEST(PerfHarness, EachVariantSeriesIsTimedOnce) {
  // The headline of a multi-variant bench is one of its variants' series,
  // not a second timing of the same burst.
  PerfOptions opts;
  opts.only = {"ecc_scrub_overhead", "qos_scheduler_overhead"};
  opts.reps = 2;
  opts.warmup = 1;
  opts.scale = 0.01;
  const Json doc = perf_results_json(opts, run_perf_benches(opts));
  const Json& benches = *doc.find("benches");
  ASSERT_EQ(benches.size(), 2u);
  const Json& ecc = *benches.at(0);
  const Json& qos = *benches.at(1);
  ASSERT_EQ(ecc.find("name")->text(0), "ecc_scrub_overhead");
  ASSERT_EQ(qos.find("name")->text(0), "qos_scheduler_overhead");

  const Json* ecc_reps = ecc.find("host_seconds_per_rep");
  ASSERT_NE(ecc_reps, nullptr);
  ASSERT_EQ(ecc_reps->size(), 2u);
  const Json& ecc_detail = *ecc.find("detail");
  EXPECT_EQ(ecc_reps->dump_string(),
            ecc_detail.find("ecc_host_seconds_per_rep")->dump_string());

  const Json& points = *qos.find("detail")->find("points");
  ASSERT_EQ(points.size(), 5u);
  const Json& tcm = *points.at(4);
  ASSERT_EQ(tcm.find("sched")->text(0), "tcm");
  EXPECT_EQ(qos.find("host_seconds_per_rep")->dump_string(),
            tcm.find("host_seconds_per_rep")->dump_string());
  // One warmup rep per series too.
  EXPECT_EQ(tcm.find("warmup_host_seconds")->dump_string(),
            qos.find("warmup_host_seconds")->dump_string());
}

// --------------------------------------------------------------------------
// tools/check_bench.py exit-code contract
// --------------------------------------------------------------------------

/// Builds one bench entry of a valid v2 document. `median` sets the
/// measured series {m, m, m}; `cv` is written as-is so a fixture can claim
/// any stability score.
Json fixture_bench(const std::string& name, double median, double cv) {
  Json j = Json::object();
  j["name"] = name;
  j["summary"] = "fixture";
  j["work_items"] = 100;
  Json warm = Json::array();
  warm.push_back(2.0 * median);
  j["warmup_host_seconds"] = std::move(warm);
  Json reps = Json::array();
  for (int i = 0; i < 3; ++i) reps.push_back(median);
  j["host_seconds_per_rep"] = std::move(reps);
  j["host_seconds_best"] = median;
  j["host_seconds_mean"] = median;
  j["host_seconds_median"] = median;
  j["host_seconds_p95"] = median;
  j["host_seconds_stddev"] = cv * median;
  j["cv"] = cv;
  j["finite"] = true;
  return j;
}

/// A complete passing document: every bench the gate requires, with the
/// detail payloads it validates. Without `qos_spread` the QoS policy points
/// lack their median and CV, which the gate must reject.
Json fixture_doc(int host_cores, double median_scale = 1.0,
                 double cv = 0.01, bool qos_spread = true) {
  Json doc = Json::object();
  doc["schema"] = "easydram-bench-v2";
  doc["generator"] = "test_perfstats fixture";
  doc["reps"] = 3;
  doc["warmup_reps"] = 1;
  doc["scale"] = 1.0;
  doc["seed"] = 1;
  doc["host_cores"] = host_cores;

  Json benches = Json::array();
  for (const std::string name :
       {"fig14_sim_speed", "mitigation_overhead", "raidr_refresh",
        "stream_sweep", "latency_sweep"}) {
    benches.push_back(fixture_bench(name, 0.1 * median_scale, cv));
  }

  Json ecc = fixture_bench("ecc_scrub_overhead", 0.3 * median_scale, cv);
  Json ed = Json::object();
  ed["ecc_host_seconds_best"] = 0.3;
  ed["baseline_host_seconds_best"] = 0.25;
  ed["overhead_percent"] = 20.0;
  ed["ecc_emulated_ps"] = 1000;
  ed["baseline_emulated_ps"] = 900;
  ed["emulated_overhead_percent"] = 11.1;
  ecc["detail"] = std::move(ed);
  benches.push_back(std::move(ecc));

  Json qos = fixture_bench("qos_scheduler_overhead", 0.4 * median_scale, cv);
  Json qd = Json::object();
  Json qpoints = Json::array();
  for (const std::string sched : {"frfcfs", "parbs", "bliss", "atlas",
                                  "tcm"}) {
    Json p = Json::object();
    p["sched"] = sched;
    p["host_seconds_best"] = 0.4;
    if (qos_spread) {
      p["host_seconds_median"] = 0.4;
      p["cv"] = 0.01;
    }
    p["overhead_vs_frfcfs_percent"] = 1.0;
    qpoints.push_back(std::move(p));
  }
  qd["points"] = std::move(qpoints);
  qos["detail"] = std::move(qd);
  benches.push_back(std::move(qos));

  doc["benches"] = std::move(benches);
  doc["all_finite"] = true;
  return doc;
}

class CheckBenchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (std::system("python3 --version > /dev/null 2>&1") != 0) {
      GTEST_SKIP() << "python3 not available";
    }
    dir_ = ::testing::TempDir();
  }

  std::string write_fixture(const std::string& name, const Json& doc) {
    const std::string path = dir_ + "/" + name;
    std::ofstream out(path);
    out << doc.dump_string() << "\n";
    return path;
  }

  /// Runs the real gate script; returns its exit code (-1 on spawn error).
  int run_gate(const std::string& args) {
    const std::string cmd = "python3 " EASYDRAM_REPO_DIR
                            "/tools/check_bench.py " +
                            args + " > /dev/null 2>&1";
    const int status = std::system(cmd.c_str());
    if (status < 0) return -1;
#ifdef WEXITSTATUS
    return WEXITSTATUS(status);
#else
    return status;
#endif
  }

  std::string dir_;
};

TEST_F(CheckBenchTest, PassingDocumentExitsZero) {
  const std::string p = write_fixture("pass.json", fixture_doc(4));
  EXPECT_EQ(run_gate(p), 0);
}

TEST_F(CheckBenchTest, SelfBaselineComparisonPasses) {
  const std::string p = write_fixture("pass.json", fixture_doc(4));
  EXPECT_EQ(run_gate(p + " --baseline " + p), 0);
}

TEST_F(CheckBenchTest, HighCvFailsOnMultiCoreHosts) {
  const std::string p =
      write_fixture("cv.json", fixture_doc(4, 1.0, /*cv=*/0.9));
  EXPECT_EQ(run_gate(p), 1);
}

TEST_F(CheckBenchTest, HighCvOnlyWarnsOnSingleCoreHosts) {
  const std::string p =
      write_fixture("cv1.json", fixture_doc(1, 1.0, /*cv=*/0.9));
  EXPECT_EQ(run_gate(p), 0);
}

TEST_F(CheckBenchTest, FiftyPercentRegressionFailsAgainstBaseline) {
  const std::string base = write_fixture("base.json", fixture_doc(4));
  const std::string slow =
      write_fixture("slow.json", fixture_doc(4, /*median_scale=*/1.6));
  EXPECT_EQ(run_gate(slow + " --baseline " + base), 1);
  // The other direction (new is faster) must pass.
  EXPECT_EQ(run_gate(base + " --baseline " + slow), 0);
}

TEST_F(CheckBenchTest, SchemaMismatchExitsTwo) {
  Json doc = fixture_doc(4);
  doc["schema"] = "easydram-bench-v1";
  const std::string p = write_fixture("v1.json", doc);
  EXPECT_EQ(run_gate(p), 2);
}

TEST_F(CheckBenchTest, MissingRequiredBenchFails) {
  Json doc = fixture_doc(4);
  // Rebuild the bench list without stream_sweep.
  Json pruned = Json::array();
  for (const std::string name :
       {"mitigation_overhead", "raidr_refresh", "latency_sweep"}) {
    pruned.push_back(fixture_bench(name, 0.1, 0.01));
  }
  doc["benches"] = std::move(pruned);
  const std::string p = write_fixture("missing.json", doc);
  EXPECT_EQ(run_gate(p), 1);
}

TEST_F(CheckBenchTest, QosPointsWithoutMedianAndCvFail) {
  const std::string p = write_fixture(
      "qos.json", fixture_doc(4, 1.0, 0.01, /*qos_spread=*/false));
  EXPECT_EQ(run_gate(p), 1);
}

TEST_F(CheckBenchTest, V1BaselineSkipsRegressionWithWarning) {
  const std::string p = write_fixture("new.json", fixture_doc(4));
  Json old = fixture_doc(4, /*median_scale=*/0.1);
  old["schema"] = "easydram-bench-v1";
  const std::string b = write_fixture("old_v1.json", old);
  // Incomparable baseline: skipped, so the 10x slowdown does not fail.
  EXPECT_EQ(run_gate(p + " --baseline " + b), 0);
}

TEST_F(CheckBenchTest, DifferentHostCoresSkipsRegression) {
  const std::string p = write_fixture("new.json", fixture_doc(4));
  const std::string b =
      write_fixture("old_8core.json", fixture_doc(8, /*median_scale=*/0.1));
  EXPECT_EQ(run_gate(p + " --baseline " + b), 0);
}

}  // namespace
}  // namespace easydram::cli
