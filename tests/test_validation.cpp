#include <gtest/gtest.h>

#include "sys/system.hpp"
#include "workloads/lmbench.hpp"
#include "workloads/polybench.hpp"

namespace easydram::sys {
namespace {

/// Miniature §6 validation: the time-scaled 100 MHz system and the 1 GHz
/// RTL reference must report near-identical execution times. The full
/// 28-workload sweep is the validation_timescale scenario; these tests gate a fast
/// subset so regressions surface in CI time.
class ValidationTest : public ::testing::TestWithParam<std::string_view> {};

TEST_P(ValidationTest, TimeScalingTracksReference) {
  auto trace_records = workloads::generate_kernel(GetParam());
  // Clip long kernels for test speed; the bench runs them in full.
  if (trace_records.size() > 400'000) trace_records.resize(400'000);

  EasyDramSystem ts(validation_time_scaling());
  cpu::VectorTrace t1(trace_records);
  const auto r_ts = ts.run(t1);

  EasyDramSystem ref(validation_reference());
  cpu::VectorTrace t2(trace_records);
  const auto r_ref = ref.run(t2);

  ASSERT_GT(r_ref.cycles, 0);
  const double err = std::abs(static_cast<double>(r_ts.cycles - r_ref.cycles)) /
                     static_cast<double>(r_ref.cycles);
  EXPECT_LT(err, 0.01) << "TS " << r_ts.cycles << " vs ref " << r_ref.cycles;
}

INSTANTIATE_TEST_SUITE_P(Kernels, ValidationTest,
                         ::testing::Values("durbin", "trisolv", "gesummv",
                                           "floyd-warshall"));

TEST(ValidationLatency, LmbenchProfileOrdering) {
  // L1-resident chases are fast; DRAM-sized chases approach the modeled
  // memory latency. Sanity-gates the Fig. 8 bench.
  auto run_size = [](std::uint64_t bytes) {
    EasyDramSystem sysm(jetson_nano_time_scaling());
    // Enough passes that cold misses do not dominate small buffers.
    const int passes =
        static_cast<int>(std::clamp<std::uint64_t>((4 << 20) / bytes, 4, 64));
    auto recs = workloads::make_lmbench_chase(bytes, passes);
    cpu::VectorTrace t(std::move(recs));
    const auto r = sysm.run(t);
    return static_cast<double>(r.cycles) / static_cast<double>(r.loads);
  };

  const double l1 = run_size(16 * 1024);        // Fits in 32 KiB L1.
  const double l2 = run_size(256 * 1024);       // Fits in 512 KiB L2.
  const double mem = run_size(4 * 1024 * 1024); // DRAM.
  EXPECT_LT(l1, l2);
  EXPECT_LT(l2, mem);
  EXPECT_GT(mem, 50.0);   // GHz-class processor sees long memory latency...
  EXPECT_LT(mem, 400.0);  // ...but not absurdly long.
  EXPECT_LT(l1, 10.0);
}

}  // namespace
}  // namespace easydram::sys
