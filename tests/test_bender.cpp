#include <gtest/gtest.h>

#include <cstring>

#include "bender/interpreter.hpp"
#include "bender/program.hpp"
#include "dram/device.hpp"

namespace easydram::bender {
namespace {

using namespace easydram::literals;
using dram::Command;
using dram::DramAddress;

class BenderTest : public ::testing::Test {
 protected:
  BenderTest() : dev_(geo_, timing_, variation()), interp_(dev_) {}

  static dram::VariationConfig variation() {
    dram::VariationConfig v;
    v.min_trcd = Picoseconds{1000};
    v.max_trcd = Picoseconds{1001};
    v.rowclone_pair_success = 1.0;
    return v;
  }

  dram::Geometry geo_;
  dram::TimingParams timing_ = dram::ddr4_1333();
  dram::DramDevice dev_;
  Interpreter interp_;
};

TEST_F(BenderTest, EmptyProgramTakesNoTime) {
  Program p;
  const ExecutionResult r = interp_.execute(p, 0_ns);
  EXPECT_EQ(r.elapsed.count, 0);
  EXPECT_EQ(r.commands_issued, 0);
}

TEST_F(BenderTest, SleepAdvancesExactCycles) {
  Program p;
  p.sleep(10);
  const ExecutionResult r = interp_.execute(p, 0_ns);
  EXPECT_EQ(r.elapsed, timing_.tCK * 10);
}

TEST_F(BenderTest, SleepAtLeastRoundsUp) {
  Program p;
  p.sleep_at_least(Picoseconds{1600}, timing_.tCK);  // 1.6 ns / 1.5 ns -> 2 cycles
  const ExecutionResult r = interp_.execute(p, 0_ns);
  EXPECT_EQ(r.elapsed, timing_.tCK * 2);
}

TEST_F(BenderTest, NominalCommandsAutoDelay) {
  Program p;
  p.ddr(Command::kAct, {0, 5, 0});
  p.ddr(Command::kRead, {0, 5, 3}, /*capture=*/true);
  const ExecutionResult r = interp_.execute(p, 0_ns);
  EXPECT_EQ(r.violations, dram::kNone);
  // The read waited for tRCD; elapsed covers ACT -> read data end.
  EXPECT_GE(r.elapsed, timing_.tRCD + timing_.read_data_latency());
  ASSERT_EQ(r.readback.size(), 1u);
}

TEST_F(BenderTest, ExactCommandsViolateOnPurpose) {
  Program p;
  p.ddr(Command::kAct, {0, 5, 0});
  p.ddr_exact(Command::kRead, {0, 5, 3}, 5_ns, /*capture=*/true);
  const ExecutionResult r = interp_.execute(p, 0_ns);
  EXPECT_TRUE(r.violations & dram::kTrcd);
}

TEST_F(BenderTest, ExactGapIsExact) {
  Program p;
  p.ddr(Command::kAct, {0, 5, 0});
  p.ddr_exact(Command::kRead, {0, 5, 3}, 7500_ps, /*capture=*/true);
  interp_.execute(p, 0_ns);
  // ACT at 0, RD must be exactly at 7.5 ns: the device saw an effective
  // tRCD of 7.5 ns (reliable in this fixture), flagged as violation.
  // Validate via device clock: last command issued at 7.5 ns.
  EXPECT_EQ(dev_.now(), 7500_ps);
}

TEST_F(BenderTest, WriteReadRoundTripThroughPrograms) {
  std::array<std::uint8_t, 64> data{};
  for (std::size_t i = 0; i < 64; ++i) data[i] = static_cast<std::uint8_t>(i * 3);

  Program w;
  const std::uint32_t idx = w.add_wdata(data);
  w.ddr(Command::kAct, {1, 9, 0});
  w.ddr(Command::kWrite, {1, 9, 4}, /*capture=*/false, idx);
  w.ddr(Command::kPre, {1, 0, 0});
  interp_.execute(w, 0_ns);

  Program r;
  r.ddr(Command::kAct, {1, 9, 0});
  r.ddr(Command::kRead, {1, 9, 4}, /*capture=*/true);
  const ExecutionResult res = interp_.execute(r, dev_.now());
  ASSERT_EQ(res.readback.size(), 1u);
  EXPECT_EQ(std::memcmp(res.readback[0].data.data(), data.data(), 64), 0);
}

TEST_F(BenderTest, RowCloneProgram) {
  // Write a marker into row 20 via backdoor, clone to row 21.
  std::array<std::uint8_t, 64> marker{};
  marker.fill(0xCD);
  dev_.backdoor_write({3, 20, 0}, marker);

  Program p;
  p.ddr(Command::kAct, {3, 20, 0});
  p.ddr_exact(Command::kPre, {3, 0, 0}, timing_.tCK * 2);
  p.ddr_exact(Command::kAct, {3, 21, 0}, timing_.tCK * 2);
  p.sleep_at_least(timing_.tRAS, timing_.tCK);
  p.ddr(Command::kPre, {3, 0, 0});
  const ExecutionResult r = interp_.execute(p, 0_ns);
  EXPECT_EQ(r.rowclone_attempts, 1);
  EXPECT_EQ(r.rowclone_successes, 1);

  std::array<std::uint8_t, 64> out{};
  dev_.backdoor_read({3, 21, 0}, out);
  EXPECT_EQ(std::memcmp(out.data(), marker.data(), 64), 0);
}

TEST_F(BenderTest, ElapsedCoversRefresh) {
  Program p;
  p.ddr(Command::kRef, {});
  const ExecutionResult r = interp_.execute(p, 0_ns);
  EXPECT_GE(r.elapsed, timing_.tRFC);
}

TEST_F(BenderTest, CommandBufferCapacityEnforced) {
  Program p;
  for (std::size_t i = 0; i < kCommandBufferCapacity; ++i) p.sleep(1);
  EXPECT_THROW(p.sleep(1), ContractViolation);
}

TEST_F(BenderTest, StartBeforeDeviceNowIsClamped) {
  Program a;
  a.ddr(Command::kAct, {0, 1, 0});
  interp_.execute(a, 100_ns);
  Program b;
  b.ddr(Command::kPre, {0, 0, 0});
  // Requesting an earlier start silently clamps to the device clock.
  const ExecutionResult r = interp_.execute(b, 0_ns);
  EXPECT_GE(dev_.now(), 100_ns);
  EXPECT_EQ(r.violations & dram::kBankNotActive, 0u);
}

}  // namespace
}  // namespace easydram::bender
