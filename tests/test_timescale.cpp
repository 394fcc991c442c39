#include <gtest/gtest.h>

#include "timescale/timekeeper.hpp"
#include "timescale/timescale.hpp"

namespace easydram::timescale {
namespace {

using namespace easydram::literals;

TEST(CountersTest, StartAtZero) {
  Counters c;
  EXPECT_EQ(c.proc(), 0);
  EXPECT_EQ(c.mc(), 0);
  EXPECT_FALSE(c.critical());
}

TEST(CountersTest, CriticalModeClampsProc) {
  Counters c;
  c.advance_mc(100);
  c.enter_critical();
  EXPECT_EQ(c.advance_proc(250), 100);  // Clamped at mc.
  EXPECT_EQ(c.proc(), 100);
  c.advance_mc(50);
  EXPECT_EQ(c.advance_proc(250), 50);
  EXPECT_EQ(c.proc(), 150);
}

TEST(CountersTest, EnterCriticalSnapsMcUpToProc) {
  Counters c;
  c.advance_proc(500);
  c.enter_critical();
  EXPECT_EQ(c.mc(), 500);
}

TEST(CountersTest, ExitCriticalResynchronises) {
  Counters c;
  c.enter_critical();
  c.advance_mc(300);
  c.exit_critical();
  EXPECT_EQ(c.proc(), 300);
  EXPECT_FALSE(c.critical());
}

TEST(CountersTest, ExitWithoutEnterRejected) {
  Counters c;
  EXPECT_THROW(c.exit_critical(), ContractViolation);
}

TEST(CountersTest, NegativeAdvancesRejected) {
  Counters c;
  EXPECT_THROW(c.advance_proc(-1), ContractViolation);
  EXPECT_THROW(c.advance_mc(-1), ContractViolation);
}

TEST(ScalerTest, RealToEmulatedCycles) {
  // 100 MHz FPGA processor emulating 1 GHz: 75 ns of DRAM time is 75
  // emulated cycles.
  Scaler s(DomainConfig{Frequency::megahertz(100), Frequency::gigahertz(1)});
  EXPECT_EQ(s.real_to_emulated_cycles(75_ns), Cycles{75});
  EXPECT_EQ(s.real_to_emulated_cycles(Picoseconds{1}), Cycles{1});  // Ceil.
  EXPECT_EQ(s.emulated_cycles_to_time(2000), 2_us);
  EXPECT_EQ(s.fpga_time_for_cycles(100), 1_us);
}

class KeeperModes : public ::testing::TestWithParam<SystemMode> {};

TEST_P(KeeperModes, WallAdvancesInEveryMode) {
  TimeKeeper k(GetParam(),
               DomainConfig{Frequency::megahertz(100), Frequency::gigahertz(1)},
               Frequency::megahertz(100), Cycles{24});
  k.account_smc_cycles(Cycles{100});
  EXPECT_EQ(k.wall(), 1_us);
  k.account_proc_cycles(Cycles{100});
  EXPECT_EQ(k.wall(), 2_us);
  k.account_batch(60_ns);
  EXPECT_EQ(k.wall(), 2_us + 60_ns);
}

INSTANTIATE_TEST_SUITE_P(AllModes, KeeperModes,
                         ::testing::Values(SystemMode::kTimeScaling,
                                           SystemMode::kNoTimeScaling,
                                           SystemMode::kReference));

TEST(TimeKeeperTest, TimeScalingChargesBatchToMc) {
  TimeKeeper k(SystemMode::kTimeScaling,
               DomainConfig{Frequency::megahertz(100), Frequency::gigahertz(1)},
               Frequency::megahertz(100), Cycles{24});
  k.account_schedule_decision();
  EXPECT_EQ(k.counters().mc(), 24);
  k.account_batch(60_ns);  // 60 emulated cycles at 1 GHz.
  EXPECT_EQ(k.counters().mc(), 84);
  EXPECT_EQ(k.response_release_tag(), 84);
}

TEST(TimeKeeperTest, TimeScalingHidesSmcCycles) {
  TimeKeeper k(SystemMode::kTimeScaling,
               DomainConfig{Frequency::megahertz(100), Frequency::gigahertz(1)},
               Frequency::megahertz(100), Cycles{24});
  k.account_smc_cycles(Cycles{100'000});  // 1 ms of SMC time...
  EXPECT_EQ(k.counters().mc(), 0);  // ...invisible to the emulated system.
}

TEST(TimeKeeperTest, NoTimeScalingReleaseTagTracksWall) {
  TimeKeeper k(SystemMode::kNoTimeScaling,
               DomainConfig{Frequency::megahertz(50), Frequency::megahertz(50)},
               Frequency::megahertz(100), Cycles{24});
  k.account_smc_cycles(Cycles{100});      // 1 us wall.
  k.account_batch(60_ns);
  // Release tag: wall (1.06 us) at 50 MHz processor cycles = 53 cycles.
  EXPECT_EQ(k.response_release_tag(), 53);
  // The scheduling-latency charge is a no-op without time scaling.
  k.account_schedule_decision();
  EXPECT_EQ(k.counters().mc(), 0);
}

TEST(TimeKeeperTest, VisibilityRules) {
  TimeKeeper k(SystemMode::kTimeScaling,
               DomainConfig{Frequency::megahertz(100), Frequency::gigahertz(1)},
               Frequency::megahertz(100), Cycles{24});
  // Not critical: everything visible.
  EXPECT_TRUE(k.request_visible(1'000'000, 0_ns));
  k.counters().enter_critical();
  // Critical: visible only once mc catches up (footnote 2).
  EXPECT_FALSE(k.request_visible(1'000'000, 0_ns));
  k.counters().advance_mc(1'000'000);
  EXPECT_TRUE(k.request_visible(1'000'000, 0_ns));
}

TEST(TimeKeeperTest, ReferenceUsesSameVisibilityRuleAsTimeScaling) {
  // A hardware controller at the target clock cannot see a request before
  // its emulated issue time either: identical rule, identical scheduling
  // decisions (the premise of the §6 validation).
  TimeKeeper k(SystemMode::kReference,
               DomainConfig{Frequency::gigahertz(1), Frequency::gigahertz(1)},
               Frequency::megahertz(100), Cycles{24});
  k.counters().enter_critical();
  EXPECT_FALSE(k.request_visible(999'999'999, 0_ns));
  k.counters().advance_mc(999'999'999);
  EXPECT_TRUE(k.request_visible(999'999'999, 0_ns));
}

TEST(TimeKeeperTest, SkipIdleAdvancesEmulationPoint) {
  TimeKeeper k(SystemMode::kTimeScaling,
               DomainConfig{Frequency::megahertz(100), Frequency::gigahertz(1)},
               Frequency::megahertz(100), Cycles{24});
  k.skip_idle_until_proc_cycle(5000);
  EXPECT_EQ(k.counters().mc(), 5000);
  // Never moves backwards.
  k.skip_idle_until_proc_cycle(100);
  EXPECT_EQ(k.counters().mc(), 5000);
}

TEST(TimeKeeperTest, SkipIdleNoTsAdvancesWall) {
  TimeKeeper k(SystemMode::kNoTimeScaling,
               DomainConfig{Frequency::megahertz(50), Frequency::megahertz(50)},
               Frequency::megahertz(100), Cycles{24});
  k.skip_idle_until_proc_cycle(50);  // 50 cycles at 50 MHz = 1 us.
  EXPECT_EQ(k.wall(), 1_us);
}

TEST(TimeKeeperTest, EmulatedNowFollowsCounters) {
  TimeKeeper k(SystemMode::kTimeScaling,
               DomainConfig{Frequency::megahertz(100), Frequency::gigahertz(1)},
               Frequency::megahertz(100), Cycles{24});
  k.counters().advance_mc(2000);
  EXPECT_EQ(k.emulated_now(), 2_us);  // 2000 cycles at 1 GHz.
}

TEST(TimeKeeperTest, GlobalCounterMirrorsWall) {
  TimeKeeper k(SystemMode::kTimeScaling,
               DomainConfig{Frequency::megahertz(100), Frequency::gigahertz(1)},
               Frequency::megahertz(100), Cycles{24});
  k.advance_wall(1_us);
  EXPECT_EQ(k.global_cycles(), Cycles{100});  // 1 us at 100 MHz FPGA clock.
  k.advance_wall(9_ns);  // Rounds down: 1009 ns is still 100 cycles.
  EXPECT_EQ(k.global_cycles(), Cycles{100});
  k.advance_wall(1_ns);
  EXPECT_EQ(k.global_cycles(), Cycles{101});
}

}  // namespace
}  // namespace easydram::timescale
