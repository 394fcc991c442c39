#include <gtest/gtest.h>

#include "tile/tile.hpp"

namespace easydram::tile {
namespace {

TEST(BoundedFifoTest, FifoOrder) {
  BoundedFifo<int> f(4);
  f.push(1);
  f.push(2);
  f.push(3);
  EXPECT_EQ(f.pop(), 1);
  EXPECT_EQ(f.pop(), 2);
  EXPECT_EQ(f.pop(), 3);
  EXPECT_TRUE(f.empty());
}

TEST(BoundedFifoTest, CapacityEnforced) {
  BoundedFifo<int> f(2);
  f.push(1);
  f.push(2);
  EXPECT_TRUE(f.full());
  EXPECT_THROW(f.push(3), ContractViolation);
}

TEST(BoundedFifoTest, PopEmptyRejected) {
  BoundedFifo<int> f(2);
  EXPECT_THROW(f.pop(), ContractViolation);
}

TEST(BoundedFifoTest, FrontPeeks) {
  BoundedFifo<int> f(2);
  f.push(7);
  EXPECT_EQ(f.front(), 7);
  EXPECT_EQ(f.size(), 1u);
}

TEST(CycleMeterTest, ChargesAccumulate) {
  CycleMeter m(CoreCostModel{}, Frequency::megahertz(100));
  m.charge(Cycles{10});
  m.charge(Cycles{5});
  EXPECT_EQ(m.total_cycles(), Cycles{15});
}

TEST(CycleMeterTest, TakeReturnsDelta) {
  CycleMeter m(CoreCostModel{}, Frequency::megahertz(100));
  m.charge(Cycles{10});
  EXPECT_EQ(m.take(), Cycles{10});
  EXPECT_EQ(m.take(), Cycles{0});
  m.charge(Cycles{7});
  EXPECT_EQ(m.take(), Cycles{7});
  EXPECT_EQ(m.total_cycles(), Cycles{17});
}

TEST(CycleMeterTest, WallConversion) {
  CycleMeter m(CoreCostModel{}, Frequency::megahertz(100));
  EXPECT_EQ(m.to_wall(Cycles{100}).count, 1'000'000);  // 100 cycles at 10 ns.
}

TEST(CycleMeterTest, NegativeChargeRejected) {
  CycleMeter m(CoreCostModel{}, Frequency::megahertz(100));
  EXPECT_THROW(m.charge(Cycles{-1}), ContractViolation);
}

TEST(EasyTileTest, FifosRespectConfiguredDepths) {
  TileConfig cfg;
  cfg.incoming_fifo_depth = 3;
  cfg.outgoing_fifo_depth = 2;
  EasyTile tile(cfg);
  EXPECT_EQ(tile.incoming().capacity(), 3u);
  EXPECT_EQ(tile.outgoing().capacity(), 2u);
}

}  // namespace
}  // namespace easydram::tile
