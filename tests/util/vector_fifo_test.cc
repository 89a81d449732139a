#include "src/util/vector_fifo.h"

#include <memory>

#include <gtest/gtest.h>

namespace odutil {
namespace {

TEST(VectorFifoTest, PopsInArrivalOrderAndResetsWhenDrained) {
  VectorFifo<int> fifo;
  EXPECT_TRUE(fifo.empty());
  fifo.push_back(1);
  fifo.push_back(2);
  fifo.push_back(3);
  EXPECT_EQ(fifo.size(), 3u);
  EXPECT_EQ(fifo.pop_front(), 1);
  EXPECT_EQ(fifo.spent(), 1u);
  EXPECT_EQ(fifo.pop_front(), 2);
  EXPECT_EQ(fifo.pop_front(), 3);
  EXPECT_TRUE(fifo.empty());
  EXPECT_EQ(fifo.spent(), 0u);
}

TEST(VectorFifoTest, BacklogThatNeverDrainsDropsItsSpentPrefix) {
  VectorFifo<int> fifo;
  int pushed = 0;
  int popped = 0;
  for (; pushed < 40; ++pushed) {
    fifo.push_back(pushed);
  }
  for (int round = 0; round < 500; ++round) {
    fifo.push_back(pushed++);
    ASSERT_EQ(fifo.pop_front(), popped++);
    ASSERT_EQ(fifo.size(), 40u);
    // Compaction keeps the spent prefix below the threshold or below the
    // live size.
    ASSERT_TRUE(fifo.spent() < 32 || fifo.spent() < fifo.size());
  }
}

TEST(VectorFifoTest, HoldsMoveOnlyItems) {
  VectorFifo<std::unique_ptr<int>> fifo;
  fifo.push_back(std::make_unique<int>(7));
  fifo.push_back(std::make_unique<int>(8));
  EXPECT_EQ(*fifo.pop_front(), 7);
  EXPECT_EQ(*fifo.pop_front(), 8);
}

}  // namespace
}  // namespace odutil
