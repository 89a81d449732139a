#include "src/util/slot_arena.h"

#include <string>

#include <gtest/gtest.h>

namespace odutil {
namespace {

TEST(SlotArenaTest, AcquiredEntryIsDefaultAndFindable) {
  SlotArena<std::string> arena;
  auto id = arena.Acquire();
  ASSERT_NE(arena.Find(id), nullptr);
  EXPECT_TRUE(arena.Find(id)->empty());
  arena.Get(id) = "payload";
  EXPECT_EQ(*arena.Find(id), "payload");
  EXPECT_EQ(arena.live(), 1u);
}

TEST(SlotArenaTest, ReleasedIdGoesStaleEvenAfterSlotReuse) {
  SlotArena<std::string> arena;
  auto old_id = arena.Acquire();
  arena.Get(old_id) = "old";
  arena.Release(old_id);
  EXPECT_EQ(arena.Find(old_id), nullptr);
  EXPECT_EQ(arena.live(), 0u);

  // The freed slot is reused, with a new generation and a reset value.
  auto new_id = arena.Acquire();
  EXPECT_EQ(new_id.slot, old_id.slot);
  EXPECT_NE(new_id.gen, old_id.gen);
  EXPECT_EQ(arena.Find(old_id), nullptr);
  ASSERT_NE(arena.Find(new_id), nullptr);
  EXPECT_TRUE(arena.Find(new_id)->empty());
}

TEST(SlotArenaTest, UnknownSlotIsNotFound) {
  SlotArena<int> arena;
  EXPECT_EQ(arena.Find(SlotArena<int>::Id{3, 0}), nullptr);
}

TEST(SlotArenaTest, EntriesKeepTheirAddressWhileTheArenaGrows) {
  SlotArena<int> arena;
  auto first = arena.Acquire();
  int* address = &arena.Get(first);
  for (int i = 0; i < 1000; ++i) {
    arena.Acquire();
  }
  EXPECT_EQ(&arena.Get(first), address);
  EXPECT_EQ(arena.live(), 1001u);
}

TEST(SlotArenaTest, SteadyChurnReusesThePeakSlots) {
  SlotArena<int> arena;
  for (int round = 0; round < 100; ++round) {
    auto a = arena.Acquire();
    auto b = arena.Acquire();
    EXPECT_LT(a.slot, 2u);
    EXPECT_LT(b.slot, 2u);
    arena.Release(a);
    arena.Release(b);
  }
  EXPECT_EQ(arena.live(), 0u);
}

}  // namespace
}  // namespace odutil
