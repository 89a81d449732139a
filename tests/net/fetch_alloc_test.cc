// Allocation gate for the fleet fetch path.
//
// Every keyed fetch runs warden -> RPC -> link -> shared service -> link ->
// RPC -> warden, and each hop used to copy or allocate a closure.  This
// test counts global operator new calls over a small seeded fleet and
// asserts a bound on allocations per completed fetch at steady state.
//
// Steady state is the difference between two runs that differ only in
// their goal length: construction, settle and the first cache fills cancel
// out, leaving the allocations the extra simulated time costs divided by
// the extra fetches it made.  The simulator is deterministic, so the
// figure is exact for a given standard library, not a timing.
//
// Measured with this fleet (GCC 12, libstdc++, RelWithDebInfo): 20.2
// allocations per fetch when each hop built its own closures (the RPC
// retry closure copied the compute closure into every continuation, the
// link captured the completion, the warden shared its outcome slot through
// a shared_ptr); 1.02 once the RPC and the warden keep one record per
// call in generation-checked arenas and the link keeps its in-flight
// transfer in a member.  What remains is the shared service's own
// bookkeeping (LRU cache nodes, queue storage, batch waiter lists).  The
// bound leaves room for a different standard library, not for a closure
// copy per hop.
//
// Under AddressSanitizer the counting operator new is left out (the
// sanitizer owns the allocator), and the fleet still runs so the fetch
// path's arena lifetimes are exercised under it; only the count is not
// asserted.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "src/apps/fleet.h"

#if defined(__SANITIZE_ADDRESS__)
#define OD_FETCH_ALLOC_COUNTING 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define OD_FETCH_ALLOC_COUNTING 0
#endif
#endif
#ifndef OD_FETCH_ALLOC_COUNTING
#define OD_FETCH_ALLOC_COUNTING 1
#endif

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

#if OD_FETCH_ALLOC_COUNTING

namespace {
void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  std::size_t alignment = static_cast<std::size_t>(align);
  std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded)) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#endif  // OD_FETCH_ALLOC_COUNTING

namespace odapps {
namespace {

// A scaled-down fleet_lru: a shared service with admission control and an
// LRU cache at half the key set, so every fetch outcome (served, batched,
// cache hit, admission reject) and the overload clamp are on the path.
FleetOptions SmallFleet(double goal_seconds) {
  FleetOptions options;
  options.clients = 200;
  options.seed = 7;
  options.goal = odsim::SimDuration::Seconds(goal_seconds);
  options.shared_objects = 64;
  options.service.cache_capacity = 32;
  options.service.max_queue = 8;
  options.service.speed_factor = 1.0;
  options.initial_joules = options.watts_budget * options.goal.seconds();
  return options;
}

struct Counted {
  uint64_t allocations = 0;
  FleetResult result;
};

Counted RunCounted(double goal_seconds) {
  FleetOptions options = SmallFleet(goal_seconds);
  Counted counted;
  uint64_t before = g_allocations.load(std::memory_order_relaxed);
  counted.result = RunFleetScenario(options);
  counted.allocations = g_allocations.load(std::memory_order_relaxed) - before;
  return counted;
}

TEST(FetchAllocTest, SteadyStateAllocationsPerFetchStayBounded) {
  Counted shorter = RunCounted(60.0);
  Counted longer = RunCounted(180.0);
  const int extra_fetches =
      longer.result.total_fetches - shorter.result.total_fetches;
  ASSERT_GT(extra_fetches, 1000);
  // Every outcome is on the path being counted.
  EXPECT_GT(longer.result.total_rejected_fetches, 0);
  EXPECT_GT(longer.result.total_device_cache_hits, 0);
  EXPECT_GT(longer.result.server_batch_joins, 0);
#if OD_FETCH_ALLOC_COUNTING
  const double per_fetch =
      static_cast<double>(longer.allocations - shorter.allocations) /
      extra_fetches;
  std::printf("steady-state allocations per fetch: %.3f (%d fetches)\n",
              per_fetch, extra_fetches);
  EXPECT_LE(per_fetch, 2.0);
#endif
}

}  // namespace
}  // namespace odapps
