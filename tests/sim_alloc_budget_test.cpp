// Deterministic allocation gate for the closed-loop hot path.
//
// One default NLFT brake-by-wire stop is ~29k DES events. The event loop
// (slot-pool Simulator, TDMA bus + membership, kernel, TEM executor, duplex
// arbiter, plant step) is meant to run without heap traffic in steady state;
// what remains per event is the task results the copy behaviours return.
// This test counts every operator new made during BbwSystemSim::run() and
// fails when allocations per processed event exceed the budget, so a
// regression fails under its own name (ctest label "perf-counters") instead
// of as a slow benchmark.
//
// Sanitizer builds replace the allocator themselves, so there the counting
// operator new is not installed and only the event count is checked.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "bbw/system_sim.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define NLFT_ALLOC_COUNTING 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define NLFT_ALLOC_COUNTING 0
#endif
#endif
#ifndef NLFT_ALLOC_COUNTING
#define NLFT_ALLOC_COUNTING 1
#endif

namespace {

std::atomic<bool> gCounting{false};
std::atomic<std::uint64_t> gAllocations{0};

}  // namespace

#if NLFT_ALLOC_COUNTING
// GCC inlines these replacements into this file's own new/delete pairs and
// then misreads malloc/free as mismatched with operator new/delete.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  if (gCounting.load(std::memory_order_relaxed)) {
    gAllocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (gCounting.load(std::memory_order_relaxed)) {
    gAllocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace nlft::bbw {
namespace {

/// Events of the default NLFT golden stop; pinned so that a change in the
/// event stream (which would also move the budget's denominator) is caught.
constexpr std::uint64_t kGoldenStopEvents = 28757;
/// Heap allocations per processed event allowed during run(). Measured at
/// 0.32 (GCC 12, libstdc++); 5.64 before the allocation-free hot path.
constexpr double kMaxAllocationsPerEvent = 1.5;

TEST(AllocBudget, GoldenStopStaysWithinAllocationBudget) {
  BbwSystemSim sim{BbwSimConfig{}};
  gAllocations.store(0);
  gCounting.store(true);
  const BbwSimResult result = sim.run();
  gCounting.store(false);
  const std::uint64_t allocations = gAllocations.load();

  ASSERT_TRUE(result.stopped);
  const std::uint64_t events = sim.simulator().processedEvents();
  EXPECT_EQ(events, kGoldenStopEvents);
  if (!NLFT_ALLOC_COUNTING) {
    GTEST_SKIP() << "allocation bound skipped: sanitizer build replaces operator new";
  }
  const double perEvent = static_cast<double>(allocations) / static_cast<double>(events);
  RecordProperty("allocations", static_cast<int>(allocations));
  EXPECT_LE(perEvent, kMaxAllocationsPerEvent)
      << allocations << " allocations over " << events << " events";
}

}  // namespace
}  // namespace nlft::bbw
