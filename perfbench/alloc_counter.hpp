// Heap-allocation counting for the benchmark binary.
//
// alloc_counter.cpp replaces the global operator new/delete family of THIS
// executable with malloc/free wrappers that count calls while counting is
// enabled. The libraries under test are unchanged; every allocation they make
// inside the benchmark process goes through these operators. Counting is off
// by default, so timed runs pay only one relaxed load per allocation.
#pragma once

#include <cstdint>

namespace perfbench {

void setAllocCounting(bool enabled);

/// Allocations (every operator new / new[] call, any alignment) counted
/// while counting was enabled.
[[nodiscard]] std::uint64_t allocationCount();

/// Counts the allocations made between construction and count().
class AllocScope {
 public:
  AllocScope() : start_{allocationCount()} {}
  [[nodiscard]] std::uint64_t count() const { return allocationCount() - start_; }

 private:
  std::uint64_t start_;
};

}  // namespace perfbench
