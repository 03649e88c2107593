// Incremental 64-bit state digest: FNV-1a over 64-bit lanes with a
// splitmix finalizer. This is the one hashing scheme every layer's state
// digests use (bus/membership/arbiter digests, the bbw behavior
// fingerprint), so digests composed across layers mix uniformly and the
// snapshot engine can compare them across simulations. Machine-level
// campaigns need no digest: fi::sameBehavior compares two machines exactly.
//
// NOT a cryptographic hash: it pins determinism, it does not resist an
// adversary. Equal digests mean "equal state" only together with the
// replay-checkpoint fingerprint checks (docs/SNAPSHOT.md).
#pragma once

#include <bit>
#include <cstdint>

namespace nlft::util {

struct StateHash {
  std::uint64_t hash = 1469598103934665603ull;

  void u64(std::uint64_t value) {
    hash ^= value;
    hash *= 1099511628211ull;
  }
  void i64(std::int64_t value) { u64(static_cast<std::uint64_t>(value)); }
  void f64(double value) { u64(std::bit_cast<std::uint64_t>(value)); }
  void boolean(bool value) { u64(value ? 1 : 0); }
  [[nodiscard]] std::uint64_t finish() const {
    std::uint64_t x = hash;
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBull;
    x ^= x >> 31;
    return x;
  }
};

}  // namespace nlft::util
