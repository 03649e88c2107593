// Consumer-side arbitration of messages from an actively replicated
// (duplex) sender pair — e.g. the wheel nodes consuming the two central
// units' brake commands.
//
// Replica determinism (paper reference [12] and Section 4) means both
// replicas of a round send the same sequence number with — ideally — the
// same payload. Two policies are provided:
//
//   * FirstValid      — accept the first arrival of every sequence number,
//                       drop the duplicate. Lowest latency; relies on each
//                       node's own NLFT to keep the values trustworthy.
//   * CompareAndFlag  — hold the first arrival until the partner's copy (or
//                       a timeout): matching copies are delivered, a
//                       mismatch is flagged as a detected error and NOT
//                       delivered (turning replica divergence into an
//                       omission), and a timeout delivers the single copy
//                       (the partner is presumed down).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "util/time.hpp"

namespace nlft::tem {

using util::Duration;
using util::SimTime;

class DuplexArbiter {
 public:
  enum class Policy : std::uint8_t { FirstValid, CompareAndFlag };

  /// `compareWindow` is how long CompareAndFlag waits for the partner copy.
  explicit DuplexArbiter(Policy policy, Duration compareWindow = Duration::milliseconds(10));

  /// Offers one replica message. Returns a payload when the arbiter decides
  /// to deliver at this point (first arrival, or matching second copy).
  [[nodiscard]] std::optional<std::vector<std::uint32_t>> offer(
      int replica, std::uint64_t sequence, std::vector<std::uint32_t> payload, SimTime now);

  /// offer() without copying the payload: returns true when the arbiter
  /// delivers at this point. A delivered payload is always the offered one
  /// (a first arrival, or a second copy equal to the held first), so the
  /// caller reads it from its own `payload`.
  [[nodiscard]] bool accept(int replica, std::uint64_t sequence,
                            std::span<const std::uint32_t> payload, SimTime now);

  /// Flushes timed-out pending sequences; returns the payloads that are
  /// released single-source (partner missing). Call periodically.
  [[nodiscard]] std::vector<std::vector<std::uint32_t>> poll(SimTime now);

  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t duplicatesDropped() const { return duplicatesDropped_; }
  [[nodiscard]] std::uint64_t mismatches() const { return mismatches_; }
  [[nodiscard]] std::uint64_t singleSourceDeliveries() const { return singleSource_; }

  /// Replaces this arbiter's state (pending copies, settled sequences,
  /// counters) with `other`'s; the mismatch handler is wiring and stays.
  void copyStateFrom(const DuplexArbiter& other);

  /// Invoked on every CompareAndFlag mismatch (a detected replica error).
  void setMismatchHandler(std::function<void(std::uint64_t sequence)> handler) {
    onMismatch_ = std::move(handler);
  }

  /// 64-bit digest of the arbitration state: every pending sequence
  /// (replica, payload, arrival time) and the SET of settled sequences, in
  /// its canonical (watermark, sparse tail) form.
  /// Settle TIMES and the delivery counters are deliberately excluded: they
  /// never feed back into arbitration decisions, and after a masked fault
  /// (e.g. a CU omission bridged by the partner replica) a sequence settles
  /// at a legitimately later instant — pinning the digest to that bookkeeping
  /// would block the snapshot engine's golden-rejoin check forever.
  [[nodiscard]] std::uint64_t stateDigest() const;

 private:
  struct Pending {
    int replica;
    std::vector<std::uint32_t> payload;
    SimTime arrivedAt;
  };

  [[nodiscard]] bool settled(std::uint64_t sequence) const;
  void settle(std::uint64_t sequence);

  Policy policy_;
  Duration window_;
  std::map<std::uint64_t, Pending> pending_;
  /// Delivered/flagged sequences: every sequence below the watermark, plus
  /// the sorted sparse tail above it. The form is canonical — the tail
  /// never holds the watermark itself (settling it advances the watermark
  /// over the tail's leading run) — so equal sets compare and hash equal,
  /// and a stream that settles in order keeps an empty tail.
  std::uint64_t settledBelow_ = 0;
  std::vector<std::uint64_t> settledTail_;
  std::uint64_t delivered_ = 0;
  std::uint64_t duplicatesDropped_ = 0;
  std::uint64_t mismatches_ = 0;
  std::uint64_t singleSource_ = 0;
  std::function<void(std::uint64_t)> onMismatch_;
};

}  // namespace nlft::tem
