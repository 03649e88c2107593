// Time-triggered broadcast bus with FlexRay-style communication cycles
// (paper Section 2.1: "time-triggered ... or even more preferable, a mix of
// event- and time-triggered communication (such as provided by the FlexRay
// protocol)").
//
// A communication cycle (round) consists of:
//   * a static segment: one slot per entry in the static schedule, each
//     owned by one node (time-triggered; used for all critical messages);
//   * a dynamic segment: minislot arbitration by frame priority (event-
//     triggered; used for sporadic traffic such as diagnostics or state
//     re-synchronisation requests).
//
// Frames carry a CRC-16; the channel is assumed reliable by the paper, but
// corruption can be injected to exercise receiver-side end-to-end checks
// (corrupted frames are dropped and counted, never delivered).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include "sim/simulator.hpp"
#include "util/time.hpp"

namespace nlft::net {

using util::Duration;
using util::SimTime;

using NodeId = std::uint32_t;

struct Frame {
  NodeId sender = 0;
  std::uint32_t slot = 0;      ///< static slot index, or ~0u for dynamic frames
  std::uint32_t priority = 0;  ///< dynamic frames: lower value wins arbitration
  std::vector<std::uint32_t> payload;
  std::uint16_t crc = 0;  ///< frame check sequence, stamped at transmission
};

/// CRC-16-CCITT over the payload words (little-endian byte order) — the
/// frame check sequence every transmitted frame carries. The generator
/// polynomial 0x1021 has Hamming distance 4 over these frame sizes, so ANY
/// 1-, 2- or 3-bit corruption is guaranteed to be caught at the receiver.
[[nodiscard]] std::uint16_t frameCrc(std::span<const std::uint32_t> payload);

/// Flips one bit of a frame in transit. The bit index space covers the
/// payload first (32 bits per word, little-endian) and then the 16 CRC
/// bits; indices wrap modulo the frame length.
void flipFrameBit(Frame& frame, std::uint32_t bitIndex);

struct TdmaConfig {
  Duration slotLength = Duration::milliseconds(1);
  std::vector<NodeId> staticSchedule;  ///< slot index -> owning node
  std::uint32_t dynamicMinislots = 0;  ///< minislots per cycle (0 = none)
  Duration minislotLength = Duration::microseconds(100);
};

class TdmaBus : private sim::EventHandler {
 public:
  using ReceiveFn = std::function<void(const Frame&)>;

  /// Registers the bus as a typed-event handler of `simulator`: slot,
  /// segment, minislot and cycle-end events are typed records, so the bus
  /// state is copyable (copyStateFrom).
  TdmaBus(sim::Simulator& simulator, TdmaConfig config);
  TdmaBus(const TdmaBus&) = delete;
  TdmaBus& operator=(const TdmaBus&) = delete;

  /// Replaces this bus's state (queued frames, silenced nodes, armed
  /// faults, counters) with `other`'s. Receivers, the drop tap and the
  /// configuration are wiring and stay this bus's own; pair with
  /// sim::Simulator::copyStateFrom, which copies the pending bus events.
  void copyStateFrom(const TdmaBus& other);

  /// Registers a receiver; every delivered frame (except the node's own) is
  /// passed to `receive`.
  void attach(NodeId node, ReceiveFn receive);

  /// Queues the payload for the node's NEXT static slot. One frame per slot;
  /// a newer message replaces a pending one (freshest-value semantics, as in
  /// state message protocols).
  void sendStatic(NodeId node, std::vector<std::uint32_t> payload);
  /// As above, copying `payload` into the node's slot buffer, whose capacity
  /// is reused from cycle to cycle (no allocation in steady state).
  void sendStatic(NodeId node, std::span<const std::uint32_t> payload);

  /// Queues an event-triggered frame for the dynamic segment. Lower priority
  /// value transmits first. Frames that do not fit wait for the next cycle.
  void sendDynamic(NodeId node, std::uint32_t priority, std::vector<std::uint32_t> payload);

  /// Starts the first communication cycle at the current simulated time.
  void start();

  /// Marks a node as silent: its static slots stay empty and its dynamic
  /// frames are discarded (fail-silent failure, or node powered down).
  void setNodeSilent(NodeId node, bool silent);
  [[nodiscard]] bool nodeSilent(NodeId node) const;

  /// Fault injection: the next transmitted frame of `node` is corrupted in
  /// transit (one bit flip; the receivers' CRC check drops the frame).
  void corruptNextFrame(NodeId node);

  /// Fault injection with explicit fault locations: flips the given bits of
  /// the node's next transmitted frame (payload bits first, then the 16 CRC
  /// bits; indices wrap modulo the frame length). Receivers verify the CRC
  /// and drop the frame on mismatch — with 1..3 flipped bits the CRC-16
  /// catches the corruption with certainty (Hamming distance 4).
  void corruptNextFrame(NodeId node, std::vector<std::uint32_t> flipBits);

  /// Observer for dropped frames: (frame, reason) with reason "crc" (failed
  /// frame check) or "collision" (destroyed by a babbling transmission).
  using DropTap = std::function<void(const Frame&, const char* reason)>;
  void setDropTap(DropTap tap) { dropTap_ = std::move(tap); }

  /// Fault injection: `node` becomes a babbling idiot — it transmits in
  /// EVERY static slot. Without a bus guardian, its babble collides with
  /// the slot owner's frame and destroys it (both are dropped); with the
  /// guardian enabled, out-of-slot transmissions are blocked at the node's
  /// bus interface and only counted.
  void setBabbling(NodeId node, bool babbling);

  /// Enables the bus guardian (per-slot transmission windows enforced in
  /// hardware, as in TTP/FlexRay star couplers / local guardians).
  void setBusGuardianEnabled(bool enabled) { guardian_ = enabled; }
  [[nodiscard]] bool busGuardianEnabled() const { return guardian_; }

  [[nodiscard]] std::uint64_t babbleCollisions() const { return babbleCollisions_; }
  [[nodiscard]] std::uint64_t babbleBlocked() const { return babbleBlocked_; }

  [[nodiscard]] Duration cycleLength() const;
  [[nodiscard]] std::uint64_t cyclesCompleted() const { return cycles_; }
  [[nodiscard]] std::uint64_t framesDelivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t framesDropped() const { return dropped_; }
  /// Frames that had injected corruption applied in transit.
  [[nodiscard]] std::uint64_t corruptionsInjected() const { return corruptionsInjected_; }
  /// Frames dropped because the receiver-side CRC check failed.
  [[nodiscard]] std::uint64_t crcRejected() const { return crcRejected_; }

  [[nodiscard]] const TdmaConfig& config() const { return config_; }

  /// True while any injected disturbance is still armed: a pending
  /// corruptNextFrame that no transmission has consumed yet, or an active
  /// babbling idiot. The snapshot campaign engine refuses to splice a
  /// faulted run back onto the golden timeline until this returns false.
  [[nodiscard]] bool injectionArmed() const;

  /// 64-bit digest of the EVOLUTION-RELEVANT bus state: queued static
  /// payloads, pending dynamic frames, silenced nodes, armed corruptions and
  /// active babblers. Monotone delivery counters are excluded, and so are
  /// map entries that no longer carry state (a node un-silenced via
  /// setNodeSilent(node, false) leaves a `false` entry behind that must not
  /// perturb the digest). Two buses with equal digests queue and deliver the
  /// same frames from here on.
  [[nodiscard]] std::uint64_t stateDigest() const;

 private:
  struct Attached {
    NodeId node;
    ReceiveFn receive;
  };
  /// A node's static-slot buffer; `queued` marks a payload awaiting the slot.
  struct StaticQueue {
    NodeId node = 0;
    bool queued = false;
    std::vector<std::uint32_t> payload;
  };
  /// A dynamic frame that won arbitration, awaiting the end of its minislot.
  struct InFlight {
    Frame frame;
    std::vector<std::uint32_t> flipBits;
  };

  enum EventKind : std::uint32_t { kStaticSlot, kDynamicSegment, kMinislot, kCycleEnd };
  void onEvent(std::uint32_t kind, std::uint64_t arg) override;

  void runStaticSlot(std::uint32_t slot);
  void runDynamicSegment();
  /// Delivers the oldest in-flight dynamic frame (minislot deliveries fire
  /// in arbitration order, so the in-flight list is FIFO).
  void deliverNextDynamic();
  void deliver(Frame& frame, std::span<const std::uint32_t> flipBits);
  void scheduleNextCycle();
  /// Consumes the pending corruption for `node` (empty = none pending).
  std::vector<std::uint32_t> takeCorruption(NodeId node);
  /// The node's static-slot buffer, marked queued (created on first use).
  std::vector<std::uint32_t>& stageStatic(NodeId node);
  [[nodiscard]] StaticQueue* findStatic(NodeId node);

  sim::Simulator& simulator_;
  TdmaConfig config_;
  std::uint32_t handler_ = 0;
  std::vector<Attached> attached_;
  std::vector<StaticQueue> staticQueues_;  ///< sorted by node
  std::vector<Frame> pendingDynamic_;
  std::vector<InFlight> inFlight_;
  std::size_t inFlightHead_ = 0;
  std::map<NodeId, bool> silent_;
  std::map<NodeId, std::vector<std::uint32_t>> corruptNext_;
  std::map<NodeId, bool> babbling_;
  DropTap dropTap_;
  bool guardian_ = false;
  std::uint64_t cycles_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t corruptionsInjected_ = 0;
  std::uint64_t crcRejected_ = 0;
  std::uint64_t babbleCollisions_ = 0;
  std::uint64_t babbleBlocked_ = 0;
  bool started_ = false;
};

}  // namespace nlft::net
