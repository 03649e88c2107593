// Discrete-event simulation core.
//
// A single Simulator instance owns the simulated clock and an event queue.
// Events are callbacks scheduled at absolute times; ties are broken first by
// an explicit priority (lower value runs first) and then by insertion order,
// which makes every run fully deterministic.
//
// The real-time kernel, the TDMA bus and the fault injector all share one
// Simulator, so cross-component ordering (e.g. "fault strikes during the
// second task copy") is exact.
//
// Storage is a slot pool tagged by generation, so the steady state of a run
// allocates nothing: each pending event owns one slot (its callback plus a
// generation counter), freed slots are recycled through a free list, and the
// heap orders plain (time, priority, seq, slot, generation) records. Firing
// or cancelling an event bumps its slot's generation, which turns every heap
// record and EventId still naming the old generation stale; stale records
// are skipped when they reach the top of the heap. Callbacks are
// std::function; libstdc++ stores a trivially copyable closure of up to 16
// bytes (two pointers) inline, so such a closure costs no allocation either.
//
// An event is either such a closure or a TYPED record {handler, kind, arg}:
// components register as EventHandlers at construction (in construction
// order, so two simulations wired from one configuration assign the same
// handler indices) and schedule their recurring events as records. Records
// hold no pointers, which makes a simulator's state copyable:
// copyStateFrom() copies the clock, the counters, the heap, the slots with
// their generations and the free list verbatim (live EventIds stay valid in
// the copy), and the copy's records dispatch to the copy's own handlers.
// Closures cannot be copied that way; copyStateFrom() refuses a source with
// any pending closure. One-off events (fault injections, tests, tools) stay
// closures.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "util/time.hpp"

namespace nlft::sim {

using util::Duration;
using util::SimTime;

/// Handle for a scheduled event; valid until the event fires or is cancelled.
///
/// Packs `(generation << 32) | slot`. Generations start at 1 (so a live id is
/// never 0) and are 32 bits wide: they wrap after 2^32 reuses of one slot,
/// skipping 0. A stale id kept across exactly that many reuses of its slot
/// would alias the slot's current event; no run comes near it (a campaign
/// stop reuses each slot a few thousand times).
struct EventId {
  std::uint64_t value = 0;
  [[nodiscard]] bool valid() const { return value != 0; }
  friend bool operator==(EventId, EventId) = default;
};

/// Tie-break priorities for events scheduled at the same instant.
/// Lower runs first.
enum class EventPriority : int {
  FaultInjection = 0,  // faults strike "just before" anything else at t
  Hardware = 1,
  Kernel = 2,
  Network = 3,
  Application = 4,
  Observer = 9,
};

/// Receiver of typed events (see Simulator::addHandler).
class EventHandler {
 public:
  /// Runs one typed event; `kind` and `arg` are what it was scheduled with.
  virtual void onEvent(std::uint32_t kind, std::uint64_t arg) = 0;

 protected:
  ~EventHandler() = default;
};

class Simulator {
 public:
  using Callback = std::function<void()>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `cb` at absolute time `at` (must not be in the past).
  EventId scheduleAt(SimTime at, Callback cb, EventPriority priority = EventPriority::Application);
  /// Schedules `cb` after a non-negative delay from now.
  EventId scheduleAfter(Duration delay, Callback cb,
                        EventPriority priority = EventPriority::Application);

  /// Registers a typed-event handler (not owned; must outlive its events)
  /// and returns its index. Register in a fixed construction order.
  std::uint32_t addHandler(EventHandler& handler);
  /// Schedules the typed event {handler, kind, arg} at absolute time `at`.
  EventId scheduleAt(SimTime at, std::uint32_t handler, std::uint32_t kind, std::uint64_t arg,
                     EventPriority priority);
  /// As above, after a non-negative delay from now.
  EventId scheduleAfter(Duration delay, std::uint32_t handler, std::uint32_t kind,
                        std::uint64_t arg, EventPriority priority);

  /// Replaces this simulator's state with `other`'s: clock, sequence
  /// counter, processed and cancelled counts, heap, slots with their
  /// generations and the free list. Handlers are wiring and stay this
  /// simulator's own. Throws std::logic_error when `other` has a pending
  /// closure or a different number of handlers.
  void copyStateFrom(const Simulator& other);

  /// Cancels a pending event. Returns false if it already fired (including
  /// an event cancelling itself from inside its own callback) or was
  /// cancelled (safe to call either way).
  bool cancel(EventId id);

  /// Runs the next event. Returns false when the queue is empty.
  bool step();
  /// Runs the next event if it is due strictly before `limit`; returns
  /// false (leaving the clock alone) otherwise.
  bool stepBefore(SimTime limit);
  /// Runs events until the queue is empty or `limit` is reached; the clock
  /// ends at exactly `limit` even if no event fires there.
  void runUntil(SimTime limit);
  /// Runs all events (use only for workloads that are known to terminate).
  void runAll();

  /// Scheduled events that have neither fired nor been cancelled.
  [[nodiscard]] std::size_t pendingEvents() const { return pending_; }
  /// Pending events that are closures rather than typed records.
  [[nodiscard]] std::size_t pendingClosures() const { return pendingClosures_; }
  [[nodiscard]] std::uint64_t processedEvents() const { return processed_; }
  /// Successful cancel() calls so far.
  [[nodiscard]] std::uint64_t cancelledEvents() const { return cancelled_; }

 private:
  /// `handler == kClosure` marks a closure event (its callback lives in
  /// callbacks_ at the same index); otherwise the slot is a typed record.
  static constexpr std::uint32_t kClosure = ~0u;
  struct Slot {
    std::uint64_t arg = 0;
    std::uint32_t handler = kClosure;
    std::uint32_t kind = 0;
    std::uint32_t generation = 1;
    bool live = false;
  };
  struct Entry {
    SimTime at;
    int priority;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;
  };
  struct EntryLater {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      if (a.priority != b.priority) return a.priority > b.priority;
      return a.seq > b.seq;
    }
  };

  [[nodiscard]] bool stale(const Entry& entry) const {
    const Slot& slot = slots_[entry.slot];
    return !slot.live || slot.generation != entry.generation;
  }
  /// Takes a free slot, marks it live and queues it.
  EventId push(SimTime at, EventPriority priority, std::uint32_t handler, std::uint32_t kind,
               std::uint64_t arg, Callback cb);
  /// Ends the slot's current event: drops its callback, bumps the generation
  /// and returns the slot to the free list.
  void releaseSlot(std::uint32_t slot);
  void popStaleTop();

  SimTime now_;
  std::uint64_t nextSeq_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::size_t pending_ = 0;
  std::size_t pendingClosures_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, EntryLater> queue_;
  std::vector<Slot> slots_;
  std::vector<Callback> callbacks_;  ///< parallel to slots_
  std::vector<std::uint32_t> freeSlots_;
  std::vector<EventHandler*> handlers_;
};

}  // namespace nlft::sim
