#include "sim/simulator.hpp"

#include <stdexcept>
#include <utility>

namespace nlft::sim {

EventId Simulator::push(SimTime at, EventPriority priority, std::uint32_t handler,
                        std::uint32_t kind, std::uint64_t arg, Callback cb) {
  if (at < now_) throw std::invalid_argument("Simulator: cannot schedule in the past");
  std::uint32_t slot = 0;
  if (freeSlots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    callbacks_.emplace_back();
  } else {
    slot = freeSlots_.back();
    freeSlots_.pop_back();
  }
  Slot& entry = slots_[slot];
  entry.arg = arg;
  entry.handler = handler;
  entry.kind = kind;
  entry.live = true;
  if (handler == kClosure) {
    callbacks_[slot] = std::move(cb);
    ++pendingClosures_;
  }
  queue_.push(Entry{at, static_cast<int>(priority), nextSeq_++, slot, entry.generation});
  ++pending_;
  return EventId{(static_cast<std::uint64_t>(entry.generation) << 32) | slot};
}

EventId Simulator::scheduleAt(SimTime at, Callback cb, EventPriority priority) {
  return push(at, priority, kClosure, 0, 0, std::move(cb));
}

EventId Simulator::scheduleAfter(Duration delay, Callback cb, EventPriority priority) {
  if (delay < Duration{}) throw std::invalid_argument("Simulator: negative delay");
  return scheduleAt(now_ + delay, std::move(cb), priority);
}

std::uint32_t Simulator::addHandler(EventHandler& handler) {
  handlers_.push_back(&handler);
  return static_cast<std::uint32_t>(handlers_.size() - 1);
}

EventId Simulator::scheduleAt(SimTime at, std::uint32_t handler, std::uint32_t kind,
                              std::uint64_t arg, EventPriority priority) {
  if (handler >= handlers_.size()) throw std::invalid_argument("Simulator: unknown handler");
  return push(at, priority, handler, kind, arg, nullptr);
}

EventId Simulator::scheduleAfter(Duration delay, std::uint32_t handler, std::uint32_t kind,
                                 std::uint64_t arg, EventPriority priority) {
  if (delay < Duration{}) throw std::invalid_argument("Simulator: negative delay");
  return scheduleAt(now_ + delay, handler, kind, arg, priority);
}

void Simulator::copyStateFrom(const Simulator& other) {
  if (&other == this) return;
  if (other.pendingClosures_ != 0) {
    throw std::logic_error("Simulator::copyStateFrom: a pending closure cannot be copied");
  }
  if (other.handlers_.size() != handlers_.size()) {
    throw std::logic_error("Simulator::copyStateFrom: different event handlers");
  }
  now_ = other.now_;
  nextSeq_ = other.nextSeq_;
  processed_ = other.processed_;
  cancelled_ = other.cancelled_;
  pending_ = other.pending_;
  pendingClosures_ = 0;
  queue_ = other.queue_;
  slots_ = other.slots_;
  callbacks_.clear();
  callbacks_.resize(slots_.size());
  freeSlots_ = other.freeSlots_;
}

void Simulator::releaseSlot(std::uint32_t slot) {
  Slot& entry = slots_[slot];
  if (entry.handler == kClosure) {
    callbacks_[slot] = nullptr;
    --pendingClosures_;
  }
  entry.live = false;
  if (++entry.generation == 0) entry.generation = 1;  // 0 would make EventId invalid
  freeSlots_.push_back(slot);
  --pending_;
}

bool Simulator::cancel(EventId id) {
  if (!id.valid()) return false;
  const auto slot = static_cast<std::uint32_t>(id.value);
  const auto generation = static_cast<std::uint32_t>(id.value >> 32);
  if (slot >= slots_.size()) return false;
  const Slot& entry = slots_[slot];
  if (!entry.live || entry.generation != generation) return false;
  releaseSlot(slot);
  ++cancelled_;
  return true;
}

bool Simulator::step() {
  while (!queue_.empty()) {
    const Entry entry = queue_.top();
    queue_.pop();
    if (stale(entry)) continue;  // cancelled
    // Free the slot before running the event: it may schedule (and so
    // reuse the slot) and a self-cancel must report false.
    const Slot record = slots_[entry.slot];
    Callback cb;
    if (record.handler == kClosure) cb = std::move(callbacks_[entry.slot]);
    releaseSlot(entry.slot);
    now_ = entry.at;
    ++processed_;
    if (record.handler == kClosure) {
      cb();
    } else {
      handlers_[record.handler]->onEvent(record.kind, record.arg);
    }
    return true;
  }
  return false;
}

void Simulator::popStaleTop() {
  while (!queue_.empty() && stale(queue_.top())) queue_.pop();
}

bool Simulator::stepBefore(SimTime limit) {
  popStaleTop();
  if (queue_.empty() || !(queue_.top().at < limit)) return false;
  return step();
}

void Simulator::runUntil(SimTime limit) {
  for (;;) {
    popStaleTop();
    if (queue_.empty() || queue_.top().at > limit) break;
    if (!step()) break;
  }
  if (now_ < limit) now_ = limit;
}

void Simulator::runAll() {
  while (step()) {
  }
}

}  // namespace nlft::sim
