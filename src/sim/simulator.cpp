#include "sim/simulator.hpp"

#include <stdexcept>
#include <utility>

namespace nlft::sim {

EventId Simulator::scheduleAt(SimTime at, Callback cb, EventPriority priority) {
  if (at < now_) throw std::invalid_argument("Simulator: cannot schedule in the past");
  std::uint32_t slot = 0;
  if (freeSlots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = freeSlots_.back();
    freeSlots_.pop_back();
  }
  Slot& entry = slots_[slot];
  entry.callback = std::move(cb);
  entry.live = true;
  queue_.push(Entry{at, static_cast<int>(priority), nextSeq_++, slot, entry.generation});
  ++pending_;
  return EventId{(static_cast<std::uint64_t>(entry.generation) << 32) | slot};
}

EventId Simulator::scheduleAfter(Duration delay, Callback cb, EventPriority priority) {
  if (delay < Duration{}) throw std::invalid_argument("Simulator: negative delay");
  return scheduleAt(now_ + delay, std::move(cb), priority);
}

void Simulator::releaseSlot(std::uint32_t slot) {
  Slot& entry = slots_[slot];
  entry.callback = nullptr;
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
    // Free the slot before running the callback: the callback may schedule
    // (and so reuse the slot) and a self-cancel must report false.
    Callback cb = std::move(slots_[entry.slot].callback);
    releaseSlot(entry.slot);
    now_ = entry.at;
    ++processed_;
    cb();
    return true;
  }
  return false;
}

void Simulator::popStaleTop() {
  while (!queue_.empty() && stale(queue_.top())) queue_.pop();
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
