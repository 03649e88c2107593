#include "core/replication.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/state_hash.hpp"

namespace nlft::tem {

DuplexArbiter::DuplexArbiter(Policy policy, Duration compareWindow)
    : policy_{policy}, window_{compareWindow} {
  if (compareWindow <= Duration{}) throw std::invalid_argument("DuplexArbiter: bad window");
}

void DuplexArbiter::copyStateFrom(const DuplexArbiter& other) {
  policy_ = other.policy_;
  window_ = other.window_;
  pending_ = other.pending_;
  settledBelow_ = other.settledBelow_;
  settledTail_ = other.settledTail_;
  delivered_ = other.delivered_;
  duplicatesDropped_ = other.duplicatesDropped_;
  mismatches_ = other.mismatches_;
  singleSource_ = other.singleSource_;
}

bool DuplexArbiter::settled(std::uint64_t sequence) const {
  return sequence < settledBelow_ ||
         std::binary_search(settledTail_.begin(), settledTail_.end(), sequence);
}

void DuplexArbiter::settle(std::uint64_t sequence) {
  if (sequence < settledBelow_) return;
  if (sequence == settledBelow_) {
    // Advance over the tail's leading run of consecutive sequences.
    std::size_t run = 0;
    ++settledBelow_;
    while (run < settledTail_.size() && settledTail_[run] == settledBelow_) {
      ++run;
      ++settledBelow_;
    }
    settledTail_.erase(settledTail_.begin(),
                       settledTail_.begin() + static_cast<std::ptrdiff_t>(run));
    return;
  }
  if (settledTail_.empty() || settledTail_.back() < sequence) {
    settledTail_.push_back(sequence);
  } else if (const auto it =
                 std::lower_bound(settledTail_.begin(), settledTail_.end(), sequence);
             *it != sequence) {
    settledTail_.insert(it, sequence);
  }
}

std::optional<std::vector<std::uint32_t>> DuplexArbiter::offer(
    int replica, std::uint64_t sequence, std::vector<std::uint32_t> payload, SimTime now) {
  if (!accept(replica, sequence, payload, now)) return std::nullopt;
  return std::optional<std::vector<std::uint32_t>>{std::move(payload)};
}

bool DuplexArbiter::accept(int replica, std::uint64_t sequence,
                           std::span<const std::uint32_t> payload, SimTime now) {
  if (replica != 0 && replica != 1) throw std::invalid_argument("DuplexArbiter: bad replica");

  if (settled(sequence)) {
    ++duplicatesDropped_;
    return false;
  }

  if (policy_ == Policy::FirstValid) {
    settle(sequence);
    ++delivered_;
    return true;
  }

  // CompareAndFlag.
  const auto pendingIt = pending_.find(sequence);
  if (pendingIt == pending_.end()) {
    pending_[sequence] = Pending{replica, {payload.begin(), payload.end()}, now};
    return false;
  }
  if (pendingIt->second.replica == replica) {
    ++duplicatesDropped_;  // same replica retransmitted
    return false;
  }

  const bool match = std::equal(pendingIt->second.payload.begin(),
                                pendingIt->second.payload.end(), payload.begin(), payload.end());
  pending_.erase(pendingIt);
  settle(sequence);
  if (match) {
    ++delivered_;
    return true;
  }
  ++mismatches_;
  if (onMismatch_) onMismatch_(sequence);
  return false;
}

std::uint64_t DuplexArbiter::stateDigest() const {
  util::StateHash digest;
  digest.u64(static_cast<std::uint64_t>(policy_));
  digest.i64(window_.us());
  for (const auto& [sequence, pending] : pending_) {
    digest.u64(sequence);
    digest.u64(static_cast<std::uint64_t>(pending.replica));
    digest.i64(pending.arrivedAt.us());
    digest.u64(pending.payload.size());
    for (const std::uint32_t word : pending.payload) digest.u64(word);
  }
  digest.u64(settledBelow_);
  for (const std::uint64_t sequence : settledTail_) digest.u64(sequence);
  return digest.finish();
}

std::vector<std::vector<std::uint32_t>> DuplexArbiter::poll(SimTime now) {
  std::vector<std::vector<std::uint32_t>> released;
  if (policy_ != Policy::CompareAndFlag) return released;
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (now - it->second.arrivedAt >= window_) {
      settle(it->first);
      ++delivered_;
      ++singleSource_;
      released.push_back(std::move(it->second.payload));
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  return released;
}

}  // namespace nlft::tem
