// Membership and reintegration on top of the TDMA bus.
//
// Every alive node broadcasts a heartbeat in its static slot each cycle.
// Each node maintains a local membership view: a peer is a member while its
// heartbeats keep arriving; it is expelled after `missTolerance` consecutive
// silent cycles; and after coming back it is re-admitted only after
// `reintegrationCycles` consecutive heartbeats (the node must prove itself
// stable before it may carry load again). The restart/reintegration times
// behind the paper's repair rates mu_R (3 s) and mu_OM (1.6 s) are exactly
// these protocol latencies plus the local reboot/diagnosis time.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <vector>

#include "net/bus.hpp"

namespace nlft::net {

struct MembershipConfig {
  std::uint32_t missTolerance = 1;        ///< silent cycles before expulsion
  std::uint32_t reintegrationCycles = 2;  ///< heartbeats needed to rejoin
};

/// Runs the heartbeat protocol for a set of nodes sharing one bus.
///
/// Heartbeat payloads use one reserved word prepended to application data in
/// the node's slot; this service owns the slot traffic of its nodes (it
/// forwards any application payload given via queueAppData).
class MembershipService : private sim::EventHandler {
 public:
  /// Registers the service as a typed-event handler of `simulator` (its
  /// cycle tick is a typed record, so the service state is copyable).
  MembershipService(sim::Simulator& simulator, TdmaBus& bus, MembershipConfig config = {});
  MembershipService(const MembershipService&) = delete;
  MembershipService& operator=(const MembershipService&) = delete;

  /// Replaces this service's protocol state (liveness, queued application
  /// data, every peer view) with `other`'s. The application receive hook,
  /// the membership tap and the bus are wiring and stay this service's own.
  void copyStateFrom(const MembershipService& other);

  /// Registers a node; `alive` nodes heartbeat from the next cycle on.
  void addNode(NodeId node, bool alive = true);

  /// Node liveness toggles: a fail-silent failure sets alive=false; a
  /// completed restart sets alive=true (reintegration then takes
  /// reintegrationCycles before peers re-admit the node).
  void setAlive(NodeId node, bool alive);
  [[nodiscard]] bool alive(NodeId node) const;

  /// Queues application data to ride along the node's next heartbeat.
  void queueAppData(NodeId node, std::vector<std::uint32_t> data);
  /// As above, copying `data` into the node's reusable buffer.
  void queueAppData(NodeId node, std::span<const std::uint32_t> data);

  /// Membership view of `observer`: which peers it currently counts as
  /// members (the observer itself is always included while alive).
  [[nodiscard]] std::set<NodeId> membershipView(NodeId observer) const;

  /// True if `observer` counts `peer` as a member.
  [[nodiscard]] bool isMember(NodeId observer, NodeId peer) const;

  /// Application receive hook: called with (receiver, sender, data) for
  /// every heartbeat frame carrying application data. `data` is a buffer the
  /// service reuses for every delivery: valid only during the call.
  using AppReceiveFn = std::function<void(NodeId, NodeId, const std::vector<std::uint32_t>&)>;
  void setAppReceive(AppReceiveFn fn) { appReceive_ = std::move(fn); }

  /// Observer for membership transitions: (observer, peer, nowMember) fires
  /// whenever `observer` expels or re-admits `peer` from its local view.
  using MembershipTap = std::function<void(NodeId, NodeId, bool)>;
  void setMembershipTap(MembershipTap tap) { membershipTap_ = std::move(tap); }

  /// Must be called once after all nodes are added; also starts the bus.
  void start();

  /// 64-bit digest of the full protocol state: per-node liveness, queued
  /// application data and every peer-view entry (membership, consecutive
  /// heard/missed streaks, last-heard cycle). Two services with equal
  /// digests make the same expulsion/re-admission decisions from here on.
  [[nodiscard]] std::uint64_t stateDigest() const;

 private:
  struct PeerState {
    bool member = false;
    std::uint32_t consecutiveHeard = 0;
    std::uint32_t consecutiveMissed = 0;
    std::uint64_t lastHeardCycle = ~0ULL;
  };
  struct NodeState {
    bool alive = true;
    std::vector<std::uint32_t> pendingAppData;
    std::map<NodeId, PeerState> peers;
  };

  /// The cycle tick (the service's only typed event).
  void onEvent(std::uint32_t kind, std::uint64_t arg) override;
  void onCycle();
  void onFrame(NodeId receiver, const Frame& frame);

  sim::Simulator& simulator_;
  TdmaBus& bus_;
  MembershipConfig config_;
  std::uint32_t handler_ = 0;
  std::map<NodeId, NodeState> nodes_;
  AppReceiveFn appReceive_;
  MembershipTap membershipTap_;
  bool started_ = false;
  // Reused buffers: the heartbeat being queued and the application data
  // handed to appReceive_ (capacity kept across cycles, no steady-state
  // allocation).
  std::vector<std::uint32_t> heartbeat_;
  std::vector<std::uint32_t> appData_;
};

}  // namespace nlft::net
