// Closed-loop distributed brake-by-wire simulation (Fig. 4 of the paper).
//
// Six computer nodes on one FlexRay-style bus:
//   node 1, 2  — duplex central unit (active replication): pedal ->
//                per-wheel torque requests, broadcast each cycle;
//   node 3..6  — simplex wheel nodes: slip control, local brake actuator.
//
// Every node runs the real-time kernel; critical control tasks execute under
// TEM (NLFT nodes) or as single copies (fail-silent baseline). Faults can be
// injected into any node mid-stop and the effect shows up directly in the
// stopping distance — the system-level consequence of node-level fault
// tolerance.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bbw/control.hpp"
#include "bbw/params.hpp"
#include "bbw/vehicle.hpp"
#include "core/policies.hpp"
#include "core/tem.hpp"
#include "net/membership.hpp"
#include "rtkernel/kernel.hpp"
#include "sim/simulator.hpp"

namespace nlft::obs {
class Registry;
class TraceRecorder;
}  // namespace nlft::obs

namespace nlft::bbw {

using util::Duration;
using util::SimTime;

/// Node ids on the bus.
inline constexpr net::NodeId kCuA = 1;
inline constexpr net::NodeId kCuB = 2;
inline constexpr net::NodeId kWheelNodeBase = 3;  // +0..3 = FL, FR, RL, RR

/// The fixed deployment constants shared by the simulator AND the static
/// verifier (src/verify): TDMA bus layout and per-task timing of every node.
/// Single source of truth so the configuration the verifier certifies is
/// exactly the one the simulator executes.
struct BbwDeployment {
  net::TdmaConfig bus;
  Duration controlPeriod{};   ///< periodic control tasks (CU + wheels)
  int controlPriority = 0;
  Duration cuControlWcet{};   ///< single-copy time of brake-distribution
  Duration wheelControlWcet{};///< single-copy time of wheel-control
  int emergencyPriority = 0;  ///< sporadic emergency-brake task (CUs)
  Duration emergencyWcet{};
  Duration emergencyDeadline{};
  int diagnosticPriority = 0; ///< non-critical diagnostic task (all nodes)
  Duration diagnosticPeriod{};
  Duration diagnosticWcet{};
};

[[nodiscard]] const BbwDeployment& bbwDeployment();

struct BbwSimConfig {
  NodeType nodeType = NodeType::Nlft;
  double initialSpeedMps = 27.8;   ///< ~100 km/h
  double pedal = 1.0;              ///< panic braking
  /// Optional pedal profile (simulated seconds -> pedal position [0,1]);
  /// overrides `pedal` when set. Sampled once per CU job (read-input phase).
  std::function<double(double)> pedalProfile;
  Duration controlPeriod = Duration::milliseconds(5);
  Duration plantStep = Duration::milliseconds(1);
  Duration horizon = Duration::seconds(15);
  Duration restartTime = Duration::seconds(3);  ///< node reboot + diagnosis (mu_R)
  VehicleParams vehicle{};
  CentralUnitConfig centralUnit{};
};

struct BbwSimResult {
  bool stopped = false;
  double stoppingDistanceM = 0.0;
  double stopTimeS = 0.0;
  std::uint64_t commandFramesDelivered = 0;   ///< accepted by the duplex arbiters
  std::uint64_t duplicateCommandsDropped = 0; ///< partner copies discarded
  std::uint64_t busFramesDropped = 0;
  std::set<net::NodeId> nodesDownAtEnd;
  /// Per wheel node: jobs completed / omissions (kernel stats).
  std::array<std::uint64_t, kWheelCount> wheelCompletions{};
  std::array<std::uint64_t, kWheelCount> wheelOmissions{};
  std::uint64_t cuCompletions = 0;
  std::uint64_t errorsMaskedByTem = 0;   ///< summed over all NLFT nodes
  std::uint64_t failSilentEvents = 0;
  /// Control results suppressed by injectOmissionFailure (node-level
  /// omission failures: no command that period).
  std::uint64_t commandsOmitted = 0;
  /// Results corrupted identically in every copy by injectValueFailure that
  /// reached the actuator/bus undetected (the system-level coverage gap).
  std::uint64_t undetectedValueDeliveries = 0;
  /// Emergency-brake press -> first wheel actuation latency (zero if the
  /// emergency path was never exercised).
  Duration emergencyBrakeLatency{};
};

/// Monotone counters of a live system simulation, observable at any instant
/// (run() reports the same quantities, finalized). They cover EVERY
/// counter an attached metrics registry receives, so the golden-rejoin
/// splice (fi::SystemBaseline, docs/SNAPSHOT.md "system campaigns") can
/// both compare PER-INTERVAL deltas against a precomputed golden timeline —
/// equal deltas over consecutive checkpoints mean the faulted run processed
/// the exact same event stream as the fault-free run over that interval —
/// and export a spliced run's metrics as totals.
struct BbwSystemCounters {
  std::uint64_t eventsProcessed = 0;
  std::uint64_t busCycles = 0;
  std::uint64_t busFramesDelivered = 0;
  std::uint64_t busFramesDropped = 0;
  std::uint64_t busCrcRejected = 0;
  std::uint64_t busCorruptionsInjected = 0;
  std::uint64_t commandFramesDelivered = 0;
  std::uint64_t duplicateCommandsDropped = 0;
  std::uint64_t commandsOmitted = 0;
  std::uint64_t undetectedValueDeliveries = 0;
  std::uint64_t failSilentEvents = 0;
  std::uint64_t kernelErrors = 0;
  std::uint64_t cpuDispatches = 0;
  std::uint64_t cpuPreemptions = 0;
  std::uint64_t controlReleases = 0;
  std::uint64_t controlCompletions = 0;
  std::uint64_t controlOmissions = 0;
  std::uint64_t controlDeadlineMisses = 0;
  std::uint64_t controlBudgetOverruns = 0;
  std::uint64_t cuCompletions = 0;
  std::uint64_t errorsMaskedByTem = 0;
  std::array<std::uint64_t, kWheelCount> wheelCompletions{};
  std::array<std::uint64_t, kWheelCount> wheelOmissions{};
  /// tem::TemStats of the critical tasks (control, and emergency on the
  /// CUs) summed over the NLFT nodes; all zero on fail-silent nodes.
  tem::TemStats tem;

  friend bool operator==(const BbwSystemCounters&, const BbwSystemCounters&) = default;

  /// Field-wise difference against an EARLIER snapshot of the same
  /// simulation (all counters are monotone, so this never underflows).
  [[nodiscard]] BbwSystemCounters minus(const BbwSystemCounters& earlier) const;
  /// Field-wise sum: these counters followed by the `later` deltas.
  [[nodiscard]] BbwSystemCounters plus(const BbwSystemCounters& later) const;
};

/// Histogram layout of the "e2e.latency" metric: [0, 50 ms) in 1 ms bins.
inline constexpr std::size_t kEndToEndLatencyBuckets = 50;

/// Pedal-sample -> actuator-apply latencies of one run (first apply of each
/// command sequence per wheel, simulated microseconds), binned like the
/// "e2e.latency" histogram. A simulation always accumulates them in these
/// plain bins and exports them — with the "e2e.latency.max_us" gauge — to
/// an attached registry once, at the end of the run. Exported samples
/// therefore never depend on when a registry was attached, and a spliced
/// run's latencies are this prefix merged with the golden tail's.
struct EndToEndLatency {
  std::array<std::uint32_t, kEndToEndLatencyBuckets> bins{};
  std::uint32_t samples = 0;
  double maxUs = 0.0;        ///< largest sample so far (0 without samples)
  double windowMaxUs = 0.0;  ///< largest sample since the latest runUntil() began

  void add(double latencyUs);
  /// Adds `other`'s samples (bins and counts add, maxima take the max).
  void merge(const EndToEndLatency& other);
};

class BbwSystemSim {
 public:
  explicit BbwSystemSim(BbwSimConfig config = {});
  ~BbwSystemSim();
  BbwSystemSim(const BbwSystemSim&) = delete;
  BbwSystemSim& operator=(const BbwSystemSim&) = delete;

  /// Makes this simulation a FORK of `golden`: copies its entire state —
  /// the pending DES events (typed records, so no closure is copied), bus,
  /// membership, kernels, CPUs, executors, arbiters, vehicle and the
  /// bookkeeping behind results and metrics — so this simulation continues
  /// exactly as `golden` would from here on. Its wiring (component hooks,
  /// metrics registry) stays its own; an attached registry receives totals
  /// that include the golden prefix, exactly as a straight run's. Call on a
  /// freshly constructed simulation with the same config, before arming
  /// injections. Throws std::logic_error when this simulation has run or
  /// has anything armed, when the configs differ, when either side has a
  /// trace sink or recorder (trace lines cannot be forked, as they cannot
  /// be spliced), or when `golden` is not forkable().
  void forkFrom(const BbwSystemSim& golden);

  /// True when the current state can be forked: no trace sink or recorder,
  /// no pending closure event (injection, restart, emergency press), every
  /// CPU idle and no job active. A fault-free run is forkable just before
  /// every control-period boundary (see runBefore()).
  [[nodiscard]] bool forkable() const;

  /// Processes every event due strictly before `instant` (or until the
  /// vehicle stops, the events run out or the horizon passes), leaving the
  /// clock at the last processed event: a quiescent fork point when
  /// `instant` is a control-period boundary. Like runUntil(), it opens a
  /// new end-to-end latency window; mixes freely with runUntil() and run().
  void runBefore(SimTime instant);

  // The inject* hooks below throw std::logic_error when `at` lies in a
  // prefix whose events are all processed already (before the bound of
  // runBefore(), or before a fork's capture point).

  /// Corrupts the result of one copy of the node's next control job
  /// (a silent data fault: NLFT masks it by comparison+vote; a fail-silent
  /// node delivers the wrong value undetected).
  void injectComputationFault(net::NodeId node, SimTime at);

  /// Injects an EDM-detected error into the node's next control-task copy
  /// (NLFT: copy terminated + replacement; FS baseline: node fail-silent).
  void injectDetectedError(net::NodeId node, SimTime at);

  /// Injects an error into the node's kernel: the node becomes silent and
  /// restarts after restartTime (both node types, Section 2.2 strategy 3).
  void injectKernelError(net::NodeId node, SimTime at);

  /// Forces the node's next delivered control result to be suppressed
  /// before it reaches the actuator/bus — the node-level OMISSION failure
  /// (P_OM): no command that period; receivers bridge with the previous
  /// value (Section 2.2 "the system is able to use a previous value").
  void injectOmissionFailure(net::NodeId node, SimTime at);

  /// The coverage-gap injection: the node's next control job computes a
  /// wrong result in EVERY copy identically, so neither the comparison nor
  /// the vote can detect it — an undetected VALUE failure delivered to the
  /// system (counted in BbwSimResult::undetectedValueDeliveries).
  void injectValueFailure(net::NodeId node, SimTime at);

  /// Corrupts the node's next bus frame in transit: the CRC check drops it
  /// at every receiver, so one command/heartbeat is lost. Wheel nodes hold
  /// the previous command (Section 2.2: "the system is able to use a
  /// previous value").
  void injectBusCorruption(net::NodeId node, SimTime at);

  /// As above but with explicit fault locations: flips the given frame bits
  /// (payload first, then CRC; indices wrap — see net::TdmaBus).
  void injectBusCorruption(net::NodeId node, SimTime at, std::vector<std::uint32_t> flipBits);

  /// Presses the emergency-brake input at `at`: both CUs release a SPORADIC
  /// task whose full-brake command travels in the event-triggered (dynamic)
  /// segment — the paper's Section 2.1 argument for mixed time/event
  /// triggering ("fast handling of sporadic activities"). Wheel nodes apply
  /// it the moment it arrives, without waiting for the next periodic
  /// command. Returns nothing; the observed latency is in the result.
  /// Throws std::logic_error on a forked simulation: the press runs at
  /// Application priority, where its order among same-instant events
  /// depends on when it was scheduled, which a fork changes.
  void pressEmergencyBrake(SimTime at);

  /// Streams a line-oriented system event trace (fault firings, kernel
  /// errors, node silences/restarts, membership transitions, bus drops,
  /// vehicle stop) into `sink` — the input of the golden-trace harness.
  /// Must be called before run(); one sink per simulation.
  void setTraceSink(std::function<void(const std::string&)> sink);

  /// Attaches a metrics registry (not owned; must outlive the simulation).
  /// At the end of run() the simulation folds its deterministic counters
  /// into it: kernel scheduling (preemptions, releases, budget overruns),
  /// TEM copy executions and vote outcomes, bus frames/CRC rejects/drops,
  /// the system-level failure counters and the end-to-end latencies. Call
  /// before run().
  void setMetricsRegistry(obs::Registry* registry);

  /// Attaches a span/trace recorder (not owned). Every system event that
  /// goes to the trace sink is mirrored as a Chrome instant event (pid =
  /// node id), and at the end of run() each node's CPU execution segments
  /// are exported as complete spans (one tid per task; CPUs record their
  /// segments only while a recorder is attached). Call before run().
  void setTraceRecorder(obs::TraceRecorder* recorder);

  /// The membership service (peer views, liveness) for assertions and
  /// observer taps.
  [[nodiscard]] const net::MembershipService& membership() const;
  [[nodiscard]] net::MembershipService& membership();

  /// Runs until the vehicle stops or the horizon elapses.
  [[nodiscard]] BbwSimResult run();

  /// Advances the simulation to `until` (or until the vehicle stops /
  /// events run out) WITHOUT finalizing a result. Callable repeatedly with
  /// nondecreasing times; a later run() continues to the horizon and
  /// finalizes as usual.
  void runUntil(SimTime until);

  /// Snapshot of the monotone counters at the current instant.
  [[nodiscard]] BbwSystemCounters counterSnapshot() const;

  /// End-to-end latencies accumulated so far.
  [[nodiscard]] const EndToEndLatency& endToEndLatency() const;

  /// Finishes the run by SPLICING a known future onto the current state
  /// instead of simulating it: `final` supplies the trajectory and terminal
  /// fields of the result, `tail` the counter deltas and `tailLatency` the
  /// latency samples the rest of the run adds. The counter fields of the
  /// result, and everything an attached registry receives, are this run's
  /// totals so far plus the tail — exactly what run() would report when the
  /// rest of this run IS that future (fi::SystemBaseline::runToRejoin
  /// proves it before splicing). Throws std::logic_error when a trace sink
  /// or trace recorder is attached: trace lines cannot be spliced.
  [[nodiscard]] BbwSimResult finishSpliced(const BbwSimResult& final,
                                           const BbwSystemCounters& tail,
                                           const EndToEndLatency& tailLatency);

  /// 64-bit digest of the EVOLUTION-RELEVANT state only: clock, pending
  /// event count, vehicle kinematics, held commands/limits/sequences,
  /// emergency latching, per-node kernel liveness and armed one-shot faults,
  /// the end-to-end latency bookkeeping that future samples read (each
  /// wheel's last measured sequence, the pedal-sample times of sequences
  /// not measured yet), plus the membership, bus and duplex-arbiter state
  /// digests. It EXCLUDES monotone bookkeeping (processed events, delivery
  /// counters, task statistics), so a faulted simulation whose
  /// disturbance has fully healed produces the golden digest again — the
  /// rejoin condition of the snapshot campaign engine. Counter deltas are
  /// compared separately via counterSnapshot().
  [[nodiscard]] std::uint64_t behaviorFingerprint() const;

  /// True when no injected one-shot fault is still armed: every
  /// corrupt/detected-error/omission/value flag has been consumed by a
  /// control job, no value-failure job is in flight, and the bus holds no
  /// armed corruption or babbler. Scheduled-but-unfired injection closures
  /// are invisible here; callers gate on the injection time separately.
  [[nodiscard]] bool injectionQuiescent() const;

  [[nodiscard]] sim::Simulator& simulator();
  [[nodiscard]] const Vehicle& vehicle() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace nlft::bbw
