// Machine-level snapshot forking for copy-on-inject campaigns.
//
// A campaign chunk sorts its sampled faults by (copy band, injection time)
// and advances a shared baseline machine monotonically through the clean
// prefix ONCE; every experiment then forks a scratch machine from the
// baseline at its injection instant instead of re-executing the prefix.
// While sweeping, the baseline drops a snapshot blob into a bounded LRU
// cache at every quantized resume point, so out-of-order forks (rewinds)
// resume from the nearest cached snapshot at or below the target instant
// rather than replaying from instruction zero.
//
// A fork is a plain hw::Machine copy-assignment, and hw::EccMemory copies
// only the memory pages dirty on either side (the pages a guest program
// touches), not the whole 64 KiB codeword array. Whether a copy after the
// faulted one may be replayed is decided by sameBehavior(): an exact
// compare against the clean fixed point, over the same dirty pages.
//
// Because a forked machine is bit-identical to the straight-through machine
// at the same instruction index, the fork path produces byte-identical
// CopyRuns — the differential suite (tests/snapshot_differential_test.cpp)
// pins this. See docs/SNAPSHOT.md for the full equivalence methodology.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "bbw/system_sim.hpp"
#include "hw/machine.hpp"
#include "snap/cache.hpp"

namespace nlft::fi {

/// Exact equality of the BEHAVIOR-RELEVANT machine state: CPU context,
/// halted flag, armed fetch corruption, stuck-at faults and raw memory
/// codewords (compared over the union of both memories' dirty pages, see
/// hw::EccMemory). Deliberately EXCLUDES the executed-instruction counter,
/// the MMU violation counter and the ECC error counters — all monotone
/// bookkeeping that never feeds back into execution — so a machine that
/// returns to the clean fixed point after a fault compares equal to it. In
/// particular a correctable memory flip that was scrubbed on read leaves
/// only a bumped correctedErrors counter behind; the machine then behaves
/// exactly like the clean one, and the classification still sees the
/// correction because it reads the counter off the live scratch machine.
/// The MMU configuration is not compared either: no instruction changes
/// it, and every machine the campaign compares descends from one start
/// state.
[[nodiscard]] bool sameBehavior(const hw::Machine& a, const hw::Machine& b);

/// A fast-forwardable baseline: a start-state machine plus a sweep machine
/// advanced monotonically through the clean prefix. `forkAt(t, scratch)`
/// copies the baseline state after exactly `t` instructions into `scratch`.
/// Callers that fork in nondecreasing `t` order never rewind the sweep, so
/// the whole chunk executes the clean prefix at most once per band and the
/// fork path is a pure in-memory state copy, sparse over dirty memory
/// pages — profiling showed that serializing a blob per fork costs ~20x
/// more than interpreting the short guest programs it would skip.
/// Serialization is reserved for the out-of-order case: after the first
/// rewind the sweep caches a CRC-checked snapshot blob at every quantized
/// resume point it crosses, so later rewinds restore from the nearest
/// cached snapshot at or below the target instead of replaying from
/// instruction zero.
class MachineBaseline {
 public:
  /// `start` must outlive the baseline (it lives in the campaign plan).
  /// `snapshotStride` is the resume-point quantum: after a rewind, the
  /// sweep caches a snapshot each time it crosses a multiple of it
  /// (0 = stride 1).
  MachineBaseline(const hw::Machine& start, std::uint64_t tag, std::uint64_t snapshotStride,
                  snap::SnapshotCache& cache);

  /// Makes `scratch` bit-identical to the baseline state advanced by
  /// `instructions`.
  void forkAt(std::uint64_t instructions, hw::Machine& scratch);

  /// Clean-prefix instructions executed by the sweep machine (simulated
  /// cycles charged to the snapshot engine).
  [[nodiscard]] std::uint64_t sweepInstructions() const { return sweepInstructions_; }
  /// Number of forks served (scratch copies of the baseline state).
  [[nodiscard]] std::uint64_t resumePoints() const { return resumePoints_; }

 private:
  const hw::Machine& start_;
  std::uint64_t tag_;
  std::uint64_t stride_;
  snap::SnapshotCache& cache_;
  std::optional<hw::Machine> sweep_;
  std::uint64_t position_ = 0;  ///< instructions the sweep has executed
  bool rewound_ = false;        ///< a fork ever targeted the sweep's past
  std::uint64_t sweepInstructions_ = 0;
  std::uint64_t resumePoints_ = 0;
};

// --- System-level baseline (docs/SNAPSHOT.md "system campaigns") ---

/// One grid point of a system-campaign golden timeline.
struct SystemCheckpoint {
  std::int64_t gridUs = 0;     ///< grid time (a multiple of the stride)
  std::uint64_t behavior = 0;  ///< bbw::BbwSystemSim::behaviorFingerprint() there
  bbw::BbwSystemCounters counters;  ///< monotone counters there
  /// End-to-end latency samples up to here (an index into the baseline's
  /// sample-bin log), and the largest sample since the previous grid point.
  std::uint32_t latencySamples = 0;
  double latencyIntervalMaxUs = 0.0;
};

/// A stored golden state: an immutable fork of the golden simulation with
/// every event before `boundaryUs` (a control-period boundary) processed
/// and none at or after it.
struct SystemForkState {
  std::int64_t boundaryUs = 0;
  std::unique_ptr<const bbw::BbwSystemSim> sim;
};

/// The shared golden timeline of one system campaign: ONE fault-free
/// `bbw::BbwSystemSim` fast-forwarded checkpoint grid by checkpoint grid,
/// recording at every point the behavior fingerprint, the monotone counters
/// and the end-to-end latency samples — then run to
/// completion for the golden result. The timeline is immutable after construction and
/// a pure function of the configuration, so campaign chunks share one
/// instance read-only across threads.
///
/// Given the campaign's injection window, the sweep also stores FORK
/// STATES: just before every kForkPeriods-th control-period boundary from
/// the last one at or before the window's start through its end — a
/// quiescent instant: every CPU idle, no job active, only typed events
/// pending — an immutable bbw::BbwSystemSim fork of the golden run
/// (BbwSystemSim::runBefore/forkFrom). An experiment injecting at t forks
/// the last state whose boundary is at or before t (forkStateFor) and
/// simulates only from there; without a state it simulates from t=0.
///
/// Every experiment is then armed, and runToRejoin() advances it along the
/// grid and stops simulating once it has provably rejoined the golden
/// timeline: kRejoinConfirmations
/// consecutive grid points with (a) golden per-interval counter deltas
/// INCLUDING the processed-event count, (b) the golden behavior
/// fingerprint, and (c) no armed injection. The rest of the run is then
/// spliced on (bbw::BbwSystemSim::finishSpliced): scratch counters and
/// latencies at the rejoin point plus the golden tail's, trajectory fields
/// from the golden final — bit-identical to running the scratch to
/// completion, metrics registry included, at a fraction of the simulated
/// events. Injections whose disturbance never heals (crashes, wheel
/// omissions) simply never match and run straight to completion.
class SystemBaseline {
 public:
  /// Sweeps the golden run of `config`, checkpointing every control period
  /// of simulated time. Stores no fork states.
  explicit SystemBaseline(bbw::BbwSimConfig config);
  /// As above, also storing the fork states that cover injections in
  /// [injectEarliest, injectLatest] (none for an empty window).
  SystemBaseline(bbw::BbwSimConfig config, util::SimTime injectEarliest,
                 util::SimTime injectLatest);

  [[nodiscard]] const bbw::BbwSimConfig& config() const { return config_; }
  [[nodiscard]] const bbw::BbwSimResult& goldenResult() const { return golden_; }
  [[nodiscard]] const bbw::BbwSystemCounters& goldenCounters() const { return finalCounters_; }
  /// Simulated events the one golden sweep processed (charged once per
  /// campaign to snap.simulatedCycles).
  [[nodiscard]] std::uint64_t sweepEvents() const { return finalCounters_.eventsProcessed; }
  [[nodiscard]] std::int64_t strideUs() const { return strideUs_; }
  [[nodiscard]] const std::vector<SystemCheckpoint>& checkpoints() const { return checkpoints_; }
  /// The stored fork states, by ascending boundary.
  [[nodiscard]] const std::vector<SystemForkState>& forkStates() const { return forkStates_; }

  /// The golden state to fork an experiment whose first injection is at
  /// `at` from: the last stored state with boundary <= at, or null.
  [[nodiscard]] const bbw::BbwSystemSim* forkStateFor(util::SimTime at) const;

  /// Advances the armed scratch sim — freshly built from this baseline's
  /// config, possibly forked from forkStateFor(injectedAt), injections
  /// scheduled at `injectedAtUs` or later, not yet advanced — along the
  /// checkpoint grid and splices the golden tail once
  /// the rejoin condition holds (see the class docs). Returns the finalized
  /// result, or nullopt when the run never rejoins — the scratch is then
  /// mid-flight and the caller finishes it with run().
  [[nodiscard]] std::optional<bbw::BbwSimResult> runToRejoin(bbw::BbwSystemSim& scratch,
                                                             std::int64_t injectedAtUs) const;

  /// The golden run's end-to-end latency samples after checkpoint `index`:
  /// their bins, count and largest value (windowMaxUs stays 0) — the latency
  /// tail a splice at that checkpoint adds.
  [[nodiscard]] bbw::EndToEndLatency latencyAfter(std::size_t index) const;

  /// Consecutive matching grid points required before splicing. Three
  /// checkpoints span >= two full control periods, so every task, bus cycle
  /// and arbitration round has turned over at least once while matching.
  static constexpr unsigned kRejoinConfirmations = 3;

  /// Control periods between fork states: 20 (100 ms at the default 5 ms
  /// period, 19 states over the default 0.2-2.0 s window) leaves a mean
  /// residual prefix of 50 ms per experiment at a few tens of KB per state.
  static constexpr std::int64_t kForkPeriods = 20;

 private:
  bbw::BbwSimConfig config_;
  std::int64_t strideUs_ = 0;
  std::vector<SystemCheckpoint> checkpoints_;
  std::vector<SystemForkState> forkStates_;
  bbw::BbwSimResult golden_;
  bbw::BbwSystemCounters finalCounters_;
  /// The bucket of every golden latency sample, interval by interval (a
  /// checkpoint's latencySamples is where its tail starts): a few bytes per
  /// sample instead of a full histogram per grid point.
  std::vector<std::uint8_t> latencyBins_;
  double finalIntervalMaxUs_ = 0.0;  ///< largest sample after the last grid point
};

}  // namespace nlft::fi
