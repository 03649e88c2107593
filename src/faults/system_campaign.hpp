// System-level fault-injection campaigns over the distributed brake-by-wire
// simulation (bbw::BbwSystemSim).
//
// Where campaign.hpp reproduces the paper's NODE-level coverage experiment
// (one task, one machine, one fault), this module closes the loop at the
// SYSTEM level: each experiment injects one fault scenario into the six-node
// networked closed-loop stop — a machine-level transient on one node's guest
// program, a corrupted bus frame, a node crash with mu_R restart, or a
// correlated multi-node burst — and an oracle classifies the consequence
// observed at the vehicle (masked / omission degradation / fail-silent
// degradation / value failure / missed stop).
//
// Machine-level transients reuse fi::FaultModel against the bbw guest
// programs: the sampled fault is first classified by the machine-level TEM
// (or fail-silent) experiment, and the node-level outcome is then replayed
// into the system simulation through the matching BbwSystemSim injection
// hook. The aggregated node-level outcomes yield MEASURED P_T / P_OM /
// coverage with Wilson intervals (CoverageEstimate), which feed back into
// the analytic models (bbw::markov_models, sys::estimateReliability) for
// paper-assumed vs measured comparisons.
//
// Campaigns run through exec::runChunkedCampaign: bit-identical statistics
// at every thread count for a fixed (seed, chunkSize).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "bbw/params.hpp"
#include "bbw/system_sim.hpp"
#include "exec/parallel_for.hpp"
#include "faults/campaign.hpp"
#include "obs/metrics.hpp"
#include "sysmodel/montecarlo.hpp"
#include "util/rng.hpp"
#include "util/statistics.hpp"

namespace nlft::fi {

/// What kind of fault one system experiment injects.
enum class ScenarioKind : std::uint8_t {
  MachineTransient,  ///< bit flip in one node's CPU/memory (via fi::FaultModel)
  BusCorruption,     ///< 1..3 bit flips on one node's next bus frame
  NodeCrash,         ///< kernel error: node silent, restarts after mu_R
  CorrelatedBurst,   ///< simultaneous kernel errors on several nodes
};
inline constexpr std::size_t kScenarioKindCount = 4;

/// System-level classification of one experiment, in increasing severity.
enum class SystemOutcome : std::uint8_t {
  Masked,                 ///< stop indistinguishable from the fault-free run
  OmissionDegradation,    ///< commands/frames lost, stop still within margin
  FailSilentDegradation,  ///< a node went silent mid-stop, stop within margin
  ValueFailure,           ///< an undetected wrong command reached the system
  MissedStop,             ///< no stop, or stopping distance beyond the margin
};
inline constexpr std::size_t kSystemOutcomeCount = 5;

[[nodiscard]] const char* describe(ScenarioKind kind);
[[nodiscard]] const char* describe(SystemOutcome outcome);

/// One concrete scenario (sampled by the campaign, or hand-built in tests).
struct SystemScenario {
  ScenarioKind kind = ScenarioKind::MachineTransient;
  std::vector<net::NodeId> targets;  ///< one node, or several for bursts
  util::SimTime at;                  ///< injection instant
  FaultSpec fault;                   ///< machine-level fault (MachineTransient)
  std::vector<std::uint32_t> flipBits;  ///< frame bits to flip (BusCorruption)
};

/// Node-level outcomes of the machine-level transients behind the system
/// campaign, aggregated with the same estimators as the node-level
/// campaigns: denominators are ACTIVATED faults, matching TemCampaignStats
/// and the EXPERIMENTS.md coverage table.
struct NodeLevelCounts {
  std::size_t injected = 0;
  std::size_t notActivated = 0;
  std::size_t maskedByEcc = 0;
  std::size_t masked = 0;      ///< vote or replacement delivered the result
  std::size_t omission = 0;    ///< no result (vote failed / budget exhausted)
  std::size_t failSilent = 0;  ///< node went silent (fail-silent nodes)
  std::size_t undetected = 0;  ///< wrong output delivered (coverage gap)

  void merge(const NodeLevelCounts& other);
  [[nodiscard]] std::size_t activated() const {
    return injected - notActivated - maskedByEcc;
  }
  /// Measured P_T: masked / activated.
  [[nodiscard]] util::ProportionEstimate pMask() const;
  /// Measured P_OM: omissions / activated.
  [[nodiscard]] util::ProportionEstimate pOmission() const;
  /// Measured P_FS: fail-silent reactions / activated.
  [[nodiscard]] util::ProportionEstimate pFailSilent() const;
  /// Measured C_D: 1 - undetected / activated.
  [[nodiscard]] util::ProportionEstimate coverage() const;
};

struct SystemCampaignConfig {
  std::size_t experiments = 100;
  std::uint64_t seed = 1;
  bbw::NodeType nodeType = bbw::NodeType::Nlft;

  /// Scenario sampling weights (normalised internally).
  double machineTransientWeight = 0.70;
  double busCorruptionWeight = 0.10;
  double nodeCrashWeight = 0.10;
  double correlatedBurstWeight = 0.10;

  /// Machine-level fault mix. The transient-calibrated default lowers the
  /// persistent double-bit memory upsets to 0.10 (an uncorrectable flip in
  /// program text defeats every copy and is unmaskable by design — the
  /// paper's P_T/P_OM figures come from transient injection).
  FaultMix mix{0.60, 0.10, 0.22, 0.08, 0.10};
  /// Job budget as a multiple of the golden copy cost. 5.0 covers one
  /// ETM-overrun copy plus two clean copies for both guest programs
  /// (budget-starved omissions otherwise dominate P_OM).
  double jobBudgetFactor = 5.0;

  /// Injection window, seconds into the stop.
  double injectEarliestS = 0.2;
  double injectLatestS = 2.0;

  /// Oracle thresholds relative to the fault-free golden stop: distance
  /// deviations within maskToleranceM count as masked; beyond the golden
  /// distance + missedStopMarginM (or no stop at all) is a missed stop.
  double maskToleranceM = 0.5;
  double missedStopMarginM = 20.0;

  /// Simulation knobs (nodeType is overridden by the field above).
  bbw::BbwSimConfig sim{};

  /// How experiments execute (docs/SNAPSHOT.md "system campaigns"). Auto
  /// builds one golden timeline per campaign, forks every experiment from
  /// the last stored golden state before its injection and splices the
  /// golden tail onto every experiment that provably rejoins it; Straight
  /// runs every simulation from t=0 to its end. Statistics and metrics
  /// fingerprints are bit-identical across both.
  ExecutionMode mode = ExecutionMode::Auto;

  exec::Parallelism parallelism{};
  exec::ProgressFn onProgress;
  exec::CancellationToken* cancel = nullptr;

  /// Optional metrics sink (not owned). The campaign folds in: every
  /// per-simulation registry (kernel/TEM/bus counters, via chunk-local
  /// registries merged in chunk order), derived "campaign.*" outcome
  /// counters that reconcile 1:1 with SystemCampaignStats, the fork and
  /// splice engine counters ("snap.sys.*") and the exec-layer profiling
  /// ("exec.*" / "wall.exec.*"). All metrics but "wall.*" are bit-identical
  /// at every thread count; all but "wall.*" and "snap.*" also across
  /// execution modes.
  obs::Registry* metrics = nullptr;
};

struct SystemCampaignStats {
  std::size_t experiments = 0;
  /// Outcome histogram, indexed by SystemOutcome.
  std::array<std::size_t, kSystemOutcomeCount> outcomes{};
  /// Outcome histogram per scenario kind [ScenarioKind][SystemOutcome].
  std::array<std::array<std::size_t, kSystemOutcomeCount>, kScenarioKindCount> outcomesByKind{};
  /// Machine-level node outcomes (MachineTransient scenarios only).
  NodeLevelCounts nodeLevel;
  util::RunningStats stoppingDistanceM;
  std::size_t stops = 0;  ///< experiments in which the vehicle stopped
  /// MachineTransient experiments whose fault never became an error
  /// (not-activated or ECC-masked): counted as Masked in `outcomes` with the
  /// golden result copied in, and simulated in NO execution mode — the
  /// "campaign.skipped_masked" metric reconciles against this.
  std::size_t skippedMasked = 0;
  /// Fork and splice engine counters: simulatedCycles (DES events
  /// simulated after each experiment's fork, the golden run included),
  /// resumePoints (experiments forked from a stored golden state),
  /// replayedCopies (experiments finished by a golden-tail splice) and
  /// executedCopies (experiments simulated to their end); the other fields
  /// stay zero. They differ between execution modes, so they stay out of
  /// the golden metrics namespace: run reports carry them under the
  /// non-golden "snap.sys.*" prefix, which cross-mode fingerprints skip.
  SnapCounters snap;

  void merge(const SystemCampaignStats& other);
  [[nodiscard]] std::size_t outcome(SystemOutcome o) const {
    return outcomes[static_cast<std::size_t>(o)];
  }
};

/// Measured coverage parameters with Wilson intervals — the campaign's
/// feedback into the analytic reliability models.
struct CoverageEstimate {
  util::ProportionEstimate pMask;
  util::ProportionEstimate pOmission;
  util::ProportionEstimate pFailSilent;
  util::ProportionEstimate coverage;
};

[[nodiscard]] CoverageEstimate measuredCoverage(const SystemCampaignStats& stats);

/// Applies the measured point estimates onto a parameter set. The campaign
/// measures UNCONDITIONAL proportions (masked / activated); the analytic
/// models use P(reaction | detected), so the proportions are divided by the
/// measured coverage and the fail-silent reaction receives the remaining
/// conditional mass (the machine-level TEM protocol has no fail-silent
/// reaction of its own).
[[nodiscard]] bbw::ReliabilityParameters withMeasuredCoverage(
    const CoverageEstimate& measured,
    bbw::ReliabilityParameters base = bbw::ReliabilityParameters::paperDefaults());
[[nodiscard]] sys::NodeParameters withMeasuredCoverage(const CoverageEstimate& measured,
                                                       sys::NodeParameters base);

/// Samples one scenario (exposed for reproducibility in tests).
[[nodiscard]] SystemScenario sampleScenario(const SystemCampaignConfig& config, util::Rng& rng);

/// The fault-free reference stop for the campaign configuration.
[[nodiscard]] bbw::BbwSimResult goldenStop(const SystemCampaignConfig& config);

/// One experiment: runs the scenario against the golden stop and classifies
/// the system-level outcome. MachineTransient scenarios also return the
/// node-level counts of the machine experiment behind the injection.
struct SystemExperiment {
  SystemScenario scenario;
  SystemOutcome outcome = SystemOutcome::Masked;
  NodeLevelCounts nodeLevel;
  bbw::BbwSimResult sim;
  /// True when the machine-level fault never became an error and the
  /// simulation was skipped (sim is a copy of the golden result).
  bool skippedMasked = false;
};
[[nodiscard]] SystemExperiment runSystemExperiment(const SystemCampaignConfig& config,
                                                   const SystemScenario& scenario,
                                                   const bbw::BbwSimResult& golden);

/// Full campaign with randomly sampled scenarios. Deterministic: for a
/// fixed (seed, chunkSize) the statistics are bit-identical at every
/// thread count.
[[nodiscard]] SystemCampaignStats runSystemCampaign(const SystemCampaignConfig& config);

// ---- Stratified campaign (docs/ESTIMATORS.md, docs/SYSTEM_FI.md) ----
//
// The crude campaign samples scenarios by the configured kind weights, so a
// 2000-experiment run spends ~10 experiments per (rare kind, node) cell and
// the per-cell rates are noisy. The stratified campaign partitions the
// scenario space into strata — fault class x target node x injection-window
// bin — runs a deterministic allocation of the budget inside every stratum,
// and recombines with the post-stratified estimator
// util::stratifiedProportion, using each stratum's nominal probability W_h
// as its weight. Point estimates target exactly the same quantities as the
// crude campaign; the variance drops because the between-strata component is
// eliminated and no cell is left to sampling luck.

/// One stratum: a fault class, a target node and an injection-window bin,
/// with its nominal probability and allocated share of the budget.
struct StratumSpec {
  ScenarioKind kind = ScenarioKind::MachineTransient;
  net::NodeId target = 1;
  std::size_t windowBin = 0;
  double windowLoS = 0.0;  ///< injection window [lo, hi) seconds
  double windowHiS = 0.0;
  /// W_h: probability of this stratum under the crude sampler (normalised
  /// kind weight x 1/nodes x 1/windowBins). Sums to 1 over all strata.
  double weight = 0.0;
  std::size_t experiments = 0;  ///< allocated trials (largest remainder)
};

/// Per-stratum campaign statistics with Wilson intervals per outcome.
struct StratumResult {
  StratumSpec spec;
  SystemCampaignStats stats;

  /// Wilson interval for P(outcome | stratum).
  [[nodiscard]] util::ProportionEstimate outcomeRate(SystemOutcome outcome) const;
};

struct StratifiedCampaignResult {
  /// Kind-major, then node, then window bin; only kinds with positive
  /// weight appear.
  std::vector<StratumResult> strata;
  /// All strata merged (NOT a crude-campaign sample: outcome mixes follow
  /// the allocation, use outcomeEstimate() for population-level rates).
  SystemCampaignStats total;
  std::size_t experiments = 0;

  /// Post-stratified estimate of the population outcome probability
  /// P(outcome) = sum_h W_h p_h with its combination interval.
  [[nodiscard]] util::StratifiedProportionEstimate outcomeEstimate(
      SystemOutcome outcome, double confidence = 0.95) const;
};

/// Builds the stratum grid and the deterministic largest-remainder
/// allocation of `config.experiments` proportional to the W_h.
[[nodiscard]] std::vector<StratumSpec> stratifySystemCampaign(const SystemCampaignConfig& config,
                                                              std::size_t windowBins = 3);

/// Samples a scenario INSIDE one stratum: kind, first target and injection
/// window are pinned; everything else (fault spec, flip bits, burst
/// partners) draws as in the crude sampler.
[[nodiscard]] SystemScenario sampleScenario(const SystemCampaignConfig& config, util::Rng& rng,
                                            const StratumSpec& stratum);

/// Stratified campaign: one deterministic chunked sub-campaign per stratum
/// (sub-seeds derived from config.seed and the stratum index), results
/// recombined by W_h. Bit-identical at every thread count for a fixed
/// (seed, chunkSize, windowBins). Metrics (config.metrics) gain
/// "campaign.strat.*" occupancy counters on top of the usual campaign and
/// simulation metrics.
[[nodiscard]] StratifiedCampaignResult runStratifiedSystemCampaign(
    const SystemCampaignConfig& config, std::size_t windowBins = 3);

}  // namespace nlft::fi
