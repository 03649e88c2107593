#include "faults/campaign.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

#include "core/result.hpp"
#include "exec/chunked_campaign.hpp"
#include "faults/snapshot_exec.hpp"
#include "snap/cache.hpp"

namespace nlft::fi {

namespace {

hw::Machine makeMachine(const TaskImage& image) {
  hw::Machine machine{image.memBytes};
  machine.loadWords(image.program.origin, image.program.words);
  machine.loadWords(image.inputBase, image.input);
  if (image.enableMmu) {
    constexpr hw::MmuTaskId kTask = 1;
    if (!image.mmuRegions.empty()) {
      for (hw::MmuRegion region : image.mmuRegions) {
        region.owner = kTask;
        machine.mmu().addRegion(std::move(region));
      }
    } else {
      const auto rx = hw::accessMask(hw::Access::Read) | hw::accessMask(hw::Access::Execute);
      const auto ro = hw::accessMask(hw::Access::Read);
      const auto rw = hw::accessMask(hw::Access::Read) | hw::accessMask(hw::Access::Write);
      machine.mmu().addRegion({image.program.origin, image.program.sizeBytes(), kTask, rx, "text"});
      machine.mmu().addRegion({image.inputBase, static_cast<std::uint32_t>(image.input.size()) * 4,
                               kTask, ro, "input"});
      machine.mmu().addRegion({image.outputBase, image.outputWords * 4, kTask, rw, "output"});
      machine.mmu().addRegion(
          {image.stackTop - image.stackBytes, image.stackBytes, kTask, rw, "stack"});
    }
    machine.mmu().setActiveTask(kTask);
    machine.mmu().setEnabled(true);
  }
  return machine;
}

void resetContext(hw::Machine& machine, const TaskImage& image) {
  // Full CPU-context restore from the task control block (paper 2.5): every
  // copy starts from pristine registers, PC and SP.
  machine.cpu().regs.fill(0);
  machine.cpu().pc = image.entry;
  machine.cpu().setSp(image.stackTop);
  machine.cpu().flagZero = false;
  machine.cpu().flagNegative = false;
  machine.resume();
  // The kernel hands each copy a zeroed result buffer.
  for (std::uint32_t w = 0; w < image.outputWords; ++w) {
    machine.memory().write(image.outputBase + 4 * w, 0);
  }
}

CopyRun finishRun(hw::Machine& machine, const TaskImage& image, const hw::RunResult& run,
                  std::uint64_t instructionsBefore) {
  CopyRun copy;
  copy.instructions = instructionsBefore + run.executedInstructions;
  switch (run.reason) {
    case hw::StopReason::Halted: {
      copy.end = CopyRun::End::Output;
      copy.output.reserve(image.outputWords);
      for (std::uint32_t w = 0; w < image.outputWords; ++w) {
        const auto read = machine.memory().read(image.outputBase + 4 * w);
        if (!read.ok) {
          copy.end = CopyRun::End::OutputUnreadable;
          copy.exception = hw::ExceptionKind::BusError;
          copy.output.clear();
          return copy;
        }
        copy.output.push_back(read.value);
      }
      return copy;
    }
    case hw::StopReason::Exception:
      copy.end = CopyRun::End::Exception;
      copy.exception = run.exception.kind;
      return copy;
    case hw::StopReason::BudgetExhausted:
      copy.end = CopyRun::End::Overrun;
      return copy;
  }
  return copy;
}

/// Runs one copy, injecting `locations` after `afterInstructions` executed
/// instructions (empty = fault-free copy).
CopyRun runCopyWithInjection(hw::Machine& machine, const TaskImage& image,
                             std::uint64_t afterInstructions,
                             const std::vector<FaultLocation>& locations) {
  resetContext(machine, image);
  const std::uint64_t budget = image.maxInstructionsPerCopy;
  if (locations.empty()) {
    return finishRun(machine, image, machine.run(budget), 0);
  }
  const std::uint64_t untilFault = std::min(afterInstructions, budget);
  const hw::RunResult phase1 = machine.run(untilFault);
  if (phase1.reason != hw::StopReason::BudgetExhausted || machine.halted()) {
    // The copy ended before the fault instant; nothing to inject here.
    return finishRun(machine, image, phase1, 0);
  }
  for (const FaultLocation& location : locations) inject(machine, location);
  const hw::RunResult phase2 = machine.run(budget - untilFault);
  return finishRun(machine, image, phase2, phase1.executedInstructions);
}

/// The fault of one experiment, normalised to a list of locations.
struct ExperimentFault {
  int targetCopy = 1;
  std::uint64_t afterInstructions = 0;
  std::vector<FaultLocation> locations;
};

ExperimentFault normalize(const FaultSpec& fault, util::Rng& rng) {
  ExperimentFault experiment;
  experiment.afterInstructions = fault.afterInstructions;
  experiment.targetCopy = std::abs(fault.targetCopy);
  experiment.locations.push_back(fault.location);
  if (fault.targetCopy < 0) {
    // Double-flip marker from sampleFault: add a second flip in the same
    // memory word so the upset becomes uncorrectable.
    if (const auto* mem = std::get_if<MemoryBitFlip>(&fault.location)) {
      int otherBit = static_cast<int>(rng.uniformInt(hw::kEccCodewordBits));
      if (otherBit == mem->bit) otherBit = (otherBit + 1) % hw::kEccCodewordBits;
      experiment.locations.push_back(MemoryBitFlip{mem->address, otherBit});
    }
  }
  return experiment;
}

void countMechanism(DetectionMechanismCounts* counts, const CopyRun& run) {
  if (!counts) return;
  switch (run.end) {
    case CopyRun::End::Output:
      return;
    case CopyRun::End::Overrun:
      ++counts->executionTimeMonitor;
      return;
    case CopyRun::End::OutputUnreadable:
      ++counts->outputUnreadable;
      return;
    case CopyRun::End::Exception:
      switch (run.exception) {
        case hw::ExceptionKind::IllegalInstruction: ++counts->illegalInstruction; return;
        case hw::ExceptionKind::AddressError: ++counts->addressError; return;
        case hw::ExceptionKind::BusError: ++counts->busError; return;
        case hw::ExceptionKind::DivideByZero: ++counts->divideByZero; return;
        case hw::ExceptionKind::MmuViolation: ++counts->mmuViolation; return;
        case hw::ExceptionKind::StackOverflow: ++counts->stackOverflow; return;
        case hw::ExceptionKind::None: return;
      }
  }
}

/// Straight copy source: one fresh machine per experiment, every copy
/// executed in full. This IS the original execution path — the snapshot
/// engine below must be indistinguishable from it.
class StraightSource {
 public:
  StraightSource(const TaskImage& image, const ExperimentFault& fault, SnapCounters* snap)
      : image_(image), fault_(fault), snap_(snap), machine_(makeMachine(image)) {}

  CopyRun runCopy(int copy) {
    const bool faultHere = fault_.targetCopy == copy;
    CopyRun run = runCopyWithInjection(machine_, image_, fault_.afterInstructions,
                                       faultHere ? fault_.locations : std::vector<FaultLocation>{});
    if (snap_ != nullptr) {
      snap_->simulatedCycles += run.instructions;
      ++snap_->executedCopies;
    }
    return run;
  }

  [[nodiscard]] bool eccCorrected() const { return machine_.memory().correctedErrors() > 0; }

 private:
  const TaskImage& image_;
  const ExperimentFault& fault_;
  SnapCounters* snap_;
  hw::Machine machine_;
};

[[nodiscard]] bool copyRunsEqual(const CopyRun& a, const CopyRun& b) {
  return a.end == b.end && a.exception == b.exception && a.output == b.output &&
         a.instructions == b.instructions;
}

/// Snapshot execution plan for one (image, golden) pair. Built once per
/// campaign by the clean-fixed-point protocol (docs/SNAPSHOT.md): two clean
/// copies are executed back to back on one machine and must reproduce the
/// golden run byte for byte, with the post-reset machine returning exactly
/// to the state it started the second copy from (fi::sameBehavior). Only
/// then may the engine (a) replay clean copies without executing them and
/// (b) fork faulted copy >= 2 from that fixed point. Images that fail any
/// check run straight (snap.straightFallbacks).
struct TemSnapshotPlan {
  bool supported = false;
  CopyRun cleanRun;               ///< byte-equal to the golden run (verified)
  hw::Machine startMachine1;      ///< fresh machine, context reset (copy-1 band)
  hw::Machine startMachine2;      ///< the clean fixed point: after one clean copy + reset
  std::uint64_t planInstructions = 0;  ///< verification cycles (charged to snap mode)
};

TemSnapshotPlan buildTemSnapshotPlan(const TaskImage& image, const CopyRun& golden) {
  TemSnapshotPlan plan;
  hw::Machine machine = makeMachine(image);
  resetContext(machine, image);
  plan.startMachine1 = machine;
  const CopyRun first = runCopyWithInjection(machine, image, 0, {});
  plan.planInstructions += first.instructions;
  if (!copyRunsEqual(first, golden)) return plan;
  resetContext(machine, image);
  plan.startMachine2 = machine;
  const CopyRun second = runCopyWithInjection(machine, image, 0, {});
  plan.planInstructions += second.instructions;
  if (!copyRunsEqual(second, first)) return plan;
  resetContext(machine, image);
  if (!sameBehavior(machine, plan.startMachine2)) return plan;
  // The serialized fixed point must round-trip to the exact live state —
  // this pins the snapshot format against the campaign engine on every
  // campaign, not only in the dedicated round-trip tests.
  hw::Machine roundTrip;
  roundTrip.restoreState(plan.startMachine2.saveState());
  if (!sameBehavior(roundTrip, plan.startMachine2)) return plan;
  plan.cleanRun = first;
  plan.supported = true;
  return plan;
}

/// Copy-on-inject source: the faulted copy forks from the band baseline at
/// the injection instant; clean copies before the fault replay the verified
/// clean run at zero cost; copies after the fault replay it only when the
/// post-reset machine compares equal to the clean fixed point, and execute
/// for real otherwise (conservative: any residual fault effect — latent
/// memory upsets, stuck-at faults, ECC counter changes — forces execution).
class SnapshotSource {
 public:
  SnapshotSource(const TaskImage& image, const TemSnapshotPlan& plan,
                 const ExperimentFault& fault, MachineBaseline& band1, MachineBaseline& band2,
                 hw::Machine& scratch, SnapCounters& snap)
      : image_(image),
        plan_(plan),
        fault_(fault),
        band1_(band1),
        band2_(band2),
        scratch_(scratch),
        snap_(snap) {}

  CopyRun runCopy(int copy) {
    const std::uint64_t budget = image_.maxInstructionsPerCopy;
    if (copy == fault_.targetCopy) {
      MachineBaseline& band = copy == 1 ? band1_ : band2_;
      band.forkAt(fault_.afterInstructions, scratch_);
      for (const FaultLocation& location : fault_.locations) inject(scratch_, location);
      const hw::RunResult phase2 = scratch_.run(budget - fault_.afterInstructions);
      snap_.simulatedCycles += phase2.executedInstructions;
      ++snap_.executedCopies;
      faulted_ = true;
      return finishRun(scratch_, image_, phase2, fault_.afterInstructions);
    }
    if (!faulted_) {
      // Clean copy before the fault: the machine is at the verified fixed
      // point, so the copy reproduces the clean run without executing.
      ++snap_.replayedCopies;
      return plan_.cleanRun;
    }
    // Copy after the faulted one: the kernel's context reset may or may not
    // return the machine to the clean fixed point.
    resetContext(scratch_, image_);
    if (sameBehavior(scratch_, plan_.startMachine2)) {
      faulted_ = false;  // back at the fixed point; later copies stay clean
      recovered_ = true;
      ++snap_.replayedCopies;
      return plan_.cleanRun;
    }
    const hw::RunResult run = scratch_.run(budget);
    snap_.simulatedCycles += run.executedInstructions;
    ++snap_.executedCopies;
    return finishRun(scratch_, image_, run, 0);
  }

  [[nodiscard]] bool eccCorrected() const {
    // The scratch machine is shared across the chunk's experiments; only
    // consult it when THIS experiment executed something on it.
    return faultedEver() && scratch_.memory().correctedErrors() > 0;
  }

 private:
  [[nodiscard]] bool faultedEver() const { return faulted_ || recovered_; }

  const TaskImage& image_;
  const TemSnapshotPlan& plan_;
  const ExperimentFault& fault_;
  MachineBaseline& band1_;
  MachineBaseline& band2_;
  hw::Machine& scratch_;
  SnapCounters& snap_;
  bool faulted_ = false;
  bool recovered_ = false;
};

/// The TEM protocol (two copies, comparison, recovery copy, vote, job
/// budget), parametrized over where copy runs come from. The straight and
/// snapshot sources produce byte-identical CopyRuns, so the classification
/// is a pure function of the experiment either way.
template <typename Source>
TemOutcome classifyTem(const TaskImage& image, const CopyRun& golden, double jobBudgetFactor,
                       DetectionMechanismCounts* mechanisms, Source& source) {
  auto remaining =
      static_cast<std::int64_t>(jobBudgetFactor * static_cast<double>(golden.instructions));

  std::vector<tem::TaskResult> results;
  bool edmDetected = false;
  bool mismatchDetected = false;
  constexpr int kMaxCopies = 3;

  for (int copy = 1; copy <= kMaxCopies; ++copy) {
    // Deadline check (Section 2.5): enough budget for another full copy?
    if (remaining < static_cast<std::int64_t>(golden.instructions)) {
      return TemOutcome::OmissionNoBudget;
    }
    const CopyRun run = source.runCopy(copy);
    remaining -= static_cast<std::int64_t>(run.instructions);

    if (run.end != CopyRun::End::Output) {
      edmDetected = true;  // exception, overrun or unreadable output
      countMechanism(mechanisms, run);
    } else if (image.outputHasChecksum && !endToEndChecksumValid(run.output)) {
      // The kernel's data-integrity check rejects the copy's result before
      // it ever reaches the comparison (Section 2.6).
      edmDetected = true;
      if (mechanisms) ++mechanisms->endToEndCheck;
    } else {
      results.push_back(run.output);
    }

    if (results.size() >= 2) {
      if (results.size() == 2 && results[0] != results[1]) {
        mismatchDetected = true;
        if (mechanisms) ++mechanisms->temComparison;
      }
      if (const auto voted = tem::majorityVote(results)) {
        if (*voted != golden.output) return TemOutcome::UndetectedWrongOutput;
        if (mismatchDetected) return TemOutcome::MaskedByVote;
        if (edmDetected) return TemOutcome::MaskedByRestart;
        if (source.eccCorrected()) {
          if (mechanisms) ++mechanisms->eccCorrected;
          return TemOutcome::MaskedByEcc;
        }
        return TemOutcome::NotActivated;
      }
      if (copy == kMaxCopies) return TemOutcome::OmissionVoteFailed;
    }
  }
  // Copies exhausted without two matching results (repeated EDM errors).
  return TemOutcome::OmissionNoBudget;
}

/// The fail-silent-node check (single copy, EDM + end-to-end checksum),
/// parametrized like classifyTem.
template <typename Source>
FsOutcome classifyFs(const TaskImage& image, const CopyRun& golden, Source& source) {
  const CopyRun run = source.runCopy(1);
  if (run.end != CopyRun::End::Output) return FsOutcome::FailSilent;
  if (run.output != golden.output) {
    if (image.outputHasChecksum && !endToEndChecksumValid(run.output)) {
      return FsOutcome::DetectedByEndToEnd;
    }
    return FsOutcome::UndetectedWrongOutput;
  }
  if (source.eccCorrected()) return FsOutcome::MaskedByEcc;
  return FsOutcome::NotActivated;
}

void tallyTem(TemCampaignStats& stats, TemOutcome outcome) {
  switch (outcome) {
    case TemOutcome::NotActivated: ++stats.notActivated; break;
    case TemOutcome::MaskedByEcc: ++stats.maskedByEcc; break;
    case TemOutcome::MaskedByVote: ++stats.maskedByVote; break;
    case TemOutcome::MaskedByRestart: ++stats.maskedByRestart; break;
    case TemOutcome::OmissionVoteFailed: ++stats.omissionVoteFailed; break;
    case TemOutcome::OmissionNoBudget: ++stats.omissionNoBudget; break;
    case TemOutcome::UndetectedWrongOutput: ++stats.undetected; break;
  }
}

void tallyFs(FsCampaignStats& stats, FsOutcome outcome) {
  switch (outcome) {
    case FsOutcome::NotActivated: ++stats.notActivated; break;
    case FsOutcome::MaskedByEcc: ++stats.maskedByEcc; break;
    case FsOutcome::FailSilent: ++stats.failSilent; break;
    case FsOutcome::DetectedByEndToEnd: ++stats.detectedByEndToEnd; break;
    case FsOutcome::UndetectedWrongOutput: ++stats.undetected; break;
  }
}

/// True when the experiment must run straight even inside a snapshot
/// campaign: the fault targets a copy the protocol never reaches via a
/// band baseline, or strikes at/after the clean completion instant (the
/// baseline sweep only covers the clean prefix [0, golden.instructions)).
[[nodiscard]] bool needsStraightFallback(const ExperimentFault& fault, const CopyRun& golden) {
  return fault.targetCopy < 1 || fault.targetCopy > 2 ||
         fault.afterInstructions >= golden.instructions;
}

/// Sorted execution order of a chunk's deferred experiments: by copy band,
/// then injection time, so each band's baseline sweeps the clean prefix
/// monotonically. std::iota + stable_sort keep the order a pure function of
/// the chunk contents (deterministic at every thread count).
[[nodiscard]] std::vector<std::size_t> snapshotExecutionOrder(
    const std::vector<ExperimentFault>& pending) {
  std::vector<std::size_t> order(pending.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&pending](std::size_t a, std::size_t b) {
    if (pending[a].targetCopy != pending[b].targetCopy) {
      return pending[a].targetCopy < pending[b].targetCopy;
    }
    return pending[a].afterInstructions < pending[b].afterInstructions;
  });
  return order;
}

/// Byte budget of each chunk-private snapshot cache. Sorted forks never
/// rewind, so a campaign never looks anything up in it.
constexpr std::size_t kSnapshotCacheBytes = 8u << 20;

/// Chunk accumulator of a machine campaign: the faults runOne sampled and
/// the statistics the chunk finish hook folds their outcomes into.
template <typename Stats>
struct MachineChunk {
  std::size_t experiments = 0;
  std::vector<ExperimentFault> pending;
  Stats stats;

  void merge(const MachineChunk& other) { stats.merge(other.stats); }
};

/// The machine campaign body shared by TEM and FS, which differ only in
/// `classify(golden, source, stats)`. runOne only SAMPLES, so the per-chunk
/// RNG stream is the same in every mode; the chunk finish hook executes the
/// batch sorted by (band, injection time). With a snapshot plan each
/// experiment forks from a chunk-private band baseline; in Straight mode,
/// for an image with no clean fixed point, or for a fault outside the
/// swept prefix, it runs straight. Outcome tallies are commutative sums, so
/// the merged statistics match straight execution bit for bit at every
/// thread count.
template <typename Stats, typename Classify>
Stats runMachineCampaign(const TaskImage& image, const CampaignConfig& config, const char* what,
                         bool singleCopy, Classify classify) {
  const CopyRun golden = goldenRun(image);
  TemSnapshotPlan plan;
  if (config.mode != ExecutionMode::Straight) plan = buildTemSnapshotPlan(image, golden);

  using Chunk = MachineChunk<Stats>;
  exec::ChunkedCampaignOptions<Chunk> options;
  options.cancel = config.cancel;
  options.onProgress = config.onProgress;
  options.finishChunk = [&](Chunk& chunk) {
    // Take the batch: it is done once this hook returns, and the merge must
    // not carry it.
    const std::vector<ExperimentFault> pending = std::move(chunk.pending);
    Stats& stats = chunk.stats;
    stats.experiments = chunk.experiments;
    snap::SnapshotCache cache{kSnapshotCacheBytes};
    const std::uint64_t stride = std::max<std::uint64_t>(golden.instructions / 8, 1);
    MachineBaseline band1{plan.startMachine1, 1, stride, cache};
    MachineBaseline band2{plan.startMachine2, 2, stride, cache};
    hw::Machine scratch{image.memBytes};
    for (const std::size_t index : snapshotExecutionOrder(pending)) {
      const ExperimentFault& fault = pending[index];
      if (plan.supported && !needsStraightFallback(fault, golden)) {
        SnapshotSource source{image, plan, fault, band1, band2, scratch, stats.snap};
        classify(golden, source, stats);
        continue;
      }
      if (plan.supported) ++stats.snap.straightFallbacks;
      StraightSource source{image, fault, &stats.snap};
      classify(golden, source, stats);
    }
    stats.snap.snapshotHits += cache.hits();
    stats.snap.snapshotMisses += cache.misses();
    stats.snap.snapshotBytes += cache.insertedBytes();
    stats.snap.resumePoints += band1.resumePoints() + band2.resumePoints();
    stats.snap.simulatedCycles += band1.sweepInstructions() + band2.sweepInstructions();
  };

  Stats stats = exec::runChunkedCampaign<Chunk>(
                    config.experiments, config.seed, config.parallelism, what,
                    [&](util::Rng& rng, Chunk& chunk) {
                      const FaultSpec fault =
                          sampleFault(image, golden.instructions, config.mix, rng);
                      ExperimentFault experiment = normalize(fault, rng);
                      // A single-copy node: the fault strikes that copy.
                      if (singleCopy) experiment.targetCopy = 1;
                      chunk.pending.push_back(std::move(experiment));
                    },
                    options)
                    .stats.stats;
  if (plan.supported) stats.snap.simulatedCycles += plan.planInstructions;
  return stats;
}

}  // namespace

bool endToEndChecksumValid(const std::vector<std::uint32_t>& output) {
  if (output.empty()) return false;
  std::uint32_t expected = kEndToEndSeed;
  for (std::size_t i = 0; i + 1 < output.size(); ++i) expected ^= output[i];
  return output.back() == expected;
}

CopyRun runCopy(hw::Machine& machine, const TaskImage& image, std::optional<FaultSpec> fault) {
  if (!fault) return runCopyWithInjection(machine, image, 0, {});
  return runCopyWithInjection(machine, image, fault->afterInstructions, {fault->location});
}

std::vector<std::uint8_t> machineBaselineSnapshot(const TaskImage& image) {
  return makeMachine(image).saveState();
}

TracedRun runTracedCopy(const TaskImage& image, std::optional<FaultSpec> fault,
                        const std::vector<std::uint8_t>* campaignBaseline) {
  TracedRun traced;
  hw::Machine machine = makeMachine(image);
  if (campaignBaseline != nullptr && machine.saveState() != *campaignBaseline) {
    throw std::runtime_error(
        "runTracedCopy: reconstructed machine diverges from the campaign baseline snapshot "
        "(the image changed between the campaign and the traced run)");
  }
  machine.setTraceSink(&traced.pcTrace);
  traced.run = runCopy(machine, image, fault);
  return traced;
}

CopyRun goldenRun(const TaskImage& image) {
  hw::Machine machine = makeMachine(image);
  const CopyRun run = runCopy(machine, image, std::nullopt);
  if (run.end != CopyRun::End::Output) {
    throw std::runtime_error("goldenRun: task program does not terminate cleanly");
  }
  return run;
}

TemOutcome runTemExperiment(const TaskImage& image, const FaultSpec& fault,
                            double jobBudgetFactor) {
  return detail::runTemExperiment(image, goldenRun(image), fault, jobBudgetFactor);
}

FsOutcome runFsExperiment(const TaskImage& image, const FaultSpec& fault) {
  return detail::runFsExperiment(image, goldenRun(image), fault);
}

TemOutcome detail::runTemExperiment(const TaskImage& image, const CopyRun& golden,
                                    const FaultSpec& fault, double jobBudgetFactor) {
  util::Rng rng{0xFau};  // only used when the double-flip marker is set
  const ExperimentFault experiment = normalize(fault, rng);
  StraightSource source{image, experiment, nullptr};
  return classifyTem(image, golden, jobBudgetFactor, nullptr, source);
}

FsOutcome detail::runFsExperiment(const TaskImage& image, const CopyRun& golden,
                                  const FaultSpec& fault) {
  util::Rng rng{0xFau};
  ExperimentFault experiment = normalize(fault, rng);
  experiment.targetCopy = 1;
  StraightSource source{image, experiment, nullptr};
  return classifyFs(image, golden, source);
}

FaultSpec sampleFault(const TaskImage& image, std::uint64_t goldenInstructions,
                      const FaultMix& mix, util::Rng& rng) {
  FaultSpec fault;
  fault.afterInstructions = rng.uniformInt(std::max<std::uint64_t>(goldenInstructions, 1));
  fault.targetCopy = 1 + static_cast<int>(rng.uniformInt(2));

  const double total =
      mix.registerWeight + mix.pcWeight + mix.memoryWeight + mix.fetchWeight;
  const double pick = rng.uniform(0.0, total);
  if (pick < mix.registerWeight) {
    fault.location = RegisterBitFlip{static_cast<int>(rng.uniformInt(hw::kRegisterCount)),
                                     static_cast<int>(rng.uniformInt(32))};
  } else if (pick < mix.registerWeight + mix.pcWeight) {
    fault.location = PcBitFlip{static_cast<int>(rng.uniformInt(18))};
  } else if (pick < mix.registerWeight + mix.pcWeight + mix.fetchWeight) {
    fault.location = FetchBitFlip{static_cast<int>(rng.uniformInt(32))};
  } else {
    // Memory fault over program text or input data, weighted by size.
    const auto textWords = static_cast<std::uint32_t>(image.program.words.size());
    const auto inputWords = static_cast<std::uint32_t>(image.input.size());
    const auto pickWord = static_cast<std::uint32_t>(
        rng.uniformInt(std::max<std::uint32_t>(textWords + inputWords, 1)));
    const std::uint32_t address = pickWord < textWords
                                      ? image.program.origin + 4 * pickWord
                                      : image.inputBase + 4 * (pickWord - textWords);
    fault.location = MemoryBitFlip{address, static_cast<int>(rng.uniformInt(hw::kEccCodewordBits))};
    if (rng.bernoulli(mix.doubleMemoryFlipProbability)) {
      fault.targetCopy = -fault.targetCopy;  // double-flip marker (see normalize)
    }
  }
  return fault;
}

TemCampaignStats runTemCampaign(const TaskImage& image, const CampaignConfig& config) {
  return runMachineCampaign<TemCampaignStats>(
      image, config, "runTemCampaign", /*singleCopy=*/false,
      [&config, &image](const CopyRun& golden, auto& source, TemCampaignStats& stats) {
        tallyTem(stats,
                 classifyTem(image, golden, config.jobBudgetFactor, &stats.mechanisms, source));
      });
}

FsCampaignStats runFsCampaign(const TaskImage& image, const CampaignConfig& config) {
  return runMachineCampaign<FsCampaignStats>(
      image, config, "runFsCampaign", /*singleCopy=*/true,
      [&image](const CopyRun& golden, auto& source, FsCampaignStats& stats) {
        tallyFs(stats, classifyFs(image, golden, source));
      });
}

void SnapCounters::merge(const SnapCounters& other) {
  simulatedCycles += other.simulatedCycles;
  snapshotHits += other.snapshotHits;
  snapshotMisses += other.snapshotMisses;
  snapshotBytes += other.snapshotBytes;
  resumePoints += other.resumePoints;
  replayedCopies += other.replayedCopies;
  executedCopies += other.executedCopies;
  straightFallbacks += other.straightFallbacks;
}

void DetectionMechanismCounts::merge(const DetectionMechanismCounts& other) {
  illegalInstruction += other.illegalInstruction;
  addressError += other.addressError;
  busError += other.busError;
  divideByZero += other.divideByZero;
  mmuViolation += other.mmuViolation;
  stackOverflow += other.stackOverflow;
  executionTimeMonitor += other.executionTimeMonitor;
  outputUnreadable += other.outputUnreadable;
  temComparison += other.temComparison;
  eccCorrected += other.eccCorrected;
  endToEndCheck += other.endToEndCheck;
}

void TemCampaignStats::merge(const TemCampaignStats& other) {
  mechanisms.merge(other.mechanisms);
  snap.merge(other.snap);
  experiments += other.experiments;
  notActivated += other.notActivated;
  maskedByEcc += other.maskedByEcc;
  maskedByVote += other.maskedByVote;
  maskedByRestart += other.maskedByRestart;
  omissionVoteFailed += other.omissionVoteFailed;
  omissionNoBudget += other.omissionNoBudget;
  undetected += other.undetected;
}

void FsCampaignStats::merge(const FsCampaignStats& other) {
  snap.merge(other.snap);
  experiments += other.experiments;
  notActivated += other.notActivated;
  maskedByEcc += other.maskedByEcc;
  failSilent += other.failSilent;
  detectedByEndToEnd += other.detectedByEndToEnd;
  undetected += other.undetected;
}

util::ProportionEstimate TemCampaignStats::pMask() const {
  return util::wilsonInterval(maskedByVote + maskedByRestart, activated());
}

util::ProportionEstimate TemCampaignStats::pOmission() const {
  return util::wilsonInterval(omissionVoteFailed + omissionNoBudget, activated());
}

util::ProportionEstimate TemCampaignStats::coverage() const {
  return util::wilsonInterval(activated() - undetected, activated());
}

util::ProportionEstimate FsCampaignStats::coverage() const {
  return util::wilsonInterval(activated() - undetected, activated());
}

}  // namespace nlft::fi
