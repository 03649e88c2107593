#include "faults/snapshot_exec.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <utility>

namespace nlft::fi {

bool sameBehavior(const hw::Machine& a, const hw::Machine& b) {
  const hw::CpuState& ca = a.cpu();
  const hw::CpuState& cb = b.cpu();
  const auto sameStuckAt = [](const hw::StuckAtFault& x, const hw::StuckAtFault& y) {
    return x.reg == y.reg && x.bit == y.bit && x.stuckHigh == y.stuckHigh;
  };
  return ca.regs == cb.regs && ca.pc == cb.pc && ca.flagZero == cb.flagZero &&
         ca.flagNegative == cb.flagNegative && a.halted() == b.halted() &&
         a.armedFetchCorruptionBit() == b.armedFetchCorruptionBit() &&
         std::equal(a.stuckAtFaults().begin(), a.stuckAtFaults().end(),
                    b.stuckAtFaults().begin(), b.stuckAtFaults().end(), sameStuckAt) &&
         a.memory().sameCodewords(b.memory());
}

MachineBaseline::MachineBaseline(const hw::Machine& start, std::uint64_t tag,
                                 std::uint64_t snapshotStride, snap::SnapshotCache& cache)
    : start_(start),
      tag_(tag),
      stride_(std::max<std::uint64_t>(snapshotStride, 1)),
      cache_(cache) {}

void MachineBaseline::forkAt(std::uint64_t instructions, hw::Machine& scratch) {
  if (!sweep_ || position_ > instructions) {
    if (sweep_) rewound_ = true;  // out-of-order fork: start caching resume points
    // Cold start or rewind: resume from the nearest cached snapshot at or
    // below the target instant, falling back to the band's start state.
    const std::uint64_t quantized = instructions - instructions % stride_;
    const std::vector<std::uint8_t>* blob =
        rewound_ && quantized > 0 ? cache_.find({quantized, tag_}) : nullptr;
    if (blob) {
      sweep_->restoreState(*blob);
      position_ = quantized;
    } else {
      sweep_ = start_;
      position_ = 0;
    }
  }
  while (position_ < instructions) {
    // Advance to the next resume point (or the target). Snapshot blobs are
    // only worth their serialization cost once forks arrive out of order;
    // until then the monotone sweep never serializes anything.
    const std::uint64_t next =
        std::min(instructions, position_ - position_ % stride_ + stride_);
    const hw::RunResult run = sweep_->run(next - position_);
    sweepInstructions_ += run.executedInstructions;
    position_ = next;
    if (rewound_ && position_ % stride_ == 0)
      cache_.insert({position_, tag_}, sweep_->saveState());
  }
  // Direct state copy, sparse over dirty memory pages: the hot fork path
  // never serializes.
  scratch = *sweep_;
  ++resumePoints_;
}

SystemBaseline::SystemBaseline(bbw::BbwSimConfig config)
    : SystemBaseline(std::move(config), util::SimTime::zero(), util::SimTime::fromUs(-1)) {}

SystemBaseline::SystemBaseline(bbw::BbwSimConfig config, util::SimTime injectEarliest,
                               util::SimTime injectLatest)
    : config_(std::move(config)), strideUs_(config_.controlPeriod.us()) {
  if (strideUs_ <= 0) throw std::invalid_argument("SystemBaseline: non-positive stride");
  const std::int64_t forkStrideUs = strideUs_ * kForkPeriods;
  const std::int64_t firstForkUs = std::max<std::int64_t>(
      forkStrideUs, injectEarliest.us() - injectEarliest.us() % forkStrideUs);

  // One golden simulation does double duty: it records the checkpoint grid
  // and the fork states on the way (runUntil and runBefore compose exactly
  // with a straight run) and then finalizes the golden result.
  bbw::BbwSystemSim sweep{config_};
  const std::int64_t horizonUs = config_.horizon.us();
  static_assert(bbw::kEndToEndLatencyBuckets <= 256, "the sample log stores buckets as bytes");
  // Appends the bins of the samples taken since the previous call.
  bbw::EndToEndLatency logged;
  const auto logLatency = [&] {
    const bbw::EndToEndLatency& latency = sweep.endToEndLatency();
    for (std::size_t b = 0; b < latency.bins.size(); ++b) {
      latencyBins_.insert(latencyBins_.end(), latency.bins[b] - logged.bins[b],
                          static_cast<std::uint8_t>(b));
    }
    logged = latency;
    return latency.windowMaxUs;
  };
  bool finished = false;
  for (std::int64_t grid = strideUs_; grid < horizonUs; grid += strideUs_) {
    // runBefore() opens a latency window of its own: carry its maximum
    // into the interval's.
    double capturedMaxUs = 0.0;
    if (grid >= firstForkUs && grid <= injectLatest.us() && grid % forkStrideUs == 0) {
      sweep.runBefore(util::SimTime::fromUs(grid));
      if (sweep.forkable()) {
        auto state = std::make_unique<bbw::BbwSystemSim>(config_);
        state->forkFrom(sweep);
        forkStates_.push_back({grid, std::move(state)});
      }
      capturedMaxUs = sweep.endToEndLatency().windowMaxUs;
    }
    sweep.runUntil(util::SimTime::fromUs(grid));
    const double intervalMaxUs = std::max(capturedMaxUs, logLatency());
    if (sweep.simulator().now().us() < grid) {
      finished = true;  // vehicle stopped (or events drained) mid-interval
      finalIntervalMaxUs_ = intervalMaxUs;
      break;
    }
    SystemCheckpoint checkpoint;
    checkpoint.gridUs = grid;
    checkpoint.behavior = sweep.behaviorFingerprint();
    checkpoint.counters = sweep.counterSnapshot();
    checkpoint.latencyIntervalMaxUs = intervalMaxUs;
    checkpoint.latencySamples = static_cast<std::uint32_t>(latencyBins_.size());
    checkpoints_.push_back(checkpoint);
  }
  // The stretch after the last grid point gets its own latency window.
  if (!finished) {
    sweep.runUntil(util::SimTime::fromUs(horizonUs));
    finalIntervalMaxUs_ = logLatency();
  }
  golden_ = sweep.run();
  finalCounters_ = sweep.counterSnapshot();
}

const bbw::BbwSystemSim* SystemBaseline::forkStateFor(util::SimTime at) const {
  const auto after = std::partition_point(
      forkStates_.begin(), forkStates_.end(),
      [at](const SystemForkState& state) { return state.boundaryUs <= at.us(); });
  return after == forkStates_.begin() ? nullptr : std::prev(after)->sim.get();
}

std::optional<bbw::BbwSimResult> SystemBaseline::runToRejoin(bbw::BbwSystemSim& scratch,
                                                             std::int64_t injectedAtUs) const {
  // Grid points at or before the injection cannot match (the injection
  // event itself is an extra processed event in its interval): run
  // straight to the last of them, the base of the first compared delta.
  std::size_t i = static_cast<std::size_t>(
      std::partition_point(checkpoints_.begin(), checkpoints_.end(),
                           [injectedAtUs](const SystemCheckpoint& checkpoint) {
                             return checkpoint.gridUs <= injectedAtUs;
                           }) -
      checkpoints_.begin());
  bbw::BbwSystemCounters previous{};
  if (i > 0) {
    scratch.runUntil(util::SimTime::fromUs(checkpoints_[i - 1].gridUs));
    if (scratch.simulator().now().us() < checkpoints_[i - 1].gridUs) return std::nullopt;
    previous = scratch.counterSnapshot();
  }
  unsigned consecutive = 0;
  for (; i < checkpoints_.size(); ++i) {
    const SystemCheckpoint& checkpoint = checkpoints_[i];
    scratch.runUntil(util::SimTime::fromUs(checkpoint.gridUs));
    if (scratch.simulator().now().us() < checkpoint.gridUs) {
      return std::nullopt;  // the faulted run stopped inside this interval
    }
    const bbw::BbwSystemCounters current = scratch.counterSnapshot();
    const bbw::BbwSystemCounters goldenPrevious =
        i == 0 ? bbw::BbwSystemCounters{} : checkpoints_[i - 1].counters;
    // Cheapest test first: a run that never rejoins (a crash, a burst)
    // fails the counter delta at almost every grid point, so it never pays
    // for hashing the whole behavior state.
    const bool matches = scratch.injectionQuiescent() &&
                         current.minus(previous) == checkpoint.counters.minus(goldenPrevious) &&
                         scratch.behaviorFingerprint() == checkpoint.behavior;
    previous = current;
    if (!matches) {
      consecutive = 0;
      continue;
    }
    if (++consecutive < kRejoinConfirmations) continue;
    // Splice: the scratch state equals the golden state here, so its
    // future is the golden tail — its counter deltas, its latency samples,
    // and the golden final's trajectory and terminal fields
    // (nodesDownAtEnd is empty on both sides: the behavior fingerprint pins
    // every kernel alive).
    return scratch.finishSpliced(golden_, finalCounters_.minus(checkpoint.counters),
                                 latencyAfter(i));
  }
  return std::nullopt;
}

bbw::EndToEndLatency SystemBaseline::latencyAfter(std::size_t index) const {
  const std::uint32_t from = checkpoints_.at(index).latencySamples;
  bbw::EndToEndLatency tail;
  for (std::size_t k = from; k < latencyBins_.size(); ++k) ++tail.bins[latencyBins_[k]];
  tail.samples = static_cast<std::uint32_t>(latencyBins_.size()) - from;
  tail.maxUs = finalIntervalMaxUs_;
  for (std::size_t j = index + 1; j < checkpoints_.size(); ++j) {
    tail.maxUs = std::max(tail.maxUs, checkpoints_[j].latencyIntervalMaxUs);
  }
  return tail;
}

}  // namespace nlft::fi
