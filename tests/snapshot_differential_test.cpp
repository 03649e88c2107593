// Differential equivalence suite of the snapshot/copy-on-inject engine
// (ctest label "snapshot"; docs/SNAPSHOT.md).
//
// The engine's only correctness claim is EQUIVALENCE: everything observable
// — metrics fingerprints, counters, campaign statistics — must be
// bit-identical whether a run executes straight through or in pieces, at
// every split point and every thread count. This suite pins that claim on:
//   - every checked-in fuzz-corpus case, straight vs runUntil(split) then
//     run() on the same simulation at 5 seeded split points — the
//     composition fi::SystemBaseline::runToRejoin relies on;
//   - the machine-level TEM and fail-silent campaigns, straight vs
//     snapshot execution across threads {1, 2, 8}, and the straight
//     fallback of an image without a clean fixed point;
//   - the MachineBaseline fork path, including out-of-order forks that
//     exercise the rewind + snapshot-cache resume.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bbw/guest_programs.hpp"
#include "bbw/system_sim.hpp"
#include "faults/campaign.hpp"
#include "faults/snapshot_exec.hpp"
#include "fuzz/corpus.hpp"
#include "fuzz/oracles.hpp"
#include "obs/metrics.hpp"
#include "snap/cache.hpp"
#include "util/rng.hpp"

namespace nlft {
namespace {

using bbw::BbwSimConfig;
using bbw::BbwSystemSim;

/// Five deterministic split points per case, spread over the braking
/// manoeuvre (the stop completes within ~3.5 simulated seconds).
std::vector<std::int64_t> seededSplitPoints(std::uint64_t seed) {
  util::Rng rng{seed};
  std::vector<std::int64_t> splits;
  for (int i = 0; i < 5; ++i) {
    splits.push_back(static_cast<std::int64_t>(100'000 + rng.uniformInt(3'200'000)));
  }
  return splits;
}

void applyEvents(BbwSystemSim& sim, const std::vector<fuzz::ScheduleEvent>& events) {
  for (const fuzz::ScheduleEvent& event : events) fuzz::applyEvent(sim, event);
}

TEST(SnapshotDifferential, EveryCorpusCaseIsSplitInvariant) {
  const std::vector<fuzz::CorpusEntry> corpus = fuzz::loadCorpusDir(NLFT_FUZZ_CORPUS_DIR);
  ASSERT_GE(corpus.size(), 6u);
  for (const fuzz::CorpusEntry& entry : corpus) {
    const BbwSimConfig config =
        fuzz::simConfigFor(entry.scenario.params, fuzz::OracleConfig{}.horizonUs);

    obs::Registry straightMetrics;
    BbwSystemSim straight{config};
    straight.setMetricsRegistry(&straightMetrics);
    applyEvents(straight, entry.scenario.events);
    const bbw::BbwSimResult straightResult = straight.run();
    const std::string straightFingerprint = straightMetrics.goldenFingerprint();

    for (const std::int64_t splitUs : seededSplitPoints(entry.key)) {
      SCOPED_TRACE(entry.signature + " split=" + std::to_string(splitUs) + "us");
      obs::Registry splitMetrics;
      BbwSystemSim split{config};
      split.setMetricsRegistry(&splitMetrics);
      applyEvents(split, entry.scenario.events);
      split.runUntil(util::SimTime::fromUs(splitUs));
      const bbw::BbwSimResult splitResult = split.run();

      EXPECT_EQ(straightFingerprint, splitMetrics.goldenFingerprint());
      EXPECT_TRUE(straight.counterSnapshot() == split.counterSnapshot());
      EXPECT_EQ(straight.behaviorFingerprint(), split.behaviorFingerprint());
      EXPECT_EQ(straightResult.stopped, splitResult.stopped);
      EXPECT_EQ(straightResult.stoppingDistanceM, splitResult.stoppingDistanceM);
      EXPECT_EQ(straightResult.stopTimeS, splitResult.stopTimeS);
      EXPECT_EQ(straightResult.commandFramesDelivered, splitResult.commandFramesDelivered);
      EXPECT_EQ(straightResult.errorsMaskedByTem, splitResult.errorsMaskedByTem);
      EXPECT_EQ(straightResult.busFramesDropped, splitResult.busFramesDropped);
      EXPECT_EQ(straightResult.nodesDownAtEnd, splitResult.nodesDownAtEnd);
    }
  }
}

bool sameMechanisms(const fi::DetectionMechanismCounts& a, const fi::DetectionMechanismCounts& b) {
  return a.illegalInstruction == b.illegalInstruction && a.addressError == b.addressError &&
         a.busError == b.busError && a.divideByZero == b.divideByZero &&
         a.mmuViolation == b.mmuViolation && a.stackOverflow == b.stackOverflow &&
         a.executionTimeMonitor == b.executionTimeMonitor &&
         a.outputUnreadable == b.outputUnreadable && a.temComparison == b.temComparison &&
         a.eccCorrected == b.eccCorrected && a.endToEndCheck == b.endToEndCheck;
}

/// Outcome statistics only — the snap counters legitimately differ between
/// execution modes (that difference IS the speedup).
bool sameTemOutcomes(const fi::TemCampaignStats& a, const fi::TemCampaignStats& b) {
  return sameMechanisms(a.mechanisms, b.mechanisms) && a.experiments == b.experiments &&
         a.notActivated == b.notActivated && a.maskedByEcc == b.maskedByEcc &&
         a.maskedByVote == b.maskedByVote && a.maskedByRestart == b.maskedByRestart &&
         a.omissionVoteFailed == b.omissionVoteFailed && a.omissionNoBudget == b.omissionNoBudget &&
         a.undetected == b.undetected;
}

bool sameFsOutcomes(const fi::FsCampaignStats& a, const fi::FsCampaignStats& b) {
  return a.experiments == b.experiments && a.notActivated == b.notActivated &&
         a.maskedByEcc == b.maskedByEcc && a.failSilent == b.failSilent &&
         a.detectedByEndToEnd == b.detectedByEndToEnd && a.undetected == b.undetected;
}

bool sameSnapCounters(const fi::SnapCounters& a, const fi::SnapCounters& b) {
  return a.simulatedCycles == b.simulatedCycles && a.snapshotHits == b.snapshotHits &&
         a.snapshotMisses == b.snapshotMisses && a.snapshotBytes == b.snapshotBytes &&
         a.resumePoints == b.resumePoints && a.replayedCopies == b.replayedCopies &&
         a.executedCopies == b.executedCopies && a.straightFallbacks == b.straightFallbacks;
}

TEST(SnapshotDifferential, CampaignStatisticsMatchAcrossModesAndThreads) {
  for (const bbw::GuestProgram& program : bbw::guestPrograms()) {
    SCOPED_TRACE(program.name);
    const fi::TaskImage image = program.makeNominalImage();
    fi::CampaignConfig config;
    config.experiments = 600;
    config.seed = 29;
    config.parallelism.chunkSize = 75;

    config.mode = fi::ExecutionMode::Straight;
    const fi::TemCampaignStats temStraight = fi::runTemCampaign(image, config);
    const fi::FsCampaignStats fsStraight = fi::runFsCampaign(image, config);

    config.mode = fi::ExecutionMode::Auto;
    const fi::TemCampaignStats temSnapshot = fi::runTemCampaign(image, config);
    const fi::FsCampaignStats fsSnapshot = fi::runFsCampaign(image, config);

    // Every guest image has a clean fixed point, so Auto forks rather than
    // falling back to straight execution.
    EXPECT_GT(temSnapshot.snap.resumePoints, 0u);
    EXPECT_EQ(temSnapshot.snap.straightFallbacks, 0u);
    EXPECT_GT(fsSnapshot.snap.resumePoints, 0u);
    EXPECT_EQ(fsSnapshot.snap.straightFallbacks, 0u);

    // Straight vs snapshot: identical outcome statistics, fewer simulated
    // cycles.
    EXPECT_TRUE(sameTemOutcomes(temStraight, temSnapshot));
    EXPECT_TRUE(sameFsOutcomes(fsStraight, fsSnapshot));
    EXPECT_LT(temSnapshot.snap.simulatedCycles, temStraight.snap.simulatedCycles);

    // Auto (forking) mode across threads {2, 8}: EVERYTHING identical, including
    // the snap counters (pure sums merged in chunk order).
    for (const unsigned threads : {2u, 8u}) {
      SCOPED_TRACE(threads);
      config.parallelism.threads = threads;
      const fi::TemCampaignStats temThreaded = fi::runTemCampaign(image, config);
      const fi::FsCampaignStats fsThreaded = fi::runFsCampaign(image, config);
      EXPECT_TRUE(sameTemOutcomes(temSnapshot, temThreaded));
      EXPECT_TRUE(sameSnapCounters(temSnapshot.snap, temThreaded.snap));
      EXPECT_TRUE(sameFsOutcomes(fsSnapshot, fsThreaded));
      EXPECT_TRUE(sameSnapCounters(fsSnapshot.snap, fsThreaded.snap));
    }
    config.parallelism.threads = 1;
  }
}

/// A task that bumps an invocation counter in its input region. Every copy
/// delivers the same output, but the machine after a clean copy never
/// returns to the state that copy started from: the image has no clean
/// fixed point, so Auto must run it straight.
fi::TaskImage imageWithoutCleanFixedPoint() {
  fi::TaskImage image;
  image.program = hw::assemble(R"(
      ldi r1, 0x800        ; input base
      ld  r2, [r1+0]
      ld  r3, [r1+4]
      ldi r4, 0            ; acc
      ldi r5, 0            ; i
    loop:
      add r4, r4, r2
      addi r5, r5, 1
      cmp r5, r3
      blt loop
      ld  r6, [r1+8]       ; invocation counter
      addi r6, r6, 1
      st  r6, [r1+8]
      ldi r7, 0xC00        ; output base
      st  r4, [r7+0]
      halt
  )");
  image.entry = 0;
  image.stackTop = 0x4000;
  image.inputBase = 0x800;
  image.input = {13, 12, 0};  // addend, iterations, counter
  image.outputBase = 0xC00;
  image.outputWords = 1;
  image.maxInstructionsPerCopy = 200;
  return image;
}

TEST(SnapshotDifferential, AutoFallsBackToStraightWithoutCleanFixedPoint) {
  const fi::TaskImage image = imageWithoutCleanFixedPoint();
  fi::CampaignConfig config;
  config.experiments = 400;
  config.seed = 31;
  config.parallelism.chunkSize = 50;

  config.mode = fi::ExecutionMode::Straight;
  const fi::TemCampaignStats temStraight = fi::runTemCampaign(image, config);
  const fi::FsCampaignStats fsStraight = fi::runFsCampaign(image, config);
  EXPECT_GT(temStraight.activated(), 0u);
  EXPECT_GT(fsStraight.activated(), 0u);

  config.mode = fi::ExecutionMode::Auto;
  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(threads);
    config.parallelism.threads = threads;
    const fi::TemCampaignStats tem = fi::runTemCampaign(image, config);
    const fi::FsCampaignStats fs = fi::runFsCampaign(image, config);
    EXPECT_EQ(tem.snap.resumePoints, 0u);
    EXPECT_EQ(fs.snap.resumePoints, 0u);
    EXPECT_TRUE(sameTemOutcomes(temStraight, tem));
    EXPECT_TRUE(sameFsOutcomes(fsStraight, fs));
    // Nothing forked or replayed: even the engine counters equal Straight's.
    EXPECT_TRUE(sameSnapCounters(temStraight.snap, tem.snap));
    EXPECT_TRUE(sameSnapCounters(fsStraight.snap, fs.snap));
  }
}

TEST(SnapshotDifferential, MachineBaselineForkMatchesStraightExecutionEvenOutOfOrder) {
  const fi::TaskImage image = bbw::guestPrograms().front().makeNominalImage();
  const std::vector<std::uint8_t> baseline = fi::machineBaselineSnapshot(image);

  hw::Machine start{image.memBytes};
  start.restoreState(baseline);
  snap::SnapshotCache cache{1u << 20};
  fi::MachineBaseline forked{start, 1, 4, cache};
  hw::Machine scratch{image.memBytes};

  // Deliberately out-of-order fork targets: the rewinds exercise the
  // snapshot-cache resume path that sorted campaigns never need.
  for (const std::uint64_t target : {std::uint64_t{12}, std::uint64_t{3}, std::uint64_t{17},
                                     std::uint64_t{8}, std::uint64_t{0}, std::uint64_t{15}}) {
    SCOPED_TRACE(target);
    forked.forkAt(target, scratch);

    hw::Machine straight{image.memBytes};
    straight.restoreState(baseline);
    (void)straight.run(target);
    EXPECT_EQ(straight.saveState(), scratch.saveState());
  }
}

}  // namespace
}  // namespace nlft
