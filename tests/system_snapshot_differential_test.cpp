// Differential equivalence suite for the SYSTEM-level splice campaign
// engine (docs/SNAPSHOT.md "system campaigns"): every experiment simulates
// from t=0 and, once it provably rejoins the golden timeline, has the golden
// tail spliced on. Spliced execution must be indistinguishable from
// straight execution in every observable: campaign statistics and metrics
// fingerprints. Thread counts may only move
// wall-clock time, never a result or an engine counter.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>

#include "faults/snapshot_exec.hpp"
#include "faults/system_campaign.hpp"
#include "obs/metrics.hpp"

namespace nlft::fi {
namespace {

using util::Duration;

/// Small, fast campaign configuration (mirrors system_campaign_test.cpp);
/// the injection window stays at the default [0.2, 2.0] s so scenarios land
/// both deep inside the checkpoint timeline and near the stop.
SystemCampaignConfig smallConfig(ExecutionMode mode) {
  SystemCampaignConfig config;
  config.experiments = 48;
  config.seed = 7;
  config.sim.initialSpeedMps = 15.0;
  config.sim.horizon = Duration::seconds(8);
  config.parallelism.chunkSize = 8;  // fixed chunking = fixed RNG substreams
  config.mode = mode;
  return config;
}

/// Everything except the snap engine counters must be bit-identical across
/// execution modes (and thread counts). Floating-point accumulators compare
/// by memcmp: "equal" means equal bit patterns, not approximately equal.
void expectSameResults(const SystemCampaignStats& a, const SystemCampaignStats& b) {
  EXPECT_EQ(a.experiments, b.experiments);
  EXPECT_EQ(a.outcomes, b.outcomes);
  EXPECT_EQ(a.outcomesByKind, b.outcomesByKind);
  EXPECT_EQ(a.nodeLevel.injected, b.nodeLevel.injected);
  EXPECT_EQ(a.nodeLevel.notActivated, b.nodeLevel.notActivated);
  EXPECT_EQ(a.nodeLevel.maskedByEcc, b.nodeLevel.maskedByEcc);
  EXPECT_EQ(a.nodeLevel.masked, b.nodeLevel.masked);
  EXPECT_EQ(a.nodeLevel.omission, b.nodeLevel.omission);
  EXPECT_EQ(a.nodeLevel.failSilent, b.nodeLevel.failSilent);
  EXPECT_EQ(a.nodeLevel.undetected, b.nodeLevel.undetected);
  EXPECT_EQ(a.stops, b.stops);
  EXPECT_EQ(a.skippedMasked, b.skippedMasked);
  EXPECT_EQ(a.stoppingDistanceM.count(), b.stoppingDistanceM.count());
  const double meanA = a.stoppingDistanceM.mean();
  const double meanB = b.stoppingDistanceM.mean();
  EXPECT_EQ(std::memcmp(&meanA, &meanB, sizeof(double)), 0);
  const double varA = a.stoppingDistanceM.variance();
  const double varB = b.stoppingDistanceM.variance();
  EXPECT_EQ(std::memcmp(&varA, &varB, sizeof(double)), 0);
}

void expectSameSnapCounters(const SnapCounters& a, const SnapCounters& b) {
  EXPECT_EQ(a.simulatedCycles, b.simulatedCycles);
  EXPECT_EQ(a.replayedCopies, b.replayedCopies);
  EXPECT_EQ(a.executedCopies, b.executedCopies);
}

TEST(SystemSnapshotDifferential, SnapshotStatsBitIdenticalToStraight) {
  const SystemCampaignStats straight = runSystemCampaign(smallConfig(ExecutionMode::Straight));
  const SystemCampaignStats snapshot = runSystemCampaign(smallConfig(ExecutionMode::Auto));
  expectSameResults(straight, snapshot);

  // The engine actually engaged: experiments forked from stored golden
  // states, at least one was answered by a golden-tail splice, and
  // strictly fewer events were simulated.
  EXPECT_GT(snapshot.snap.resumePoints, 0u);
  EXPECT_GT(snapshot.snap.replayedCopies, 0u);
  EXPECT_LT(snapshot.snap.simulatedCycles, straight.snap.simulatedCycles);
  EXPECT_EQ(snapshot.snap.replayedCopies + snapshot.snap.executedCopies + snapshot.skippedMasked,
            static_cast<std::uint64_t>(snapshot.experiments));
  EXPECT_EQ(straight.snap.replayedCopies, 0u);
  // Straight mode still accounts its simulated work.
  EXPECT_GT(straight.snap.simulatedCycles, 0u);
  EXPECT_EQ(straight.snap.executedCopies + straight.skippedMasked,
            static_cast<std::uint64_t>(straight.experiments));
}

TEST(SystemSnapshotDifferential, ThreadCountInvariantIncludingSnapCounters) {
  SystemCampaignConfig config = smallConfig(ExecutionMode::Auto);
  config.parallelism.threads = 1;
  const SystemCampaignStats serial = runSystemCampaign(config);
  for (const unsigned threads : {2u, 8u}) {
    config.parallelism.threads = threads;
    const SystemCampaignStats parallel = runSystemCampaign(config);
    expectSameResults(serial, parallel);
    // snap.* counters are chunk-order merged sums of per-experiment
    // counts: bit-identical at every thread count, not just statistically
    // equal.
    expectSameSnapCounters(serial.snap, parallel.snap);
  }
}

TEST(SystemSnapshotDifferential, MetricsFingerprintIdenticalAcrossModesAndThreads) {
  obs::Registry straightMetrics;
  SystemCampaignConfig config = smallConfig(ExecutionMode::Straight);
  config.metrics = &straightMetrics;
  const SystemCampaignStats straight = runSystemCampaign(config);
  const std::string goldenPrint = straightMetrics.goldenFingerprint();

  for (const unsigned threads : {1u, 2u, 8u}) {
    obs::Registry snapshotMetrics;
    SystemCampaignConfig snapConfig = smallConfig(ExecutionMode::Auto);
    snapConfig.parallelism.threads = threads;
    snapConfig.metrics = &snapshotMetrics;
    const SystemCampaignStats snapshot = runSystemCampaign(snapConfig);
    expectSameResults(straight, snapshot);
    // The golden fingerprint covers every non-"wall." metric — per-sim
    // kernel/TEM/bus registries, the e2e latency histogram and its max, and
    // the campaign.* reducers. Spliced experiments export the same totals a
    // complete run would, so the registries agree to the byte.
    EXPECT_EQ(snapshotMetrics.goldenFingerprint(), goldenPrint) << "threads=" << threads;
    // Metrics-instrumented experiments splice like plain ones.
    EXPECT_GT(snapshot.snap.replayedCopies, 0u);
    EXPECT_LT(snapshot.snap.simulatedCycles, straight.snap.simulatedCycles);
  }
}

TEST(SystemSnapshotDifferential, StratifiedCampaignMatchesAcrossModes) {
  SystemCampaignConfig straightConfig = smallConfig(ExecutionMode::Straight);
  straightConfig.experiments = 72;
  const StratifiedCampaignResult straight = runStratifiedSystemCampaign(straightConfig, 2);

  SystemCampaignConfig snapConfig = smallConfig(ExecutionMode::Auto);
  snapConfig.experiments = 72;
  const StratifiedCampaignResult snapshot = runStratifiedSystemCampaign(snapConfig, 2);

  ASSERT_EQ(straight.strata.size(), snapshot.strata.size());
  for (std::size_t h = 0; h < straight.strata.size(); ++h) {
    expectSameResults(straight.strata[h].stats, snapshot.strata[h].stats);
  }
  expectSameResults(straight.total, snapshot.total);
  EXPECT_LT(snapshot.total.snap.simulatedCycles, straight.total.snap.simulatedCycles);
}

TEST(SystemSnapshotDifferential, StratifiedMetricsFingerprintIdenticalAcrossModesAndThreads) {
  obs::Registry straightMetrics;
  SystemCampaignConfig config = smallConfig(ExecutionMode::Straight);
  config.experiments = 72;
  config.metrics = &straightMetrics;
  const StratifiedCampaignResult straight = runStratifiedSystemCampaign(config, 2);
  const std::string goldenPrint = straightMetrics.goldenFingerprint();

  for (const unsigned threads : {1u, 2u, 8u}) {
    obs::Registry snapshotMetrics;
    SystemCampaignConfig snapConfig = smallConfig(ExecutionMode::Auto);
    snapConfig.experiments = 72;
    snapConfig.parallelism.threads = threads;
    snapConfig.metrics = &snapshotMetrics;
    const StratifiedCampaignResult snapshot = runStratifiedSystemCampaign(snapConfig, 2);
    expectSameResults(straight.total, snapshot.total);
    EXPECT_EQ(snapshotMetrics.goldenFingerprint(), goldenPrint) << "threads=" << threads;
    EXPECT_GT(snapshot.total.snap.replayedCopies, 0u);
  }
}

TEST(SystemSnapshotDifferential, LatencySamplesStraddlingTheSpliceAreExact) {
  // A wheel applies command k several milliseconds after a CU sampled the
  // pedal for it, so at any rejoin point some sequences are sampled but not
  // yet applied: their e2e.latency samples start in the simulated prefix
  // and land in the spliced golden tail. Masked computation faults on a CU
  // heal at once and splice early; the registry of every spliced run must
  // equal the straight run's, histogram bins and max gauge included.
  bbw::BbwSimConfig config;
  config.initialSpeedMps = 15.0;
  config.horizon = Duration::seconds(8);
  const SystemBaseline baseline{config};

  std::size_t straddling = 0;
  for (const std::int64_t atUs : {203'000, 517'500, 1'000'250, 1'404'000}) {
    for (const net::NodeId node : {bbw::kCuA, bbw::kCuB}) {
      SCOPED_TRACE("node " + std::to_string(node) + " at " + std::to_string(atUs) + "us");
      const util::SimTime at = util::SimTime::fromUs(atUs);

      obs::Registry straightMetrics;
      bbw::BbwSystemSim straight{config};
      straight.setMetricsRegistry(&straightMetrics);
      straight.injectComputationFault(node, at);
      const bbw::BbwSimResult expected = straight.run();

      obs::Registry splicedMetrics;
      bbw::BbwSystemSim scratch{config};
      scratch.setMetricsRegistry(&splicedMetrics);
      scratch.injectComputationFault(node, at);
      const std::optional<bbw::BbwSimResult> spliced = baseline.runToRejoin(scratch, atUs);
      ASSERT_TRUE(spliced.has_value());
      EXPECT_LT(scratch.counterSnapshot().eventsProcessed,
                straight.counterSnapshot().eventsProcessed);

      EXPECT_EQ(splicedMetrics.goldenFingerprint(), straightMetrics.goldenFingerprint());
      EXPECT_EQ(splicedMetrics.histogram("e2e.latency").counts,
                straightMetrics.histogram("e2e.latency").counts);
      EXPECT_EQ(splicedMetrics.gauge("e2e.latency.max_us"),
                straightMetrics.gauge("e2e.latency.max_us"));
      EXPECT_EQ(spliced->stoppingDistanceM, expected.stoppingDistanceM);
      EXPECT_EQ(spliced->errorsMaskedByTem, expected.errorsMaskedByTem);

      // Witness the straddle on a twin of the faulted run: some sample
      // taken within one stride after the splice point has a latency
      // longer than the time elapsed since that point, i.e. its pedal was
      // sampled before the splice.
      const std::int64_t spliceUs = scratch.simulator().now().us();
      bbw::BbwSystemSim twin{config};
      twin.injectComputationFault(node, at);
      twin.runUntil(util::SimTime::fromUs(spliceUs));
      ASSERT_EQ(twin.simulator().now().us(), spliceUs);
      twin.runUntil(util::SimTime::fromUs(spliceUs + baseline.strideUs()));
      const std::int64_t elapsedUs = twin.simulator().now().us() - spliceUs;
      if (twin.endToEndLatency().windowMaxUs > static_cast<double>(elapsedUs)) ++straddling;
    }
  }
  EXPECT_GT(straddling, 0u);
}

TEST(SystemSnapshotDifferential, GoldenLatencyTailMatchesATwinRun) {
  // The latency tail a splice adds at checkpoint i — bins, count, largest
  // sample — must be what a golden twin samples after that grid point. A
  // 4.1 ms control period drifts against the 4 ms bus cycle, so the
  // latencies vary along the stop instead of repeating one value.
  bbw::BbwSimConfig config;
  config.initialSpeedMps = 15.0;
  config.horizon = Duration::seconds(8);
  config.controlPeriod = Duration::microseconds(4100);
  const SystemBaseline baseline{config};
  const std::size_t n = baseline.checkpoints().size();
  ASSERT_GT(n, 4u);
  for (const std::size_t i : {std::size_t{0}, std::size_t{1}, n / 2, n - 2, n - 1}) {
    SCOPED_TRACE("checkpoint " + std::to_string(i));
    bbw::BbwSystemSim twin{config};
    twin.runUntil(util::SimTime::fromUs(baseline.checkpoints()[i].gridUs));
    const bbw::EndToEndLatency before = twin.endToEndLatency();
    twin.runUntil(util::SimTime::zero() + config.horizon);
    const bbw::EndToEndLatency& after = twin.endToEndLatency();

    const bbw::EndToEndLatency tail = baseline.latencyAfter(i);
    for (std::size_t b = 0; b < tail.bins.size(); ++b) {
      EXPECT_EQ(tail.bins[b], after.bins[b] - before.bins[b]) << "bin " << b;
    }
    EXPECT_EQ(tail.samples, after.samples - before.samples);
    EXPECT_EQ(tail.maxUs, after.windowMaxUs);
  }
}

TEST(SystemSnapshotDifferential, PedalProfileClosureForksBitIdentically) {
  // Every campaign sim, the golden sweep included, is built from the SAME
  // config object, so the splice compares runs that execute the same
  // pedal-profile closure. Spliced execution must still match straight
  // execution exactly under a non-default profile.
  SystemCampaignConfig straightConfig = smallConfig(ExecutionMode::Straight);
  straightConfig.experiments = 16;
  straightConfig.sim.pedalProfile = [](double) { return 0.8; };
  const SystemCampaignStats straight = runSystemCampaign(straightConfig);

  SystemCampaignConfig snapConfig = straightConfig;
  snapConfig.mode = ExecutionMode::Auto;
  const SystemCampaignStats snapshot = runSystemCampaign(snapConfig);
  expectSameResults(straight, snapshot);
}

}  // namespace
}  // namespace nlft::fi
