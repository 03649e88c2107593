// Differential suite of the system-level FORK (docs/SNAPSHOT.md "system
// campaigns"): a bbw::BbwSystemSim forked from a stored golden state just
// before a control-period boundary, then armed and run, must be
// indistinguishable from a straight run armed at t=0 — result fields,
// counters, behavior fingerprint and the metrics registry — on every
// checked-in fuzz-corpus case and every golden-trace scenario, at every
// stored state before its first injection. Campaign statistics and metrics
// fingerprints must match across Straight and Auto (forked and spliced)
// execution at every thread count. The refusal rules (trace output, active
// jobs, used targets, config mismatches) are pinned too.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "faults/golden_trace.hpp"
#include "faults/snapshot_exec.hpp"
#include "faults/system_campaign.hpp"
#include "fuzz/corpus.hpp"
#include "fuzz/oracles.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace nlft::fi {
namespace {

using bbw::BbwSimConfig;
using bbw::BbwSimResult;
using bbw::BbwSystemSim;
using util::SimTime;

/// Bit-level equality of two doubles ("equal" means equal bit patterns).
bool sameBits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

void expectSameResult(const BbwSimResult& a, const BbwSimResult& b) {
  EXPECT_EQ(a.stopped, b.stopped);
  EXPECT_TRUE(sameBits(a.stoppingDistanceM, b.stoppingDistanceM));
  EXPECT_TRUE(sameBits(a.stopTimeS, b.stopTimeS));
  EXPECT_EQ(a.commandFramesDelivered, b.commandFramesDelivered);
  EXPECT_EQ(a.duplicateCommandsDropped, b.duplicateCommandsDropped);
  EXPECT_EQ(a.busFramesDropped, b.busFramesDropped);
  EXPECT_EQ(a.nodesDownAtEnd, b.nodesDownAtEnd);
  EXPECT_EQ(a.wheelCompletions, b.wheelCompletions);
  EXPECT_EQ(a.wheelOmissions, b.wheelOmissions);
  EXPECT_EQ(a.cuCompletions, b.cuCompletions);
  EXPECT_EQ(a.errorsMaskedByTem, b.errorsMaskedByTem);
  EXPECT_EQ(a.failSilentEvents, b.failSilentEvents);
  EXPECT_EQ(a.commandsOmitted, b.commandsOmitted);
  EXPECT_EQ(a.undetectedValueDeliveries, b.undetectedValueDeliveries);
  EXPECT_EQ(a.emergencyBrakeLatency, b.emergencyBrakeLatency);
}

/// Everything observable at the end of one run.
struct Observed {
  BbwSimResult result;
  bbw::BbwSystemCounters counters;
  std::uint64_t behavior = 0;
  std::string metrics;
};

template <typename Arm>
Observed runObserved(const BbwSimConfig& config, const BbwSystemSim* forkFrom, Arm arm) {
  obs::Registry registry;
  BbwSystemSim sim{config};
  sim.setMetricsRegistry(&registry);
  if (forkFrom != nullptr) sim.forkFrom(*forkFrom);
  arm(sim);
  Observed observed;
  observed.result = sim.run();
  observed.counters = sim.counterSnapshot();
  observed.behavior = sim.behaviorFingerprint();
  observed.metrics = registry.goldenFingerprint();
  return observed;
}

/// Forks `arm`'s scenario at every stored state at or before its first
/// injection and compares each with the straight run; returns the forks.
template <typename Arm>
std::size_t expectForksMatchStraight(const BbwSimConfig& config, SimTime firstInjection,
                                     Arm arm) {
  const SystemBaseline baseline{config, SimTime::zero(), firstInjection};
  const Observed straight = runObserved(config, nullptr, arm);
  std::size_t forks = 0;
  for (const SystemForkState& state : baseline.forkStates()) {
    if (state.boundaryUs > firstInjection.us()) break;
    SCOPED_TRACE("fork state at " + std::to_string(state.boundaryUs) + " us");
    const Observed forked = runObserved(config, state.sim.get(), arm);
    expectSameResult(forked.result, straight.result);
    EXPECT_EQ(forked.counters, straight.counters);
    EXPECT_EQ(forked.behavior, straight.behavior);
    EXPECT_EQ(forked.metrics, straight.metrics);
    ++forks;
  }
  return forks;
}

TEST(SystemForkDifferential, EveryCorpusCaseForksBitIdentically) {
  const std::vector<fuzz::CorpusEntry> corpus = fuzz::loadCorpusDir(NLFT_FUZZ_CORPUS_DIR);
  ASSERT_GE(corpus.size(), 6u);
  for (const fuzz::CorpusEntry& entry : corpus) {
    SCOPED_TRACE("corpus case " + entry.signature);
    const BbwSimConfig config =
        fuzz::simConfigFor(entry.scenario.params, fuzz::OracleConfig{}.horizonUs);
    // Canonical schedules are sorted by time: the first event injects
    // first. A fault-free case forks at every state of the legal range.
    const std::vector<fuzz::ScheduleEvent>& events = entry.scenario.events;
    const SimTime first =
        SimTime::fromUs(events.empty() ? fuzz::ScenarioLimits{}.maxEventUs : events.front().atUs);
    const std::size_t forks = expectForksMatchStraight(config, first, [&](BbwSystemSim& sim) {
      for (const fuzz::ScheduleEvent& event : events) fuzz::applyEvent(sim, event);
    });
    EXPECT_GT(forks, 0u);
  }
}

TEST(SystemForkDifferential, EveryGoldenScenarioForksBitIdentically) {
  for (const std::string& name : goldenScenarioNames()) {
    SCOPED_TRACE("golden scenario " + name);
    const GoldenScenario scenario = goldenScenario(name);
    BbwSimConfig config;
    config.nodeType = scenario.nodeType;
    const std::size_t forks = expectForksMatchStraight(config, scenario.firstInjection,
                                                       [&](BbwSystemSim& sim) { scenario.arm(sim); });
    EXPECT_GT(forks, 0u);
  }
}

// ---- Campaigns: Straight vs Auto (forked + spliced) ----

SystemCampaignConfig campaignConfig(ExecutionMode mode, unsigned threads) {
  SystemCampaignConfig config;
  config.experiments = 48;
  config.seed = 11;
  config.parallelism.threads = threads;
  config.parallelism.chunkSize = 8;  // fixed chunking = fixed RNG substreams
  config.mode = mode;
  return config;
}

void expectSameStats(const SystemCampaignStats& a, const SystemCampaignStats& b) {
  EXPECT_EQ(a.experiments, b.experiments);
  EXPECT_EQ(a.outcomes, b.outcomes);
  EXPECT_EQ(a.outcomesByKind, b.outcomesByKind);
  EXPECT_EQ(a.nodeLevel.injected, b.nodeLevel.injected);
  EXPECT_EQ(a.nodeLevel.masked, b.nodeLevel.masked);
  EXPECT_EQ(a.nodeLevel.omission, b.nodeLevel.omission);
  EXPECT_EQ(a.nodeLevel.undetected, b.nodeLevel.undetected);
  EXPECT_EQ(a.stops, b.stops);
  EXPECT_EQ(a.skippedMasked, b.skippedMasked);
  EXPECT_EQ(a.stoppingDistanceM.count(), b.stoppingDistanceM.count());
  EXPECT_TRUE(sameBits(a.stoppingDistanceM.mean(), b.stoppingDistanceM.mean()));
  EXPECT_TRUE(sameBits(a.stoppingDistanceM.variance(), b.stoppingDistanceM.variance()));
}

/// Every simulated experiment of the default window forks: its injection
/// lies at or after the first stored state (0.2 s).
void expectEveryExperimentForked(const SystemCampaignStats& stats) {
  EXPECT_GT(stats.snap.resumePoints, 0u);
  EXPECT_EQ(stats.snap.resumePoints, stats.snap.replayedCopies + stats.snap.executedCopies);
}

TEST(SystemForkDifferential, CampaignStatsAndMetricsMatchStraightAtEveryThreadCount) {
  obs::Registry straightMetrics;
  SystemCampaignConfig straightConfig = campaignConfig(ExecutionMode::Straight, 1);
  straightConfig.metrics = &straightMetrics;
  const SystemCampaignStats straight = runSystemCampaign(straightConfig);
  EXPECT_EQ(straight.snap.resumePoints, 0u);  // Straight never forks

  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    obs::Registry metrics;
    SystemCampaignConfig config = campaignConfig(ExecutionMode::Auto, threads);
    config.metrics = &metrics;
    const SystemCampaignStats forked = runSystemCampaign(config);
    expectSameStats(forked, straight);
    EXPECT_EQ(metrics.goldenFingerprint(), straightMetrics.goldenFingerprint());
    expectEveryExperimentForked(forked);
    EXPECT_LT(forked.snap.simulatedCycles, straight.snap.simulatedCycles);
  }
}

TEST(SystemForkDifferential, StratifiedStatsAndMetricsMatchStraightAtEveryThreadCount) {
  obs::Registry straightMetrics;
  SystemCampaignConfig straightConfig = campaignConfig(ExecutionMode::Straight, 1);
  straightConfig.experiments = 72;
  straightConfig.metrics = &straightMetrics;
  const StratifiedCampaignResult straight = runStratifiedSystemCampaign(straightConfig, 2);

  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    obs::Registry metrics;
    SystemCampaignConfig config = campaignConfig(ExecutionMode::Auto, threads);
    config.experiments = 72;
    config.metrics = &metrics;
    const StratifiedCampaignResult forked = runStratifiedSystemCampaign(config, 2);
    ASSERT_EQ(forked.strata.size(), straight.strata.size());
    for (std::size_t h = 0; h < forked.strata.size(); ++h) {
      expectSameStats(forked.strata[h].stats, straight.strata[h].stats);
    }
    expectSameStats(forked.total, straight.total);
    EXPECT_EQ(metrics.goldenFingerprint(), straightMetrics.goldenFingerprint());
    expectEveryExperimentForked(forked.total);
  }
}

// ---- Fork states and refusals ----

/// A golden sim advanced to just before the 200 ms control-period boundary.
class ForkRules : public ::testing::Test {
 protected:
  static constexpr std::int64_t kBoundaryUs = 200'000;
  void SetUp() override { golden.runBefore(SimTime::fromUs(kBoundaryUs)); }

  BbwSimConfig config{};
  BbwSystemSim golden{config};
};

TEST_F(ForkRules, AForkStartsFromTheGoldenState) {
  ASSERT_TRUE(golden.forkable());
  EXPECT_LT(golden.simulator().now().us(), kBoundaryUs);
  BbwSystemSim fork{config};
  fork.forkFrom(golden);
  EXPECT_EQ(fork.simulator().now(), golden.simulator().now());
  EXPECT_EQ(fork.simulator().pendingEvents(), golden.simulator().pendingEvents());
  EXPECT_EQ(fork.counterSnapshot(), golden.counterSnapshot());
  EXPECT_EQ(fork.behaviorFingerprint(), golden.behaviorFingerprint());
  // The golden state stays usable: both continue identically.
  const BbwSimResult forkResult = fork.run();
  const BbwSimResult goldenResult = golden.run();
  expectSameResult(forkResult, goldenResult);
  EXPECT_EQ(fork.counterSnapshot(), golden.counterSnapshot());
}

TEST_F(ForkRules, RefusesTraceOutputOnEitherSide) {
  BbwSystemSim sinkTarget{config};
  sinkTarget.setTraceSink([](const std::string&) {});
  EXPECT_THROW(sinkTarget.forkFrom(golden), std::logic_error);

  obs::TraceRecorder recorder;
  BbwSystemSim recorderTarget{config};
  recorderTarget.setTraceRecorder(&recorder);
  EXPECT_THROW(recorderTarget.forkFrom(golden), std::logic_error);

  BbwSystemSim traced{config};
  traced.setTraceSink([](const std::string&) {});
  traced.runBefore(SimTime::fromUs(kBoundaryUs));
  EXPECT_FALSE(traced.forkable());
  BbwSystemSim target{config};
  EXPECT_THROW(target.forkFrom(traced), std::logic_error);
}

TEST_F(ForkRules, RefusesAGoldenStateWithAnActiveJob) {
  // Control jobs release at the boundary and run for hundreds of
  // microseconds: 100 us later every node is mid-job.
  BbwSystemSim busy{config};
  busy.runBefore(SimTime::fromUs(kBoundaryUs + 100));
  EXPECT_FALSE(busy.forkable());
  BbwSystemSim target{config};
  EXPECT_THROW(target.forkFrom(busy), std::logic_error);
}

TEST_F(ForkRules, RefusesAUsedOrArmedTarget) {
  BbwSystemSim ran{config};
  ran.runUntil(SimTime::fromUs(1000));
  EXPECT_THROW(ran.forkFrom(golden), std::logic_error);

  BbwSystemSim armed{config};
  armed.injectKernelError(bbw::kCuA, SimTime::fromUs(kBoundaryUs + 5000));
  EXPECT_THROW(armed.forkFrom(golden), std::logic_error);

  BbwSystemSim twice{config};
  twice.forkFrom(golden);
  EXPECT_THROW(twice.forkFrom(golden), std::logic_error);
}

TEST_F(ForkRules, RefusesAConfigMismatch) {
  BbwSimConfig faster = config;
  faster.initialSpeedMps += 1.0;
  BbwSystemSim target{faster};
  EXPECT_THROW(target.forkFrom(golden), std::logic_error);

  BbwSimConfig failSilent = config;
  failSilent.nodeType = bbw::NodeType::FailSilent;
  BbwSystemSim other{failSilent};
  EXPECT_THROW(other.forkFrom(golden), std::logic_error);
}

TEST_F(ForkRules, RefusesInjectionsIntoTheSimulatedPrefixAndEmergencyPresses) {
  BbwSystemSim fork{config};
  fork.forkFrom(golden);
  EXPECT_THROW(fork.injectComputationFault(bbw::kCuA, SimTime::fromUs(kBoundaryUs - 1)),
               std::logic_error);
  EXPECT_NO_THROW(fork.injectComputationFault(bbw::kCuA, SimTime::fromUs(kBoundaryUs)));
  EXPECT_THROW(fork.pressEmergencyBrake(SimTime::fromUs(kBoundaryUs + 5000)),
               std::logic_error);
}

TEST(SystemForkStates, BaselineStoresOneStatePerForkStrideOverTheWindow) {
  BbwSimConfig config;
  const SystemBaseline baseline{config, SimTime::fromUs(200'000), SimTime::fromUs(2'000'000)};
  const std::int64_t strideUs = baseline.strideUs() * SystemBaseline::kForkPeriods;
  ASSERT_EQ(baseline.forkStates().size(), 19u);
  for (std::size_t k = 0; k < baseline.forkStates().size(); ++k) {
    EXPECT_EQ(baseline.forkStates()[k].boundaryUs, 200'000 + strideUs * static_cast<std::int64_t>(k));
  }
  EXPECT_EQ(baseline.forkStateFor(SimTime::fromUs(199'999)), nullptr);
  EXPECT_EQ(baseline.forkStateFor(SimTime::fromUs(200'000)), baseline.forkStates()[0].sim.get());
  EXPECT_EQ(baseline.forkStateFor(SimTime::fromUs(299'999)), baseline.forkStates()[0].sim.get());
  EXPECT_EQ(baseline.forkStateFor(SimTime::fromUs(5'000'000)),
            baseline.forkStates().back().sim.get());

  // Capturing fork states does not perturb the golden timeline.
  const SystemBaseline plain{config};
  EXPECT_TRUE(plain.forkStates().empty());
  ASSERT_EQ(plain.checkpoints().size(), baseline.checkpoints().size());
  for (std::size_t i = 0; i < plain.checkpoints().size(); ++i) {
    EXPECT_EQ(plain.checkpoints()[i].behavior, baseline.checkpoints()[i].behavior);
    EXPECT_EQ(plain.checkpoints()[i].counters, baseline.checkpoints()[i].counters);
    EXPECT_EQ(plain.checkpoints()[i].latencySamples, baseline.checkpoints()[i].latencySamples);
    EXPECT_TRUE(sameBits(plain.checkpoints()[i].latencyIntervalMaxUs,
                         baseline.checkpoints()[i].latencyIntervalMaxUs));
  }
  EXPECT_EQ(plain.goldenCounters(), baseline.goldenCounters());
  const bbw::EndToEndLatency a = plain.latencyAfter(0);
  const bbw::EndToEndLatency b = baseline.latencyAfter(0);
  EXPECT_EQ(a.bins, b.bins);
  EXPECT_TRUE(sameBits(a.maxUs, b.maxUs));
}

}  // namespace
}  // namespace nlft::fi
