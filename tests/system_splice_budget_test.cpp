// Deterministic work gate for metrics-instrumented system campaigns.
//
// A campaign with a metrics registry attached forks every experiment from
// the last stored golden state before its injection and splices the golden
// tail onto every experiment that rejoins the fault-free timeline, exactly
// like a campaign without one. This test pins the simulated DES events of a
// fixed instrumented campaign (48 default-mix stops, seed 20, the
// benchmark's pinned reference call) at the forked-and-spliced count, so a
// silent fallback to simulating the clean prefix or to full-length
// instrumented runs fails under its own name (ctest label "perf-counters")
// instead of as a slow benchmark.
#include <gtest/gtest.h>

#include <cstdint>

#include "faults/system_campaign.hpp"
#include "obs/metrics.hpp"

namespace nlft::fi {
namespace {

/// Simulated events of the campaign below, the golden sweep included. The
/// same campaign simulates 667,951 events when every stop runs from t=0 to
/// its end, and 507,634 when stops splice but do not fork.
constexpr std::uint64_t kSplicedEvents = 334538;

SystemCampaignConfig instrumentedConfig(obs::Registry& metrics, ExecutionMode mode) {
  SystemCampaignConfig config;
  config.experiments = 48;
  config.seed = 20;
  config.parallelism.threads = 2;
  config.mode = mode;
  config.metrics = &metrics;
  return config;
}

TEST(SystemSpliceBudget, InstrumentedCampaignSplicesTheGoldenTail) {
  obs::Registry metrics;
  const SystemCampaignStats stats =
      runSystemCampaign(instrumentedConfig(metrics, ExecutionMode::Auto));
  EXPECT_EQ(stats.snap.simulatedCycles, kSplicedEvents);
  EXPECT_GT(stats.snap.replayedCopies, 0u);
  EXPECT_EQ(stats.snap.resumePoints, stats.snap.replayedCopies + stats.snap.executedCopies);

  obs::Registry straightMetrics;
  const SystemCampaignStats straight =
      runSystemCampaign(instrumentedConfig(straightMetrics, ExecutionMode::Straight));
  EXPECT_LT(stats.snap.simulatedCycles, straight.snap.simulatedCycles);
  EXPECT_EQ(metrics.goldenFingerprint(), straightMetrics.goldenFingerprint());
}

}  // namespace
}  // namespace nlft::fi
