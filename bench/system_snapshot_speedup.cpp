// System-campaign fork + splice engine speedup: simulated events and wall
// time of straight execution vs forked and spliced execution (fork from the
// last stored golden state before the injection, splice the golden tail
// once the run provably rejoins the fault-free timeline) on the SAME
// scenario samples (same seed, same chunking).
//
// The saving has two sources. The FORK skips the clean prefix: every
// experiment starts from a stored golden state at most one fork stride
// before its injection instead of from t=0. The REJOIN SPLICE skips the
// clean tail: a masked or healed fault stops simulating once its run
// provably re-enters the golden timeline, and the golden tail is spliced on
// arithmetically. The acceptance floor is a
// >=2x reduction in simulated events per campaign, for plain AND for
// metrics-instrumented campaigns (the splice exports exactly the metrics a
// complete run would). Campaign statistics must be bit-identical between
// the two modes and across thread counts {1, 2, 8}, and metrics-instrumented
// runs must produce identical golden fingerprints — this bench fails
// (exit 1) on any divergence, making it a differential test as much as a
// benchmark.
//
// Results append to BENCH_system_snapshot_speedup.json. `--smoke` shrinks
// budgets for CI.
#include <cstdio>
#include <cstring>

#include "faults/system_campaign.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "util/time.hpp"

using namespace nlft;

namespace {

/// Campaign statistics (everything except the snap.* engine counters) must
/// be bit-identical between execution modes and thread counts. Floating
/// point compares by bit pattern, not tolerance.
bool statsEqual(const fi::SystemCampaignStats& a, const fi::SystemCampaignStats& b) {
  const double meanA = a.stoppingDistanceM.mean();
  const double meanB = b.stoppingDistanceM.mean();
  const double varA = a.stoppingDistanceM.variance();
  const double varB = b.stoppingDistanceM.variance();
  return a.experiments == b.experiments && a.outcomes == b.outcomes &&
         a.outcomesByKind == b.outcomesByKind && a.stops == b.stops &&
         a.skippedMasked == b.skippedMasked &&
         a.nodeLevel.injected == b.nodeLevel.injected &&
         a.nodeLevel.notActivated == b.nodeLevel.notActivated &&
         a.nodeLevel.maskedByEcc == b.nodeLevel.maskedByEcc &&
         a.nodeLevel.masked == b.nodeLevel.masked &&
         a.nodeLevel.omission == b.nodeLevel.omission &&
         a.nodeLevel.failSilent == b.nodeLevel.failSilent &&
         a.nodeLevel.undetected == b.nodeLevel.undetected &&
         a.stoppingDistanceM.count() == b.stoppingDistanceM.count() &&
         std::memcmp(&meanA, &meanB, sizeof(double)) == 0 &&
         std::memcmp(&varA, &varB, sizeof(double)) == 0;
}

bool snapEqual(const fi::SnapCounters& a, const fi::SnapCounters& b) {
  return a.simulatedCycles == b.simulatedCycles && a.replayedCopies == b.replayedCopies &&
         a.executedCopies == b.executedCopies;
}

double eventRatio(const fi::SystemCampaignStats& straight, const fi::SystemCampaignStats& spliced) {
  return spliced.snap.simulatedCycles > 0
             ? static_cast<double>(straight.snap.simulatedCycles) /
                   static_cast<double>(spliced.snap.simulatedCycles)
             : 0.0;
}

/// The bench scenario mix leans toward machine transients injected in the
/// first second of the stop — the regime the paper's campaigns probe (most
/// faults are masked or heal quickly, so their runs rejoin the golden
/// timeline early and the splice saves the long tail). Crash-style
/// scenarios (node crash, correlated burst) genuinely diverge and run to
/// completion in both modes; their weight keeps the gate honest.
fi::SystemCampaignConfig benchConfig(std::size_t experiments, fi::ExecutionMode mode) {
  fi::SystemCampaignConfig config;
  config.experiments = experiments;
  config.seed = 47;
  config.machineTransientWeight = 0.90;
  config.busCorruptionWeight = 0.05;
  config.nodeCrashWeight = 0.03;
  config.correlatedBurstWeight = 0.02;
  config.injectEarliestS = 0.2;
  config.injectLatestS = 0.7;
  config.parallelism.threads = 1;
  config.parallelism.chunkSize = experiments / 8;
  config.mode = mode;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const std::size_t experiments = smoke ? 240 : 1200;
  std::printf("system campaign, %zu experiments, same seed and chunking in both modes\n\n",
              experiments);

  const util::MonotonicStopwatch straightClock;
  const fi::SystemCampaignStats straight =
      fi::runSystemCampaign(benchConfig(experiments, fi::ExecutionMode::Straight));
  const double straightSeconds = straightClock.elapsedSeconds();

  const util::MonotonicStopwatch snapClock;
  const fi::SystemCampaignStats snapshot =
      fi::runSystemCampaign(benchConfig(experiments, fi::ExecutionMode::Auto));
  const double snapshotSeconds = snapClock.elapsedSeconds();

  bool equivalent = statsEqual(straight, snapshot);

  // Thread-count invariance of the splice engine, INCLUDING its own
  // counters (per-experiment counts merged in chunk order).
  for (const unsigned threads : {2u, 8u}) {
    fi::SystemCampaignConfig rerun = benchConfig(experiments, fi::ExecutionMode::Auto);
    rerun.parallelism.threads = threads;
    const fi::SystemCampaignStats again = fi::runSystemCampaign(rerun);
    equivalent = equivalent && statsEqual(snapshot, again) && snapEqual(snapshot.snap, again.snap);
  }

  // Metrics-instrumented pair: per-sim registries and campaign reducers
  // must produce identical golden fingerprints across modes, and the
  // instrumented campaign must splice as much as the plain one.
  obs::Registry straightMetrics;
  obs::Registry snapshotMetrics;
  fi::SystemCampaignStats instrumentedStraight;
  fi::SystemCampaignStats instrumented;
  {
    fi::SystemCampaignConfig config = benchConfig(experiments, fi::ExecutionMode::Straight);
    config.metrics = &straightMetrics;
    instrumentedStraight = fi::runSystemCampaign(config);
    config = benchConfig(experiments, fi::ExecutionMode::Auto);
    config.metrics = &snapshotMetrics;
    instrumented = fi::runSystemCampaign(config);
  }
  const bool metricsIdentical =
      straightMetrics.goldenFingerprint() == snapshotMetrics.goldenFingerprint();
  equivalent = equivalent && statsEqual(straight, instrumentedStraight) &&
               statsEqual(snapshot, instrumented) && snapEqual(snapshot.snap, instrumented.snap);

  const double ratio = eventRatio(straight, snapshot);
  const double instrumentedRatio = eventRatio(instrumentedStraight, instrumented);
  const std::uint64_t copies = snapshot.snap.replayedCopies + snapshot.snap.executedCopies;
  const double replayedFraction =
      copies > 0 ? static_cast<double>(snapshot.snap.replayedCopies) /
                       static_cast<double>(copies)
                 : 0.0;

  std::printf("simulated events           straight %llu vs snapshot %llu  => %.2fx reduction "
              "(floor 2x)\n",
              static_cast<unsigned long long>(straight.snap.simulatedCycles),
              static_cast<unsigned long long>(snapshot.snap.simulatedCycles), ratio);
  std::printf("  with a metrics registry  straight %llu vs snapshot %llu  => %.2fx reduction "
              "(floor 2x)\n",
              static_cast<unsigned long long>(instrumentedStraight.snap.simulatedCycles),
              static_cast<unsigned long long>(instrumented.snap.simulatedCycles),
              instrumentedRatio);
  std::printf("wall time                  straight %.3fs vs snapshot %.3fs\n", straightSeconds,
              snapshotSeconds);
  std::printf("golden-state forks         %llu of %llu simulated experiments\n",
              static_cast<unsigned long long>(snapshot.snap.resumePoints),
              static_cast<unsigned long long>(copies));
  std::printf("rejoin splices             %.1f%% of simulated experiments (%llu masked skips)\n",
              100.0 * replayedFraction, static_cast<unsigned long long>(snapshot.skippedMasked));
  std::printf("mode & thread equivalence  %s\n",
              equivalent ? "bit-identical" : "BROKEN (statistics diverged)");
  std::printf("metrics fingerprints       %s\n",
              metricsIdentical ? "identical" : "BROKEN (fingerprints diverged)");

  obs::JsonValue report = obs::JsonValue::object();
  report.set("report", obs::JsonValue::string("system_snapshot_speedup"));
  report.set("smoke", obs::JsonValue::boolean(smoke));
  report.set("experiments", obs::JsonValue::integer(static_cast<std::int64_t>(experiments)));
  report.set("straight_events",
             obs::JsonValue::integer(static_cast<std::int64_t>(straight.snap.simulatedCycles)));
  report.set("snapshot_events",
             obs::JsonValue::integer(static_cast<std::int64_t>(snapshot.snap.simulatedCycles)));
  report.set("events_ratio", obs::JsonValue::number(ratio));
  report.set("instrumented_events_ratio", obs::JsonValue::number(instrumentedRatio));
  report.set("straight_seconds", obs::JsonValue::number(straightSeconds));
  report.set("snapshot_seconds", obs::JsonValue::number(snapshotSeconds));
  report.set("replayed_fraction", obs::JsonValue::number(replayedFraction));
  report.set("replayed_copies",
             obs::JsonValue::integer(static_cast<std::int64_t>(snapshot.snap.replayedCopies)));
  report.set("executed_copies",
             obs::JsonValue::integer(static_cast<std::int64_t>(snapshot.snap.executedCopies)));
  report.set("forked_experiments",
             obs::JsonValue::integer(static_cast<std::int64_t>(snapshot.snap.resumePoints)));
  report.set("skipped_masked",
             obs::JsonValue::integer(static_cast<std::int64_t>(snapshot.skippedMasked)));
  report.set("outcomes_bit_identical", obs::JsonValue::boolean(equivalent));
  report.set("metrics_fingerprint_identical", obs::JsonValue::boolean(metricsIdentical));
  obs::writeRunReportFile(report, "BENCH_system_snapshot_speedup.json");
  std::printf("\nRun report written to BENCH_system_snapshot_speedup.json\n");

  if (!equivalent) {
    std::printf("FAIL: straight and snapshot campaign statistics diverged\n");
    return 1;
  }
  if (!metricsIdentical) {
    std::printf("FAIL: metrics golden fingerprints diverged across execution modes\n");
    return 1;
  }
  if (snapshot.snap.resumePoints == 0 || instrumented.snap.resumePoints == 0) {
    std::printf("FAIL: no experiment forked from a stored golden state\n");
    return 1;
  }
  if (ratio < 2.0) {
    std::printf("FAIL: simulated-event reduction %.2fx below the 2x acceptance floor\n", ratio);
    return 1;
  }
  if (instrumentedRatio < 2.0) {
    std::printf("FAIL: instrumented simulated-event reduction %.2fx below the 2x acceptance "
                "floor\n",
                instrumentedRatio);
    return 1;
  }
  return 0;
}
