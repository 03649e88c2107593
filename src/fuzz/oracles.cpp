#include "fuzz/oracles.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/metrics.hpp"
#include "util/crc.hpp"
#include "verify/bbw_configs.hpp"
#include "verify/holistic.hpp"

namespace nlft::fuzz {

using bbw::BbwSimConfig;
using bbw::BbwSimResult;
using bbw::BbwSystemSim;

BbwSimConfig simConfigFor(const ScenarioParams& params, std::int64_t horizonUs) {
  BbwSimConfig config;
  config.nodeType = params.nodeType;
  config.initialSpeedMps = params.initialSpeedMps;
  config.pedal = params.pedal;
  config.restartTime = util::Duration::microseconds(params.restartTimeUs);
  config.horizon = util::Duration::microseconds(horizonUs);
  return config;
}

void applyEvent(BbwSystemSim& sim, const ScheduleEvent& event) {
  const util::SimTime at = util::SimTime::fromUs(event.atUs);
  switch (event.kind) {
    case EventKind::ComputationFault: sim.injectComputationFault(event.node, at); break;
    case EventKind::DetectedError: sim.injectDetectedError(event.node, at); break;
    case EventKind::KernelError: sim.injectKernelError(event.node, at); break;
    case EventKind::OmissionFailure: sim.injectOmissionFailure(event.node, at); break;
    case EventKind::ValueFailure: sim.injectValueFailure(event.node, at); break;
    case EventKind::BusCorruption:
      sim.injectBusCorruption(event.node, at, event.flipBits);
      break;
  }
}

namespace {

[[nodiscard]] BbwSimResult runScenarioSim(const ScenarioParams& params,
                                          const std::vector<ScheduleEvent>& events,
                                          std::int64_t horizonUs,
                                          obs::Registry* metrics = nullptr) {
  BbwSystemSim sim{simConfigFor(params, horizonUs)};
  if (metrics != nullptr) sim.setMetricsRegistry(metrics);
  for (const ScheduleEvent& event : events) applyEvent(sim, event);
  return sim.run();
}

[[nodiscard]] std::uint64_t omissionCount(const BbwSimResult& result) {
  std::uint64_t total = result.commandsOmitted;
  for (const std::uint64_t omissions : result.wheelOmissions) total += omissions;
  return total;
}

/// Mirrors the fi:: system-campaign oracle (docs/SYSTEM_FI.md) so fuzzer
/// outcome classes reconcile with campaign statistics.
[[nodiscard]] fi::SystemOutcome classifyOutcome(const OracleConfig& config,
                                                const BbwSimResult& golden,
                                                const BbwSimResult& run) {
  if (!run.stopped ||
      run.stoppingDistanceM > golden.stoppingDistanceM + config.missedStopMarginM) {
    return fi::SystemOutcome::MissedStop;
  }
  if (run.undetectedValueDeliveries > 0) return fi::SystemOutcome::ValueFailure;
  if (run.failSilentEvents > 0) return fi::SystemOutcome::FailSilentDegradation;
  if (omissionCount(run) > omissionCount(golden) ||
      run.busFramesDropped > golden.busFramesDropped) {
    return fi::SystemOutcome::OmissionDegradation;
  }
  if (std::abs(run.stoppingDistanceM - golden.stoppingDistanceM) > config.maskToleranceM) {
    return fi::SystemOutcome::OmissionDegradation;
  }
  return fi::SystemOutcome::Masked;
}

[[nodiscard]] std::size_t bucketOf(double value, std::initializer_list<double> edges) {
  std::size_t bucket = 0;
  for (const double edge : edges) {
    if (value <= edge) return bucket;
    ++bucket;
  }
  return bucket;
}

[[nodiscard]] std::string fmt(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

[[nodiscard]] const char* nodeTypeName(bbw::NodeType type) {
  return type == bbw::NodeType::Nlft ? "nlft" : "fail-silent";
}

[[nodiscard]] ScenarioSignature makeSignature(const OracleConfig& config,
                                              const Scenario& scenario,
                                              const BbwSimResult& golden,
                                              const BbwSimResult& run,
                                              fi::SystemOutcome outcome) {
  ScenarioSignature sig;
  sig.outcome = fi::describe(outcome);
  sig.nodeType = nodeTypeName(scenario.params.nodeType);
  sig.stopped = run.stopped;
  const double delta = std::abs(run.stoppingDistanceM - golden.stoppingDistanceM);
  sig.distanceBucket =
      bucketOf(delta, {config.maskToleranceM, 2.0, 5.0, config.missedStopMarginM});
  const std::uint64_t extraOmissions =
      omissionCount(run) > omissionCount(golden) ? omissionCount(run) - omissionCount(golden) : 0;
  sig.omissionBucket = static_cast<std::size_t>(std::min<std::uint64_t>(extraOmissions, 3));
  const std::uint64_t extraDrops = run.busFramesDropped > golden.busFramesDropped
                                       ? run.busFramesDropped - golden.busFramesDropped
                                       : 0;
  sig.busDropBucket = static_cast<std::size_t>(std::min<std::uint64_t>(extraDrops, 3));
  sig.nodesDown = run.nodesDownAtEnd.size();
  sig.masking = run.errorsMaskedByTem > 0;
  sig.failSilent = run.failSilentEvents > 0;
  sig.undetectedValue = run.undetectedValueDeliveries > 0;
  for (const ScheduleEvent& event : scenario.events) {
    std::size_t& bucket = sig.eventKindBuckets[static_cast<std::size_t>(event.kind)];
    bucket = std::min<std::size_t>(bucket + 1, 2);
  }
  return sig;
}

}  // namespace

OracleConfig resolveOracleConfig(OracleConfig config) {
  // The registered verifier configurations are immutable, so the derived
  // bounds are process-wide constants; computing them is not free (FT-RTA
  // fixed points), hence the static cache.
  if (config.e2eBoundNlftUs == 0) {
    static const std::int64_t nlftBound = [] {
      const auto bound = verify::computeEndToEndBound(verify::bbwNlftConfig());
      return bound ? bound->sampleToApply().us() : 0;
    }();
    config.e2eBoundNlftUs = nlftBound;
  }
  if (config.e2eBoundFsUs == 0) {
    static const std::int64_t fsBound = [] {
      const auto bound = verify::computeEndToEndBound(verify::bbwFailSilentConfig());
      return bound ? bound->sampleToApply().us() : 0;
    }();
    config.e2eBoundFsUs = fsBound;
  }
  return config;
}

std::size_t outcomeSeverity(fi::SystemOutcome outcome) {
  return static_cast<std::size_t>(outcome);
}

std::string ScenarioSignature::canonical() const {
  std::string line = outcome;
  line += '|';
  line += nodeType;
  line += stopped ? "|stopped" : "|unstopped";
  line += "|d" + std::to_string(distanceBucket);
  line += "|o" + std::to_string(omissionBucket);
  line += "|b" + std::to_string(busDropBucket);
  line += "|down" + std::to_string(nodesDown);
  line += masking ? "|tem" : "|-";
  line += failSilent ? "|fs" : "|-";
  line += undetectedValue ? "|val" : "|-";
  line += "|ev";
  for (const std::size_t bucket : eventKindBuckets) line += std::to_string(bucket);
  return line;
}

std::uint32_t ScenarioSignature::key() const {
  const std::string line = canonical();
  return util::crc32({reinterpret_cast<const std::uint8_t*>(line.data()), line.size()});
}

bbw::BbwSimResult GoldenCache::get(const ScenarioParams& params, std::int64_t horizonUs) {
  std::string key = nodeTypeName(params.nodeType);
  key += '|' + fmt(params.initialSpeedMps) + '|' + fmt(params.pedal) + '|' +
         std::to_string(params.restartTimeUs) + '|' + std::to_string(horizonUs);
  {
    std::lock_guard<std::mutex> lock{mutex_};
    const auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
  }
  const bbw::BbwSimResult golden = runScenarioSim(params, {}, horizonUs);
  std::lock_guard<std::mutex> lock{mutex_};
  return cache_.emplace(key, golden).first->second;
}

ScenarioVerdict evaluateScenario(const Scenario& scenario, const OracleConfig& config,
                                 GoldenCache* goldenCache) {
  ScenarioVerdict verdict;
  GoldenCache localCache;
  GoldenCache& cache = goldenCache != nullptr ? *goldenCache : localCache;

  const BbwSimResult golden = cache.get(scenario.params, config.horizonUs);
  verdict.goldenDistanceM = golden.stoppingDistanceM;
  if (!golden.stopped) return verdict;  // invalid: oracles are vacuous here
  verdict.valid = true;

  obs::Registry metrics;
  const BbwSimResult run =
      runScenarioSim(scenario.params, scenario.events, config.horizonUs, &metrics);
  const std::string fingerprint = metrics.goldenFingerprint();
  verdict.stoppingDistanceM = run.stoppingDistanceM;
  verdict.e2eMaxUs = metrics.gauge("e2e.latency.max_us");
  verdict.outcome = classifyOutcome(config, golden, run);
  verdict.signature = makeSignature(config, scenario, golden, run, verdict.outcome);

  // diff.e2e-bound: the static verifier's sample->apply bound must dominate
  // the measured worst end-to-end latency of this run.
  verdict.e2eBoundUs = scenario.params.nodeType == bbw::NodeType::Nlft
                           ? config.e2eBoundNlftUs
                           : config.e2eBoundFsUs;
  if (verdict.e2eBoundUs > 0 && verdict.e2eMaxUs > static_cast<double>(verdict.e2eBoundUs)) {
    verdict.violations.push_back(
        {"diff.e2e-bound",
         "measured e2e.latency.max_us " + fmt(verdict.e2eMaxUs) + " exceeds the static bound " +
             std::to_string(verdict.e2eBoundUs) + "us for the " +
             nodeTypeName(scenario.params.nodeType) + " deployment"});
  }

  // nlft.single-transient: one transient on the certified NLFT deployment
  // must never miss the stop (value failures are the documented coverage
  // gap and excluded by definition).
  if (scenario.params.nodeType == bbw::NodeType::Nlft && scenario.events.size() == 1 &&
      scenario.events.front().kind != EventKind::ValueFailure &&
      verdict.outcome == fi::SystemOutcome::MissedStop) {
    verdict.violations.push_back(
        {"nlft.single-transient",
         std::string{"single "} + describe(scenario.events.front().kind) + " on node " +
             std::to_string(scenario.events.front().node) + " at " +
             std::to_string(scenario.events.front().atUs) + "us produced a missed stop (" +
             fmt(run.stoppingDistanceM) + "m vs golden " + fmt(golden.stoppingDistanceM) + "m)"});
  }

  // meta.tem-monotone: the fail-silent twin of an NLFT scenario must not
  // fare strictly better, and must not report TEM maskings.
  if (config.checkTemMonotone && scenario.params.nodeType == bbw::NodeType::Nlft) {
    ScenarioParams fsParams = scenario.params;
    fsParams.nodeType = bbw::NodeType::FailSilent;
    const BbwSimResult fsGolden = cache.get(fsParams, config.horizonUs);
    if (fsGolden.stopped) {
      const BbwSimResult fsRun =
          runScenarioSim(fsParams, scenario.events, config.horizonUs);
      const fi::SystemOutcome fsOutcome = classifyOutcome(config, fsGolden, fsRun);
      if (outcomeSeverity(verdict.outcome) > outcomeSeverity(fsOutcome)) {
        verdict.violations.push_back(
            {"meta.tem-monotone",
             std::string{"TEM-enabled outcome '"} + fi::describe(verdict.outcome) +
                 "' is more severe than the TEM-disabled outcome '" + fi::describe(fsOutcome) +
                 "' on the same schedule"});
      }
      if (fsRun.errorsMaskedByTem > 0) {
        verdict.violations.push_back(
            {"meta.tem-monotone",
             "fail-silent run reports " + std::to_string(fsRun.errorsMaskedByTem) +
                 " TEM maskings — masking machinery active with TEM disabled"});
      }
    }
  }

  // det.replay: a straight twin run of the same scenario, with its own
  // registry, must reproduce the run's metrics fingerprint byte-for-byte.
  if (config.checkReplayDeterminism) {
    obs::Registry replayMetrics;
    (void)runScenarioSim(scenario.params, scenario.events, config.horizonUs, &replayMetrics);
    if (replayMetrics.goldenFingerprint() != fingerprint) {
      verdict.violations.push_back(
          {"det.replay",
           "metrics fingerprint differs between two straight runs of the same scenario — "
           "ambient nondeterminism"});
    }
  }

  return verdict;
}

std::function<bool(const Scenario&)> violatesOracle(std::string oracleId, OracleConfig config,
                                                    GoldenCache* goldenCache) {
  return [oracleId = std::move(oracleId), config,
          goldenCache](const Scenario& scenario) {
    const ScenarioVerdict verdict = evaluateScenario(scenario, config, goldenCache);
    for (const OracleViolation& violation : verdict.violations) {
      if (violation.oracle == oracleId) return true;
    }
    return false;
  };
}

}  // namespace nlft::fuzz
