#include "sysmodel/montecarlo.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "exec/chunked_campaign.hpp"
#include "sysmodel/lifetime_model.hpp"
#include "util/time.hpp"

namespace nlft::sys {

double simulateLifetime(const SystemSpec& spec, double horizonHours, util::Rng& rng) {
  detail::NominalDraws draws{rng};
  return detail::simulateLifetimeImpl(spec, horizonHours, draws);
}

namespace {

/// Per-chunk accumulator for estimateReliability, mergeable in chunk order.
struct ReliabilityChunk {
  std::size_t experiments = 0;
  std::vector<std::size_t> survivors;  ///< per checkpoint
  std::size_t failures = 0;
  util::RunningStats failureTimes;

  void merge(const ReliabilityChunk& other) {
    experiments += other.experiments;
    failures += other.failures;
    failureTimes.merge(other.failureTimes);
    if (other.survivors.empty()) return;
    if (survivors.empty()) survivors.assign(other.survivors.size(), 0);
    for (std::size_t c = 0; c < survivors.size(); ++c) survivors[c] += other.survivors[c];
  }
};

}  // namespace

MonteCarloResult estimateReliability(const SystemSpec& spec, const MonteCarloConfig& config) {
  if (config.checkpointHours.empty())
    throw std::invalid_argument("estimateReliability: no checkpoints");
  const util::MonotonicStopwatch clock;
  const double horizon =
      *std::max_element(config.checkpointHours.begin(), config.checkpointHours.end());
  const std::size_t checkpointCount = config.checkpointHours.size();

  exec::ChunkedCampaignOptions<ReliabilityChunk> options;
  options.cancel = config.cancel;
  options.onProgress = config.onProgress;
  if (config.target.ciHalfWidth > 0.0) {
    options.stop.minItems = std::max<std::size_t>(config.target.minTrials, 1);
    options.stop.shouldStop = [&config](const ReliabilityChunk& prefix, std::size_t items) {
      if (prefix.survivors.empty()) return false;
      for (const std::size_t survivors : prefix.survivors) {
        const util::ProportionEstimate est = util::wilsonInterval(survivors, items);
        if ((est.high - est.low) / 2.0 > config.target.ciHalfWidth) return false;
      }
      return true;
    };
  }

  const auto run = exec::runChunkedCampaign<ReliabilityChunk>(
      config.trials, config.seed, config.parallelism, "estimateReliability",
      [&](util::Rng& rng, ReliabilityChunk& acc) {
        if (acc.survivors.empty()) acc.survivors.assign(checkpointCount, 0);
        const double failedAt = simulateLifetime(spec, horizon, rng);
        if (failedAt < horizon) {
          ++acc.failures;
          acc.failureTimes.add(failedAt);
        }
        for (std::size_t c = 0; c < checkpointCount; ++c) {
          if (failedAt >= config.checkpointHours[c]) ++acc.survivors[c];
        }
      },
      options);

  MonteCarloResult result;
  result.trials = run.itemsUsed;
  result.stoppedEarly = run.stoppedEarly;
  result.failuresWithinHorizon = run.stats.failures;
  result.failureTimes = run.stats.failureTimes;
  const std::vector<std::size_t>& survivors = run.stats.survivors;
  for (std::size_t c = 0; c < checkpointCount; ++c) {
    ReliabilityEstimate estimate;
    estimate.tHours = config.checkpointHours[c];
    const std::size_t up = survivors.empty() ? 0 : survivors[c];
    estimate.reliability = util::wilsonInterval(up, run.itemsUsed);
    result.checkpoints.push_back(estimate);
  }
  if (config.metrics != nullptr) {
    config.metrics->add("mc.estimations");
    config.metrics->add("mc.trials", result.trials);
    config.metrics->add("mc.failures_within_horizon", result.failuresWithinHorizon);
    if (result.stoppedEarly) config.metrics->add("mc.early_stopped");
    const double elapsed = clock.elapsedSeconds();
    config.metrics->gaugeMax("wall.mc.seconds", elapsed);
    if (elapsed > 0.0) {
      config.metrics->gaugeMax("wall.mc.samples_per_second",
                               static_cast<double>(result.trials) / elapsed);
    }
  }
  return result;
}

namespace {

struct MttfChunk {
  std::size_t experiments = 0;
  util::RunningStats lifetimes;

  void merge(const MttfChunk& other) {
    experiments += other.experiments;
    lifetimes.merge(other.lifetimes);
  }
};

}  // namespace

util::RunningStats estimateMttf(const SystemSpec& spec, std::size_t trials, std::uint64_t seed,
                                const exec::Parallelism& parallelism) {
  const double effectivelyForever = std::numeric_limits<double>::infinity();
  return exec::runChunkedCampaign<MttfChunk>(
             trials, seed, parallelism, "estimateMttf",
             [&](util::Rng& rng, MttfChunk& acc) {
               acc.lifetimes.add(simulateLifetime(spec, effectivelyForever, rng));
             })
      .stats.lifetimes;
}

}  // namespace nlft::sys
