// The one deterministic chunked campaign driver, runChunkedCampaign, shared
// by every Monte-Carlo style experiment runner (machine and system
// fault-injection campaigns, the scenario fuzzer, reliability estimation).
//
// Experiments are split into chunks; each chunk draws from its own RNG
// sub-stream (`Rng::fork(chunkIndex)` off the campaign seed, forked in chunk
// order) and accumulates into a chunk-local Stats. Chunk results merge in
// chunk order afterwards, so for a fixed (seed, chunkSize) the campaign
// statistics are bit-identical at EVERY thread count, including 1.
//
// Deferred per-chunk work: runOne may only sample into the accumulator and
// leave the execution to a finish hook that runs on the whole chunk before
// the merge (the machine campaigns sort a chunk's faults by injection time
// and fork them in that order).
//
// Sequential early stopping (docs/ESTIMATORS.md): a campaign can carry an
// EarlyStopRule that halts it once a target precision is reached. The stop
// decision is taken on CHUNK BOUNDARIES ONLY — the rule is evaluated on the
// merged prefix [0, k) for increasing k, and the campaign's result is the
// merge of chunks [0, k*) for the smallest satisfying k*. Because prefix
// contents and merge order are pure functions of (seed, chunkSize), the
// returned statistics stay bit-identical at every thread count; workers may
// speculatively execute chunks beyond k*, but those results are discarded
// deterministically.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/parallel_for.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace nlft::exec {

/// Histogram layout for per-chunk wall time (50 buckets over [0, 10] s).
inline constexpr obs::HistogramSpec kChunkSecondsSpec{0.0, 10.0, 50};

/// Sequential early-stopping rule. `shouldStop(prefix, items)` is evaluated
/// on every completed chunk prefix in increasing order (under a lock, so it
/// may be stateless or cheaply stateful); returning true freezes the
/// campaign result at that prefix. An empty callback disables stopping.
template <typename Stats>
struct EarlyStopRule {
  std::function<bool(const Stats& prefix, std::size_t items)> shouldStop;
  /// Never stop before this many experiments (guards tiny-sample CI math).
  std::size_t minItems = 0;
};

/// Result of a chunked campaign: the merged statistics plus how much of the
/// experiment budget they actually contain.
template <typename Stats>
struct ChunkedCampaignResult {
  Stats stats;
  std::size_t itemsUsed = 0;   ///< experiments included in `stats`
  std::size_t chunksUsed = 0;  ///< chunks included in `stats`
  bool stoppedEarly = false;
};

/// Optional behaviour of one chunked campaign; the default runs the whole
/// budget with no hook, no cancellation, no progress and no profile.
template <typename Stats>
struct ChunkedCampaignOptions {
  /// Sequential early stopping (empty `shouldStop` = run the whole budget).
  EarlyStopRule<Stats> stop;
  /// Runs after a chunk's last experiment, INSIDE the worker and BEFORE the
  /// chunk-order merge, so deferred per-chunk work (carried in the chunk
  /// accumulator itself) and the counters it folds into the accumulator
  /// still land in the deterministic merge.
  std::function<void(Stats&)> finishChunk;
  /// Cooperative cancellation: a cancelled campaign throws
  /// std::runtime_error("<what>: cancelled") rather than returning truncated
  /// statistics (an early-stopped campaign is NOT truncated: its prefix is a
  /// complete deterministic result).
  CancellationToken* cancel = nullptr;
  ProgressFn onProgress;
  /// Execution profiling: deterministic structure counters ("exec.items",
  /// "exec.chunks", "exec.early_stopped" — they reflect the chunks INCLUDED
  /// in the result, so they are identical at every thread count even when
  /// workers speculate past the stop boundary) plus non-golden "wall."
  /// metrics (per-chunk wall-time histogram, throughput, worker utilization
  /// — these do include speculative work).
  obs::Registry* profile = nullptr;
};

/// Runs `experiments` seeded experiments chunk by chunk, merging chunk-local
/// statistics in chunk order.
///
/// Stats must be default-constructible, copyable, expose a `std::size_t
/// experiments` member (set per chunk before the first experiment) and
/// `merge(const Stats&)`. `runOne(rng, stats)` samples (and usually
/// classifies) one experiment. A campaign that only samples in runOne and
/// executes the chunk's batch in `options.finishChunk` keeps the RNG stream
/// and the merged statistics bit-identical to per-experiment execution at
/// every thread count.
template <typename Stats, typename RunOne>
ChunkedCampaignResult<Stats> runChunkedCampaign(std::size_t experiments, std::uint64_t seed,
                                                const Parallelism& parallelism, const char* what,
                                                RunOne runOne,
                                                const ChunkedCampaignOptions<Stats>& options = {}) {
  const EarlyStopRule<Stats>& stop = options.stop;
  CancellationToken* const cancel = options.cancel;
  obs::Registry* const profile = options.profile;
  const std::size_t chunkSize = parallelism.resolvedChunkSize(experiments);
  const std::size_t chunks = chunkCount(experiments, chunkSize);
  util::Rng root{seed};
  std::vector<util::Rng> chunkRngs;
  chunkRngs.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) chunkRngs.push_back(root.fork(c));
  std::vector<Stats> accumulators(chunks);

  const auto itemsInChunk = [&](std::size_t c) {
    return std::min(experiments, (c + 1) * chunkSize) - c * chunkSize;
  };

  // Early-stop bookkeeping. The contiguous completed prefix is merged
  // incrementally (in chunk order, under the mutex) and the rule evaluated
  // at every new boundary; the first satisfying prefix wins. `stopToken`
  // stops workers from claiming chunks past the decision.
  const bool stoppable = static_cast<bool>(stop.shouldStop);
  std::mutex prefixMutex;
  std::vector<std::uint8_t> chunkDone(stoppable ? chunks : 0, 0);
  Stats prefixStats;
  std::size_t prefixChunks = 0;
  std::size_t prefixItems = 0;
  bool ruleFired = false;
  std::size_t stopChunk = chunks;
  CancellationToken stopToken;
  CancellationToken* runCancel = stoppable ? &stopToken : cancel;

  const util::MonotonicStopwatch campaignClock;
  std::atomic<double> busySeconds{0.0};

  const std::size_t processed = forEachChunk(
      experiments, parallelism,
      [&](const ChunkRange& range, unsigned) {
        if (stoppable && cancel != nullptr && cancel->cancelled()) {
          stopToken.requestCancel();
          return;
        }
        const util::MonotonicStopwatch chunkClock;
        util::Rng rng = chunkRngs[range.index];
        Stats& stats = accumulators[range.index];
        stats.experiments = range.end - range.begin;
        for (std::size_t i = range.begin; i < range.end; ++i) runOne(rng, stats);
        if (options.finishChunk) options.finishChunk(stats);
        if (profile != nullptr) {
          const double seconds = chunkClock.elapsedSeconds();
          busySeconds.fetch_add(seconds, std::memory_order_relaxed);
          profile->observe("wall.exec.chunk_seconds", kChunkSecondsSpec, seconds);
        }
        if (stoppable) {
          std::lock_guard<std::mutex> lock{prefixMutex};
          if (ruleFired) return;
          chunkDone[range.index] = 1;
          while (prefixChunks < chunks && chunkDone[prefixChunks] != 0) {
            prefixStats.merge(accumulators[prefixChunks]);
            prefixItems += itemsInChunk(prefixChunks);
            ++prefixChunks;
            if (prefixItems >= stop.minItems && stop.shouldStop(prefixStats, prefixItems)) {
              ruleFired = true;
              stopChunk = prefixChunks;
              stopToken.requestCancel();
              break;
            }
          }
        }
      },
      runCancel, {options.onProgress, 0.25});

  const bool callerCancelled = cancel != nullptr && cancel->cancelled();
  if (callerCancelled && !ruleFired) {
    throw std::runtime_error(std::string{what} + ": cancelled");
  }
  if (!stoppable && processed < experiments) {
    throw std::runtime_error(std::string{what} + ": cancelled");
  }

  ChunkedCampaignResult<Stats> result;
  result.stoppedEarly = ruleFired;
  result.chunksUsed = ruleFired ? stopChunk : chunks;
  if (stoppable) {
    // The incremental prefix merge holds exactly chunks [0, chunksUsed) in
    // chunk order — the full merge when the rule never fired (the last
    // completing chunk drives the prefix to the end), the frozen prefix
    // otherwise (workers stop touching it once the rule fires).
    result.stats = prefixStats;
    result.itemsUsed = prefixItems;
  } else {
    for (const Stats& chunk : accumulators) result.stats.merge(chunk);
    result.itemsUsed = experiments;
  }

  if (profile != nullptr) {
    profile->add("exec.campaigns");
    profile->add("exec.items", result.itemsUsed);
    profile->add("exec.chunks", result.chunksUsed);
    if (result.stoppedEarly) profile->add("exec.early_stopped");
    const double elapsed = campaignClock.elapsedSeconds();
    const unsigned workers = static_cast<unsigned>(
        std::min<std::size_t>(parallelism.resolvedThreads(), chunks == 0 ? 1 : chunks));
    profile->gaugeMax("wall.exec.threads", static_cast<double>(workers));
    profile->gaugeMax("wall.exec.campaign_seconds", elapsed);
    if (elapsed > 0.0) {
      profile->gaugeMax("wall.exec.items_per_second",
                        static_cast<double>(processed) / elapsed);
      profile->gaugeMax("wall.exec.worker_utilization",
                        busySeconds.load() / (elapsed * static_cast<double>(workers)));
    }
  }
  return result;
}

}  // namespace nlft::exec
