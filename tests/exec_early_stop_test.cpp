// Sequential early stopping in exec::runChunkedCampaign: the stop decision
// is taken on chunk boundaries only, so a stopped campaign returns a
// deterministic prefix of the full run — bit-identical at every thread
// count (docs/ESTIMATORS.md describes the contract), also when a chunk
// finish hook executes deferred per-chunk work.
#include "exec/chunked_campaign.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace nlft::exec {
namespace {

struct SumStats {
  std::size_t experiments = 0;
  double sum = 0.0;
  std::size_t n = 0;

  void merge(const SumStats& other) {
    experiments += other.experiments;
    sum += other.sum;
    n += other.n;
  }
};

void runOne(util::Rng& rng, SumStats& stats) {
  stats.sum += rng.uniform01();
  ++stats.n;
}

constexpr std::uint64_t kSeed = 99;

ChunkedCampaignResult<SumStats> runWithRule(std::size_t experiments, unsigned threads,
                                            std::size_t chunkSize,
                                            const EarlyStopRule<SumStats>& rule,
                                            CancellationToken* cancel = nullptr) {
  Parallelism parallelism;
  parallelism.threads = threads;
  parallelism.chunkSize = chunkSize;
  ChunkedCampaignOptions<SumStats> options;
  options.stop = rule;
  options.cancel = cancel;
  return runChunkedCampaign<SumStats>(experiments, kSeed, parallelism, "test", runOne, options);
}

TEST(EarlyStop, StopsOnChunkBoundaryOncePredicateHolds) {
  EarlyStopRule<SumStats> rule;
  rule.shouldStop = [](const SumStats&, std::size_t items) { return items >= 300; };
  const auto result = runWithRule(1000, 1, 50, rule);
  EXPECT_TRUE(result.stoppedEarly);
  EXPECT_EQ(result.itemsUsed, 300u);  // first boundary satisfying the rule
  EXPECT_EQ(result.chunksUsed, 6u);
  EXPECT_EQ(result.stats.n, 300u);
  EXPECT_EQ(result.stats.experiments, 300u);
}

TEST(EarlyStop, StoppedResultIsBitIdenticalToShorterCampaign) {
  // A campaign stopped at 300 items must equal, bit for bit, a campaign
  // whose whole budget is 300 items (same seed, same chunk size): early
  // stopping returns a prefix, never a differently sampled run.
  EarlyStopRule<SumStats> rule;
  rule.shouldStop = [](const SumStats&, std::size_t items) { return items >= 300; };
  const auto stopped = runWithRule(1000, 1, 50, rule);
  const auto shortRun = runWithRule(300, 1, 50, {});
  EXPECT_EQ(stopped.stats.n, shortRun.stats.n);
  EXPECT_EQ(stopped.stats.sum, shortRun.stats.sum);  // exact double equality
}

TEST(EarlyStop, BitIdenticalAcrossThreadCounts) {
  EarlyStopRule<SumStats> rule;
  rule.shouldStop = [](const SumStats& prefix, std::size_t) { return prefix.sum >= 120.0; };
  const auto serial = runWithRule(2000, 1, 25, rule);
  ASSERT_TRUE(serial.stoppedEarly);
  for (unsigned threads : {2u, 8u}) {
    const auto parallel = runWithRule(2000, threads, 25, rule);
    EXPECT_EQ(parallel.itemsUsed, serial.itemsUsed) << "threads=" << threads;
    EXPECT_EQ(parallel.chunksUsed, serial.chunksUsed) << "threads=" << threads;
    EXPECT_EQ(parallel.stats.sum, serial.stats.sum) << "threads=" << threads;
    EXPECT_EQ(parallel.stats.n, serial.stats.n) << "threads=" << threads;
  }
}

TEST(EarlyStop, MinItemsDefersTheDecision) {
  EarlyStopRule<SumStats> rule;
  rule.shouldStop = [](const SumStats&, std::size_t) { return true; };  // eager
  rule.minItems = 101;
  const auto result = runWithRule(1000, 1, 50, rule);
  EXPECT_TRUE(result.stoppedEarly);
  // First boundary at or past minItems: 150, not 50.
  EXPECT_EQ(result.itemsUsed, 150u);
}

TEST(EarlyStop, UnreachableRuleRunsTheFullBudget) {
  EarlyStopRule<SumStats> rule;
  rule.shouldStop = [](const SumStats&, std::size_t) { return false; };
  const auto result = runWithRule(400, 2, 25, rule);
  EXPECT_FALSE(result.stoppedEarly);
  EXPECT_EQ(result.itemsUsed, 400u);
  EXPECT_EQ(result.stats.n, 400u);
  // And equals the plain (rule-free) campaign bit for bit.
  const auto plain = runWithRule(400, 1, 25, {});
  EXPECT_EQ(result.stats.sum, plain.stats.sum);
}

TEST(EarlyStop, CallerCancellationStillThrows) {
  CancellationToken cancel;
  cancel.requestCancel();
  EarlyStopRule<SumStats> rule;
  rule.shouldStop = [](const SumStats&, std::size_t items) { return items >= 1000000; };
  EXPECT_THROW((void)runWithRule(1000, 2, 50, rule, &cancel), std::runtime_error);
}

/// Accumulator whose runOne only samples: the draws wait in `pending` and
/// the chunk finish hook sums them, counting the chunks and items it saw.
struct DeferredStats {
  std::size_t experiments = 0;
  std::vector<double> pending;
  double sum = 0.0;
  std::size_t hookChunks = 0;
  std::size_t hookItems = 0;

  void merge(const DeferredStats& other) {
    experiments += other.experiments;
    sum += other.sum;
    hookChunks += other.hookChunks;
    hookItems += other.hookItems;
  }
};

ChunkedCampaignResult<DeferredStats> runDeferred(unsigned threads) {
  Parallelism parallelism;
  parallelism.threads = threads;
  parallelism.chunkSize = 25;
  ChunkedCampaignOptions<DeferredStats> options;
  options.stop.shouldStop = [](const DeferredStats& prefix, std::size_t) {
    return prefix.sum >= 120.0;
  };
  options.finishChunk = [](DeferredStats& chunk) {
    for (const double draw : chunk.pending) chunk.sum += draw;
    ++chunk.hookChunks;
    chunk.hookItems += chunk.pending.size();
    chunk.pending.clear();
  };
  return runChunkedCampaign<DeferredStats>(
      2000, kSeed, parallelism, "test",
      [](util::Rng& rng, DeferredStats& stats) { stats.pending.push_back(rng.uniform01()); },
      options);
}

TEST(EarlyStop, FinishHookAndStopRuleComposeDeterministically) {
  // The rule sees prefixes the hook has already finished, and only the
  // included chunks' hook counters reach the result.
  const auto serial = runDeferred(1);
  ASSERT_TRUE(serial.stoppedEarly);
  EXPECT_EQ(serial.stats.hookChunks, serial.chunksUsed);
  EXPECT_EQ(serial.stats.hookItems, serial.itemsUsed);
  EXPECT_EQ(serial.stats.experiments, serial.itemsUsed);

  // Deferring the work changes nothing: the same rule on per-experiment
  // sums stops at the same boundary with the same bits.
  EarlyStopRule<SumStats> rule;
  rule.shouldStop = [](const SumStats& prefix, std::size_t) { return prefix.sum >= 120.0; };
  const auto direct = runWithRule(2000, 1, 25, rule);
  EXPECT_EQ(serial.itemsUsed, direct.itemsUsed);
  EXPECT_EQ(serial.stats.sum, direct.stats.sum);

  for (const unsigned threads : {2u, 8u}) {
    SCOPED_TRACE(threads);
    const auto parallel = runDeferred(threads);
    EXPECT_TRUE(parallel.stoppedEarly);
    EXPECT_EQ(parallel.itemsUsed, serial.itemsUsed);
    EXPECT_EQ(parallel.chunksUsed, serial.chunksUsed);
    EXPECT_EQ(parallel.stats.sum, serial.stats.sum);  // exact double equality
    EXPECT_EQ(parallel.stats.hookChunks, serial.chunksUsed);
    EXPECT_EQ(parallel.stats.hookItems, serial.itemsUsed);
  }
}

}  // namespace
}  // namespace nlft::exec
