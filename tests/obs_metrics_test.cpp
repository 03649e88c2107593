// Randomized property sweep over the obs::Registry merge algebra.
//
// The chunked-campaign reducers rely on one invariant: folding per-chunk
// registries together — in ANY grouping and ANY order — is bit-identical to
// applying the same multiset of updates to a single registry serially. The
// sweep below generates random update streams, shards them randomly, merges
// the shards under random permutations and random association trees, and
// compares full-JSON fingerprints (not just the golden subset: the algebra
// must hold for wall.* metrics too).
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace nlft::obs {
namespace {

using util::Rng;

// A small fixed vocabulary so shards genuinely collide on names.
const std::vector<std::string> kCounterNames{"tem.jobs", "bus.frames", "campaign.stops",
                                             "kernel.errors"};
const std::vector<std::string> kGaugeNames{"wall.items_per_second", "queue.peak", "wall.threads"};
const std::vector<std::string> kHistogramNames{"wall.chunk_seconds", "stop.distance_m"};
constexpr HistogramSpec kSpec{0.0, 50.0, 8};

/// One randomly generated registry update.
struct Update {
  enum class Kind : int { Counter, Gauge, Histogram } kind = Kind::Counter;
  std::string name;
  double value = 0.0;
  std::uint64_t delta = 0;
};

Update randomUpdate(Rng& rng) {
  Update u;
  u.kind = static_cast<Update::Kind>(rng.uniformInt(3));
  switch (u.kind) {
    case Update::Kind::Counter:
      u.name = kCounterNames[rng.uniformInt(kCounterNames.size())];
      u.delta = rng.uniformInt(100);
      break;
    case Update::Kind::Gauge:
      u.name = kGaugeNames[rng.uniformInt(kGaugeNames.size())];
      u.value = rng.uniform(-10.0, 1000.0);
      break;
    case Update::Kind::Histogram:
      u.name = kHistogramNames[rng.uniformInt(kHistogramNames.size())];
      u.value = rng.uniform(-5.0, 60.0);  // deliberately exceeds [lo, hi)
      break;
  }
  return u;
}

void apply(Registry& registry, const Update& u) {
  switch (u.kind) {
    case Update::Kind::Counter: registry.add(u.name, u.delta); break;
    case Update::Kind::Gauge: registry.gaugeMax(u.name, u.value); break;
    case Update::Kind::Histogram: registry.observe(u.name, kSpec, u.value); break;
  }
}

std::string fingerprint(const Registry& registry) { return registry.toJson().dump(); }

TEST(ObsMetricsProperty, MergedShardsEqualSerialApplicationForArbitrarySplits) {
  Rng root{2024};
  for (int round = 0; round < 60; ++round) {
    Rng rng = root.fork(static_cast<std::uint64_t>(round));
    const std::size_t updates = 1 + rng.uniformInt(200);
    const std::size_t shards = 1 + rng.uniformInt(8);

    Registry serial;
    std::vector<Registry> sharded(shards);
    for (std::size_t i = 0; i < updates; ++i) {
      const Update u = randomUpdate(rng);
      apply(serial, u);
      apply(sharded[rng.uniformInt(shards)], u);  // random interleaving
    }

    // Merge the shards in a random order.
    std::vector<std::size_t> order(shards);
    std::iota(order.begin(), order.end(), std::size_t{0});
    for (std::size_t i = shards; i > 1; --i)
      std::swap(order[i - 1], order[rng.uniformInt(i)]);
    Registry merged;
    for (const std::size_t s : order) merged.merge(sharded[s]);

    EXPECT_EQ(fingerprint(merged), fingerprint(serial)) << "round " << round;
  }
}

TEST(ObsMetricsProperty, MergeIsAssociative) {
  Rng root{7};
  for (int round = 0; round < 40; ++round) {
    Rng rng = root.fork(static_cast<std::uint64_t>(round));
    std::vector<Registry> parts(3);
    for (int i = 0; i < 120; ++i) apply(parts[rng.uniformInt(3)], randomUpdate(rng));

    // (a + b) + c
    Registry left;
    left.merge(parts[0]);
    left.merge(parts[1]);
    left.merge(parts[2]);
    // a + (b + c)
    Registry bc;
    bc.merge(parts[1]);
    bc.merge(parts[2]);
    Registry right;
    right.merge(parts[0]);
    right.merge(bc);

    EXPECT_EQ(fingerprint(left), fingerprint(right)) << "round " << round;
  }
}

TEST(ObsMetricsProperty, MergeIsCommutative) {
  Rng root{11};
  for (int round = 0; round < 40; ++round) {
    Rng rng = root.fork(static_cast<std::uint64_t>(round));
    std::vector<Registry> parts(2);
    for (int i = 0; i < 80; ++i) apply(parts[rng.uniformInt(2)], randomUpdate(rng));

    Registry ab;
    ab.merge(parts[0]);
    ab.merge(parts[1]);
    Registry ba;
    ba.merge(parts[1]);
    ba.merge(parts[0]);
    EXPECT_EQ(fingerprint(ab), fingerprint(ba)) << "round " << round;
  }
}

TEST(ObsMetricsProperty, HistogramBucketCountsSumToSampleCount) {
  Rng rng{99};
  Registry registry;
  std::uint64_t samples = 0;
  for (int i = 0; i < 5000; ++i) {
    registry.observe("h", kSpec, rng.uniform(-20.0, 80.0));  // many out-of-range
    ++samples;
  }
  const HistogramSnapshot snapshot = registry.histogram("h");
  ASSERT_EQ(snapshot.counts.size(), kSpec.buckets);
  const std::uint64_t bucketSum =
      std::accumulate(snapshot.counts.begin(), snapshot.counts.end(), std::uint64_t{0});
  EXPECT_EQ(bucketSum, samples);
  EXPECT_EQ(snapshot.total, samples);
}

// Pre-binned counts (bucketIndex + addHistogram) land exactly where one
// observe() per sample would, out-of-range samples included.
TEST(ObsMetricsProperty, PreBinnedCountsEqualPerSampleObserves) {
  Rng rng{7};
  Registry observed;
  Registry preBinned;
  for (int batch = 0; batch < 20; ++batch) {
    std::vector<std::uint64_t> bins(kSpec.buckets, 0);
    for (int i = 0; i < 100; ++i) {
      const double value = rng.uniform(-20.0, 80.0);
      observed.observe("h", kSpec, value);
      ++bins[bucketIndex(kSpec, value)];
    }
    preBinned.addHistogram("h", kSpec, bins);
  }
  EXPECT_EQ(preBinned.goldenFingerprint(), observed.goldenFingerprint());
  EXPECT_THROW(preBinned.addHistogram("h", kSpec, std::vector<std::uint64_t>(3, 0)),
               std::invalid_argument);
  EXPECT_THROW(preBinned.addHistogram("h", HistogramSpec{0.0, 50.0, 3},
                                      std::vector<std::uint64_t>(3, 0)),
               std::invalid_argument);
}

TEST(ObsMetrics, CounterGaugeBasics) {
  Registry registry;
  EXPECT_EQ(registry.count("absent"), 0u);
  EXPECT_FALSE(registry.hasCounter("absent"));
  registry.add("c");
  registry.add("c", 4);
  EXPECT_EQ(registry.count("c"), 5u);
  EXPECT_TRUE(registry.hasCounter("c"));

  registry.gaugeMax("g", 2.5);
  registry.gaugeMax("g", 1.0);  // lower: ignored (peak semantics)
  EXPECT_DOUBLE_EQ(registry.gauge("g"), 2.5);
  registry.gaugeMax("g", 7.25);
  EXPECT_DOUBLE_EQ(registry.gauge("g"), 7.25);
}

TEST(ObsMetrics, HistogramSpecMismatchThrows) {
  Registry registry;
  registry.observe("h", kSpec, 1.0);
  EXPECT_THROW(registry.observe("h", HistogramSpec{0.0, 50.0, 9}, 1.0), std::invalid_argument);
  Registry other;
  other.observe("h", HistogramSpec{0.0, 10.0, 8}, 1.0);
  EXPECT_THROW(registry.merge(other), std::invalid_argument);
}

TEST(ObsMetrics, SelfMergeThrows) {
  Registry registry;
  registry.add("c");
  EXPECT_THROW(registry.merge(registry), std::invalid_argument);
}

TEST(ObsMetrics, MismatchedHistogramSpecsAreRejectedWithBothLayouts) {
  Registry a;
  a.observe("e2e.latency", HistogramSpec{0.0, 50000.0, 50}, 100.0);
  Registry b;
  b.observe("e2e.latency", HistogramSpec{0.0, 25000.0, 40}, 100.0);

  // merge(): the diagnostic must carry the metric name and BOTH bin-edge
  // layouts — a silent merge of mismatched edges would corrupt every
  // percentile downstream.
  try {
    a.merge(b);
    FAIL() << "merge of mismatched specs did not throw";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("e2e.latency"), std::string::npos) << message;
    EXPECT_NE(message.find("[0, 50000) / 50 bins"), std::string::npos) << message;
    EXPECT_NE(message.find("[0, 25000) / 40 bins"), std::string::npos) << message;
  }

  // observe() with a drifted spec on an existing histogram: same contract.
  try {
    a.observe("e2e.latency", HistogramSpec{0.0, 50000.0, 25}, 1.0);
    FAIL() << "observe with mismatched spec did not throw";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("registered [0, 50000) / 50 bins"), std::string::npos) << message;
    EXPECT_NE(message.find("observed [0, 50000) / 25 bins"), std::string::npos) << message;
  }

  // The failed merge must not have corrupted the target.
  EXPECT_EQ(a.histogram("e2e.latency").total, 1u);
}

TEST(ObsMetrics, GoldenFingerprintExcludesWallMetrics) {
  Registry a;
  a.add("tem.jobs", 10);
  a.gaugeMax("wall.items_per_second", 123.0);
  a.observe("wall.chunk_seconds", kSpec, 0.25);
  Registry b;
  b.add("tem.jobs", 10);
  b.gaugeMax("wall.items_per_second", 9999.0);  // different wall clock
  EXPECT_NE(fingerprint(a), fingerprint(b));
  EXPECT_EQ(a.goldenFingerprint(), b.goldenFingerprint());
  EXPECT_TRUE(isNonGoldenMetric("wall.anything"));
  EXPECT_FALSE(isNonGoldenMetric("tem.jobs"));
}

TEST(ObsMetrics, GoldenFingerprintExcludesModeDependentSnapCounters) {
  // "snap." counters are deterministic but differ between execution modes
  // (a forked and spliced campaign simulates fewer events than a straight
  // one), so they are fenced like host time.
  Registry straight;
  straight.add("tem.jobs", 10);
  straight.add("snap.sys.simulated_cycles", 5000);
  Registry spliced;
  spliced.add("tem.jobs", 10);
  spliced.add("snap.sys.simulated_cycles", 1200);
  spliced.add("snap.sys.resume_points", 7);
  EXPECT_NE(fingerprint(straight), fingerprint(spliced));
  EXPECT_EQ(straight.goldenFingerprint(), spliced.goldenFingerprint());
  EXPECT_TRUE(isNonGoldenMetric("snap.sys.resume_points"));
  EXPECT_FALSE(isNonGoldenMetric("snapshot.count"));  // the fence is the "snap." prefix
  EXPECT_FALSE(isNonGoldenMetric("sim.snap.x"));
}

}  // namespace
}  // namespace nlft::obs
