// Thread-safe metrics registry: named counters, gauges and fixed-bucket
// histograms, with chunk-order merge() for the parallel campaign reducers.
//
// Merge algebra (what makes per-chunk registries equal the single-threaded
// registry for ANY shard split):
//   * counters   add            — associative and commutative;
//   * gauges     take the max   — "peak observed" semantics (queue depth,
//                                 samples/s); associative and commutative;
//   * histograms add bin-wise   — specs must match; associative/commutative.
// All three operations are exact integer/IEEE-max arithmetic, so merging the
// same multiset of updates in any order or grouping is BIT-IDENTICAL to
// applying them serially. tests/obs_metrics_test.cpp property-checks this
// over randomized interleavings and shard splits. Histograms deliberately
// carry NO floating-point sum accumulator: double addition is not
// associative (regrouping drifts the last ulp), which would silently break
// the bit-identity guarantee the parallel campaign reducers rely on.
//
// Golden fencing: metric names under the "wall." prefix carry wall-clock
// derived values (chunk timings, throughput); names under "snap." carry
// deterministic engine counts that differ between execution modes (forks,
// splices). Both are excluded from goldenJson()/goldenFingerprint(), which
// is what the bit-identity tests and run-report reconciliation compare —
// everything else must be deterministic for a fixed seed, at every thread
// count and in every execution mode.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace nlft::obs {

/// Bucket layout of a fixed-width histogram over [lo, hi); samples outside
/// the range clamp to the first/last bucket (the total still increments).
struct HistogramSpec {
  double lo = 0.0;
  double hi = 1.0;
  std::size_t buckets = 10;
  friend bool operator==(const HistogramSpec&, const HistogramSpec&) = default;
};

/// The bucket `value` falls into under `spec` (out-of-range values clamp to
/// the first/last bucket). The one binning rule of every histogram: code that
/// pre-bins samples itself and hands the counts to Registry::addHistogram
/// lands them exactly where observe() would.
[[nodiscard]] std::size_t bucketIndex(const HistogramSpec& spec, double value);

/// Snapshot of one histogram (returned by Registry::histogram()).
struct HistogramSnapshot {
  HistogramSpec spec;
  std::vector<std::uint64_t> counts;  ///< size == spec.buckets
  std::uint64_t total = 0;            ///< sum of counts
};

/// True for metrics outside the golden subset: "wall." (host time) and
/// "snap." (deterministic engine counts that differ between execution
/// modes).
[[nodiscard]] bool isNonGoldenMetric(const std::string& name);

class Registry {
 public:
  Registry() = default;
  Registry(const Registry& other);
  Registry& operator=(const Registry& other);
  Registry(Registry&& other) noexcept;
  Registry& operator=(Registry&& other) noexcept;

  /// Adds `delta` to the named counter (created at 0 on first use).
  void add(const std::string& name, std::uint64_t delta = 1);

  /// Raises the named gauge to at least `value` (peak semantics; created at
  /// `value` on first use).
  void gaugeMax(const std::string& name, double value);

  /// Records `value` into the named histogram. The spec is fixed on first
  /// use; a later observe with a different spec throws std::invalid_argument.
  void observe(const std::string& name, const HistogramSpec& spec, double value);

  /// Adds pre-binned counts (one per bucket of `spec`, binned by
  /// bucketIndex) to the named histogram: the same result as one observe()
  /// per sample, in any order. Spec rules as for observe(); a count vector
  /// of the wrong length throws std::invalid_argument.
  void addHistogram(const std::string& name, const HistogramSpec& spec,
                    std::span<const std::uint64_t> counts);

  [[nodiscard]] std::uint64_t count(const std::string& name) const;  ///< 0 if absent
  [[nodiscard]] double gauge(const std::string& name) const;         ///< 0.0 if absent
  [[nodiscard]] bool hasCounter(const std::string& name) const;
  [[nodiscard]] HistogramSnapshot histogram(const std::string& name) const;  ///< throws if absent

  /// Sorted names per family.
  [[nodiscard]] std::vector<std::string> counterNames() const;
  [[nodiscard]] std::vector<std::string> gaugeNames() const;
  [[nodiscard]] std::vector<std::string> histogramNames() const;

  /// Folds `other` into this registry (counters add, gauges max, histograms
  /// add bin-wise; mismatched histogram specs throw).
  void merge(const Registry& other);

  void clear();

  /// Full JSON object: {"counters": {...}, "gauges": {...}, "histograms":
  /// {...}}. Deterministic (sorted names).
  [[nodiscard]] JsonValue toJson() const;

  /// As toJson() but with every non-golden ("wall." or "snap.") metric
  /// removed — the subset that must be bit-identical across thread counts
  /// and execution modes.
  [[nodiscard]] JsonValue goldenJson() const;

  /// dump() of goldenJson(): a comparable fingerprint string.
  [[nodiscard]] std::string goldenFingerprint() const;

 private:
  struct HistogramState {
    HistogramSpec spec;
    std::vector<std::uint64_t> counts;
    std::uint64_t total = 0;
  };

  /// The named histogram, created with `spec` on first use; throws on a bad
  /// or mismatched spec. Caller holds mutex_.
  HistogramState& histogramFor(const std::string& name, const HistogramSpec& spec,
                               const char* caller);

  mutable std::mutex mutex_;
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, HistogramState> histograms_;
};

}  // namespace nlft::obs
