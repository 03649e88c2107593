// Shared pieces of the benchmark: the report every run prints, the
// workload configurations, timing and statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "faults/campaign.hpp"
#include "faults/system_campaign.hpp"
#include "sysmodel/importance.hpp"
#include "sysmodel/montecarlo.hpp"

namespace perfbench {

using namespace nlft;

struct Options {
  std::string workload;
  std::uint64_t seed = 20;
  double seconds = 10.0;
  bool trace = false;
  std::string traceOut;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run prints: named metrics plus the call accounting behind
/// `failed_ratio` (a call fails if it throws or its output check fails).
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit);
  /// Counts one checked call; prints the reason when it failed.
  void call(bool ok, const std::string& what);
};

/// Worker threads of every timed campaign call.
inline constexpr unsigned kTimedThreads = 2;

class Stopwatch {
 public:
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_ = std::chrono::steady_clock::now();
};

[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1].
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] double peakRssMb();
/// Process CPU time (user + system) in seconds.
[[nodiscard]] double processCpuSeconds();
/// Independent per-call seeds derived from the run seed (splitmix64).
[[nodiscard]] std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t stream);

// ---- workload configurations (shared by timed runs and the traced run) ----

/// `fi::runSystemCampaign` as bench/system_fi_campaign runs it: default
/// scenario mix, NLFT nodes, ExecutionMode::Auto.
[[nodiscard]] fi::SystemCampaignConfig systemConfig(std::uint64_t seed, std::size_t experiments,
                                                    unsigned threads);
/// Machine-level TEM/FS campaign in ExecutionMode::Auto (copy-on-inject).
[[nodiscard]] fi::CampaignConfig machineConfig(std::uint64_t seed, std::size_t experiments,
                                               unsigned threads);
/// The BBW degraded system: CU 2/1, wheel nodes 4/3, NLFT nodes.
[[nodiscard]] sys::SystemSpec degradedSpec();
/// Boosts of bench/rare_event_speedup for the 48 h rare event.
[[nodiscard]] sys::ImportanceSamplingConfig rareEventBias();
inline constexpr double kRareEventHorizonHours = 48.0;
[[nodiscard]] sys::MonteCarloConfig monteCarloConfig(std::uint64_t seed, std::size_t trials,
                                                     double horizonHours, unsigned threads);

/// Every guest image of bbw::guestPrograms(), in registry order.
[[nodiscard]] std::vector<fi::TaskImage> guestImages();

// ---- output checks ----

/// system-mixed: outcomes sum to the experiments, per-kind rows sum to the
/// totals and, with a registry, the campaign.* counters reconcile 1:1 with
/// the statistics. Returns an empty string when the output is consistent.
[[nodiscard]] std::string checkSystemStats(const fi::SystemCampaignStats& stats,
                                           std::size_t experiments,
                                           const obs::Registry* metrics);
/// machine-fi: the outcome classes of both campaigns sum to the experiments.
[[nodiscard]] std::string checkMachineStats(const fi::TemCampaignStats& tem,
                                            const fi::FsCampaignStats& fs,
                                            std::size_t experiments);

/// machine-fi outcome classes, TEM then FS, comma-separated (pinned
/// reference and thread-count comparisons).
[[nodiscard]] std::string machineStatsText(const fi::TemCampaignStats& tem,
                                           const fi::FsCampaignStats& fs);

// ---- entry points ----

[[nodiscard]] Report runSystemMixed(const Options& options);
[[nodiscard]] Report runMachineFi(const Options& options);
[[nodiscard]] Report runReliabilityMc(const Options& options);
/// The traced run: every per-layer metric and the system-mixed layer shares.
[[nodiscard]] Report runLedger(const Options& options);

}  // namespace perfbench
