// The three timed workloads. Each run sets up several times (median set-up
// time), then issues closed-batch campaign calls at kTimedThreads workers
// until the run's time is up, and reports the median per-call throughput.
// Every call's output is checked; a pinned reference call checks that the
// library still produces the recorded statistics.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <functional>
#include <span>

#include "analysis/analyzer.hpp"
#include "bbw/guest_programs.hpp"
#include "bbw/markov_models.hpp"
#include "bench.hpp"
#include "hw/assembler.hpp"
#include "obs/metrics.hpp"
#include "util/crc.hpp"
#include "util/statistics.hpp"
#include "util/time.hpp"

namespace perfbench {

// ---- helpers ---------------------------------------------------------------

void Report::add(std::string name, double value, std::string unit) {
  metrics.push_back({std::move(name), value, std::move(unit)});
}

void Report::call(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::printf("CHECK FAILED: %s\n", what.c_str());
  }
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double peakRssMb() {
  // VmHWM is the high-water mark of this process image. getrusage's
  // ru_maxrss is not used: Linux carries it over from the parent across
  // exec, so it would report the launching interpreter's footprint.
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(status);
  return kib / 1024.0;
}

double processCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto toSeconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return toSeconds(usage.ru_utime) + toSeconds(usage.ru_stime);
}

std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t x = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

fi::SystemCampaignConfig systemConfig(std::uint64_t seed, std::size_t experiments,
                                      unsigned threads) {
  fi::SystemCampaignConfig config;
  config.experiments = experiments;
  config.seed = seed;
  config.nodeType = bbw::NodeType::Nlft;
  config.mode = fi::ExecutionMode::Auto;
  config.parallelism.threads = threads;
  return config;
}

fi::CampaignConfig machineConfig(std::uint64_t seed, std::size_t experiments, unsigned threads) {
  fi::CampaignConfig config;
  config.experiments = experiments;
  config.seed = seed;
  config.mode = fi::ExecutionMode::Auto;
  config.parallelism.threads = threads;
  return config;
}

sys::SystemSpec degradedSpec() {
  sys::SystemSpec spec;
  spec.behavior = sys::NodeBehavior::Nlft;
  spec.groups = {{"cu", 2, 1}, {"wns", 4, 3}};
  return spec;
}

sys::ImportanceSamplingConfig rareEventBias() {
  sys::ImportanceSamplingConfig bias;
  bias.arrivalBoost = 15.0;
  bias.uncoveredBoost = 5.0;
  return bias;
}

sys::MonteCarloConfig monteCarloConfig(std::uint64_t seed, std::size_t trials,
                                       double horizonHours, unsigned threads) {
  sys::MonteCarloConfig config;
  config.trials = trials;
  config.seed = seed;
  config.checkpointHours = {horizonHours};
  config.parallelism.threads = threads;
  return config;
}

std::vector<fi::TaskImage> guestImages() {
  std::vector<fi::TaskImage> images;
  for (const bbw::GuestProgram& program : bbw::guestPrograms()) {
    images.push_back(program.makeNominalImage());
  }
  return images;
}

std::string checkSystemStats(const fi::SystemCampaignStats& stats, std::size_t experiments,
                             const obs::Registry* metrics) {
  std::size_t total = 0;
  for (std::size_t o = 0; o < fi::kSystemOutcomeCount; ++o) {
    std::size_t byKind = 0;
    for (std::size_t k = 0; k < fi::kScenarioKindCount; ++k) byKind += stats.outcomesByKind[k][o];
    if (byKind != stats.outcomes[o]) return "per-kind outcomes do not sum to the totals";
    total += stats.outcomes[o];
  }
  if (stats.experiments != experiments || total != experiments) {
    return "outcomes sum to " + std::to_string(total) + ", expected " +
           std::to_string(experiments);
  }
  if (stats.skippedMasked > stats.outcome(fi::SystemOutcome::Masked)) {
    return "more skipped-masked experiments than masked outcomes";
  }
  if (metrics == nullptr) return {};
  const std::pair<const char*, std::size_t> reconcile[] = {
      {"campaign.experiments", stats.experiments},
      {"campaign.stops", stats.stops},
      {"campaign.skipped_masked", stats.skippedMasked},
      {"campaign.node.injected", stats.nodeLevel.injected},
      {"campaign.node.not_activated", stats.nodeLevel.notActivated},
      {"campaign.node.masked_by_ecc", stats.nodeLevel.maskedByEcc},
      {"campaign.node.masked", stats.nodeLevel.masked},
      {"campaign.node.omission", stats.nodeLevel.omission},
      {"campaign.node.fail_silent", stats.nodeLevel.failSilent},
      {"campaign.node.undetected", stats.nodeLevel.undetected},
      {"exec.items", stats.experiments},
  };
  for (const auto& [name, expected] : reconcile) {
    if (metrics->count(name) != expected) {
      return std::string{name} + " = " + std::to_string(metrics->count(name)) +
             " does not reconcile with the statistics (" + std::to_string(expected) + ")";
    }
  }
  for (std::size_t o = 0; o < fi::kSystemOutcomeCount; ++o) {
    const std::string name =
        std::string{"campaign.outcome."} + fi::describe(static_cast<fi::SystemOutcome>(o));
    if (metrics->count(name) != stats.outcomes[o]) {
      return name + " does not reconcile with the statistics";
    }
  }
  return {};
}

std::string checkMachineStats(const fi::TemCampaignStats& tem, const fi::FsCampaignStats& fs,
                              std::size_t experiments) {
  const std::size_t temTotal = tem.notActivated + tem.maskedByEcc + tem.maskedByVote +
                               tem.maskedByRestart + tem.omissionVoteFailed +
                               tem.omissionNoBudget + tem.undetected;
  if (tem.experiments != experiments || temTotal != experiments) {
    return "TEM outcome classes sum to " + std::to_string(temTotal) + ", expected " +
           std::to_string(experiments);
  }
  const std::size_t fsTotal =
      fs.notActivated + fs.maskedByEcc + fs.failSilent + fs.detectedByEndToEnd + fs.undetected;
  if (fs.experiments != experiments || fsTotal != experiments) {
    return "FS outcome classes sum to " + std::to_string(fsTotal) + ", expected " +
           std::to_string(experiments);
  }
  return {};
}

std::string machineStatsText(const fi::TemCampaignStats& tem,
                             const fi::FsCampaignStats& fs) {
  std::string text;
  for (const std::size_t c : {tem.notActivated, tem.maskedByEcc, tem.maskedByVote,
                              tem.maskedByRestart, tem.omissionVoteFailed, tem.omissionNoBudget,
                              tem.undetected, fs.notActivated, fs.maskedByEcc, fs.failSilent,
                              fs.detectedByEndToEnd, fs.undetected}) {
    text += std::to_string(c) + ",";
  }
  return text;
}

namespace {

/// Runs `body` and turns an exception into a failed check.
std::string guarded(const std::function<std::string()>& body) {
  try {
    return body();
  } catch (const std::exception& error) {
    return std::string{"threw: "} + error.what();
  }
}

/// A run's two timed quantities.
struct Timing {
  double throughput = 0.0;    ///< median items per second over the calls
  double setupSeconds = 0.0;  ///< median time of one set-up
};

/// Issues campaign calls until `seconds` have passed (at least three calls).
/// Before every call it sets up again, repeating `setup` for at least one
/// repetition and kSetupSliceSeconds (at most kMaxSetupsPerSlice times), so
/// set-up samples are spread over the whole run like the calls are, and
/// short set-ups are still a median of many samples. `call(index, items)`
/// runs one checked call, sets the items it finished and returns a problem
/// or "". Each set-up slice counts as one checked call.
Timing timedCalls(Report& report, const char* what, double seconds,
                  const std::function<std::string()>& setup,
                  const std::function<std::string(std::size_t, std::size_t&)>& call) {
  constexpr double kSetupSliceSeconds = 0.02;
  constexpr std::size_t kMaxSetupsPerSlice = 200;
  std::vector<double> rates;
  std::vector<double> setups;
  const Stopwatch run;
  for (std::size_t index = 0; index < 3 || run.seconds() < seconds; ++index) {
    std::string setupProblem;
    const Stopwatch slice;
    for (std::size_t rep = 0;
         rep == 0 || (slice.seconds() < kSetupSliceSeconds && rep < kMaxSetupsPerSlice); ++rep) {
      const Stopwatch clock;
      const std::string problem = guarded(setup);
      setups.push_back(clock.seconds());
      if (setupProblem.empty()) setupProblem = problem;
    }
    report.call(setupProblem.empty(), std::string{what} + " set-up: " + setupProblem);

    std::size_t items = 0;
    const Stopwatch clock;
    const std::string problem = guarded([&] { return call(index, items); });
    const double elapsed = clock.seconds();
    report.call(problem.empty(), std::string{what} + " call " + std::to_string(index) + ": " +
                                     problem);
    if (problem.empty()) rates.push_back(static_cast<double>(items) / elapsed);
    std::printf("  call %zu: %zu items in %.3f s (%.1f items/s)\n", index, items, elapsed,
                static_cast<double>(items) / elapsed);
  }
  std::printf("  set-up: median of %zu repetitions\n", setups.size());
  return {median(rates), median(setups)};
}

void addEndToEnd(Report& report, const Timing& timing) {
  report.add("throughput_per_s", timing.throughput, "1/s");
  report.add("setup_s", timing.setupSeconds, "s");
  report.add("peak_rss_mb", peakRssMb(), "MB");
}

// ---- system-mixed ----------------------------------------------------------

constexpr std::size_t kStopsPerCall = 200;

/// Pinned reference: 48 stops at seed 20, 2 threads (the statistics are
/// thread-count invariant): outcomes, stops, skipped-masked and node-level
/// counts as systemStatsText() prints them, and the CRC-32 of the metrics
/// goldenFingerprint(). Recorded from the library at the time the benchmark
/// was defined; a behaviour change must update them on purpose.
constexpr std::uint64_t kPinnedSystemSeed = 20;
constexpr std::size_t kPinnedSystemStops = 48;
constexpr const char* kPinnedSystemStats = "34,4,7,0,3,48,27,34,23,4,7,0,0,0,";
constexpr std::uint32_t kPinnedSystemFingerprintCrc = 0xf2cbcb02;

std::string systemStatsText(const fi::SystemCampaignStats& stats) {
  std::string text;
  for (const std::size_t o : stats.outcomes) text += std::to_string(o) + ",";
  text += std::to_string(stats.stops) + "," + std::to_string(stats.skippedMasked) + ",";
  const fi::NodeLevelCounts& n = stats.nodeLevel;
  for (const std::size_t c : {n.injected, n.notActivated, n.maskedByEcc, n.masked, n.omission,
                              n.failSilent, n.undetected}) {
    text += std::to_string(c) + ",";
  }
  return text;
}

std::string systemSetup() {
  for (const bbw::GuestProgram& program : bbw::guestPrograms()) {
    const hw::Program assembled = hw::assemble(program.source);
    if (assembled.words.empty()) return "guest program " + program.name + " assembled empty";
    const fi::TaskImage image = program.makeNominalImage();
    if (!analysis::analyzeImage(image).clean()) return "guest " + program.name + " not clean";
    (void)fi::goldenRun(image);
  }
  obs::Registry metrics;
  fi::SystemCampaignConfig config = systemConfig(kPinnedSystemSeed, 0, kTimedThreads);
  config.metrics = &metrics;
  if (!fi::goldenStop(config).stopped) return "golden stop did not stop";
  const fi::SystemCampaignStats stats = fi::runSystemCampaign(config);
  return checkSystemStats(stats, 0, &metrics);
}

}  // namespace

Report runSystemMixed(const Options& options) {
  Report report;
  std::printf("workload system-mixed: fi::runSystemCampaign, %zu stops per call, %u threads\n",
              kStopsPerCall, kTimedThreads);
  const Timing timing = timedCalls(
      report, "system-mixed", options.seconds, systemSetup,
      [&](std::size_t index, std::size_t& items) {
        obs::Registry metrics;
        fi::SystemCampaignConfig config =
            systemConfig(deriveSeed(options.seed, index), kStopsPerCall, kTimedThreads);
        config.metrics = &metrics;
        const fi::SystemCampaignStats stats = fi::runSystemCampaign(config);
        items = stats.experiments;
        return checkSystemStats(stats, kStopsPerCall, &metrics);
      });

  const std::string pinned = guarded([] {
    obs::Registry metrics;
    fi::SystemCampaignConfig config =
        systemConfig(kPinnedSystemSeed, kPinnedSystemStops, kTimedThreads);
    config.metrics = &metrics;
    const fi::SystemCampaignStats stats = fi::runSystemCampaign(config);
    std::string problem = checkSystemStats(stats, kPinnedSystemStops, &metrics);
    const std::string text = systemStatsText(stats);
    const std::string fingerprint = metrics.goldenFingerprint();
    const std::uint32_t crc = util::crc32(std::span{
        reinterpret_cast<const std::uint8_t*>(fingerprint.data()), fingerprint.size()});
    std::printf("  pinned reference: statistics %s, fingerprint CRC-32 %08x\n", text.c_str(),
                static_cast<unsigned>(crc));
    if (problem.empty() && text != kPinnedSystemStats) problem = "pinned statistics changed";
    if (problem.empty() && crc != kPinnedSystemFingerprintCrc) {
      problem = "pinned metrics goldenFingerprint() changed";
    }
    return problem;
  });
  report.call(pinned.empty(), "system-mixed pinned reference: " + pinned);

  addEndToEnd(report, timing);
  return report;
}

// ---- machine-fi ------------------------------------------------------------

namespace {

constexpr std::size_t kMachineExperimentsPerCampaign = 10000;

/// Pinned reference: 1000 experiments per guest image at seed 47; per image
/// the TEM then the FS outcome classes in machineStatsText() order.
/// Recorded like kPinnedSystemStats.
constexpr std::uint64_t kPinnedMachineSeed = 47;
constexpr std::size_t kPinnedMachineExperiments = 1000;
constexpr const char* kPinnedMachineStats =
    "692,71,125,35,1,76,0,724,42,107,0,127,662,75,71,110,0,81,1,691,51,130,54,74,676,132,89,83,0,"
    "16,4,723,86,98,0,93,";


/// One machine-fi call: a TEM and an FS campaign on every guest image.
std::string machineCall(const std::vector<fi::TaskImage>& images, std::uint64_t seed,
                        std::size_t experiments, std::size_t& items, std::string* statsText) {
  for (std::size_t i = 0; i < images.size(); ++i) {
    const fi::CampaignConfig config =
        machineConfig(deriveSeed(seed, i), experiments, kTimedThreads);
    const fi::TemCampaignStats tem = fi::runTemCampaign(images[i], config);
    const fi::FsCampaignStats fs = fi::runFsCampaign(images[i], config);
    items += tem.experiments + fs.experiments;
    if (std::string problem = checkMachineStats(tem, fs, experiments); !problem.empty()) {
      return problem;
    }
    if (statsText != nullptr) *statsText += machineStatsText(tem, fs);
  }
  return {};
}

}  // namespace

Report runMachineFi(const Options& options) {
  Report report;
  std::printf("workload machine-fi: fi::runTemCampaign + fi::runFsCampaign on every guest image, "
              "%zu experiments each, %u threads\n",
              kMachineExperimentsPerCampaign, kTimedThreads);
  std::vector<fi::TaskImage> images;
  const auto setup = [&] {
    images.clear();
    for (const bbw::GuestProgram& program : bbw::guestPrograms()) {
      if (hw::assemble(program.source).words.empty()) return "empty guest " + program.name;
      images.push_back(program.makeNominalImage());
      if (!analysis::analyzeImage(images.back()).clean()) return "guest " + program.name;
      (void)fi::goldenRun(images.back());
    }
    std::size_t items = 0;
    return machineCall(images, kPinnedMachineSeed, 0, items, nullptr);
  };

  const Timing timing = timedCalls(
      report, "machine-fi", options.seconds, setup, [&](std::size_t index, std::size_t& items) {
        return machineCall(images, deriveSeed(options.seed, index),
                           kMachineExperimentsPerCampaign, items, nullptr);
      });

  const std::string pinned = guarded([&] {
    std::string text;
    std::size_t items = 0;
    std::string problem =
        machineCall(images, kPinnedMachineSeed, kPinnedMachineExperiments, items, &text);
    std::printf("  pinned reference: statistics %s\n", text.c_str());
    if (problem.empty() && text != kPinnedMachineStats) problem = "pinned statistics changed";
    return problem;
  });
  report.call(pinned.empty(), "machine-fi pinned reference: " + pinned);

  addEndToEnd(report, timing);
  return report;
}

// ---- reliability-mc --------------------------------------------------------

namespace {

constexpr std::size_t kMcTrialsPerCall = 1'000'000;
constexpr std::size_t kIsTrialsPerCall = 1'000'000;
/// Agreement bound with the CTMC, in standard errors of the estimator.
constexpr double kZBound = 5.0;
/// ESS floor of docs/ESTIMATORS.md (fraction of the trials).
constexpr double kEssFloor = 0.10;

struct CtmcReference {
  double reliabilityYear = 0.0;
  double failureRareEvent = 0.0;
};

CtmcReference ctmcReference() {
  const bbw::BbwStudy study;
  CtmcReference ref;
  ref.reliabilityYear = study.systemReliability(bbw::NodeType::Nlft,
                                                bbw::FunctionalityMode::Degraded,
                                                util::kHoursPerYear);
  ref.failureRareEvent = 1.0 - study.systemReliability(bbw::NodeType::Nlft,
                                                       bbw::FunctionalityMode::Degraded,
                                                       kRareEventHorizonHours);
  return ref;
}

/// One reliability-mc call: plain MC R(1 y) and IS F(48 h), both checked
/// against the CTMC.
std::string reliabilityCall(const CtmcReference& ref, std::uint64_t seed, std::size_t mcTrials,
                            std::size_t isTrials, std::size_t& items) {
  const sys::SystemSpec spec = degradedSpec();
  const sys::MonteCarloResult mc = sys::estimateReliability(
      spec, monteCarloConfig(deriveSeed(seed, 0), mcTrials, util::kHoursPerYear, kTimedThreads));
  const sys::IsReliabilityResult is = sys::estimateReliabilityIs(
      spec,
      monteCarloConfig(deriveSeed(seed, 1), isTrials, kRareEventHorizonHours, kTimedThreads),
      rareEventBias());
  items = mc.trials + is.trials;
  if (mc.trials != mcTrials || is.trials != isTrials) return "trial count mismatch";
  if (mcTrials == 0) return {};
  const double r = mc.checkpoints[0].reliability.proportion;
  const double se = std::sqrt(ref.reliabilityYear * (1.0 - ref.reliabilityYear) /
                              static_cast<double>(mcTrials));
  if (std::abs(r - ref.reliabilityYear) > kZBound * se) {
    return "MC R(1 y) " + std::to_string(r) + " outside " + std::to_string(kZBound) +
           " sigma of the CTMC value " + std::to_string(ref.reliabilityYear);
  }
  const sys::IsCheckpointEstimate& f = is.checkpoints[0];
  const double isSe = f.halfWidth / util::inverseNormalCdf(0.975);
  if (std::abs(f.failureProbability - ref.failureRareEvent) > kZBound * isSe) {
    return "IS F(48 h) " + std::to_string(f.failureProbability) + " outside " +
           std::to_string(kZBound) + " sigma of the CTMC value " +
           std::to_string(ref.failureRareEvent);
  }
  const double essRatio =
      is.weightDiagnostics.effectiveSampleSize() / static_cast<double>(is.trials);
  if (essRatio < kEssFloor) return "IS ESS ratio " + std::to_string(essRatio) + " below floor";
  return {};
}

}  // namespace

Report runReliabilityMc(const Options& options) {
  Report report;
  std::printf("workload reliability-mc: sys::estimateReliability R(1 y) %zu trials + "
              "sys::estimateReliabilityIs F(48 h) %zu trials per call, %u threads\n",
              kMcTrialsPerCall, kIsTrialsPerCall, kTimedThreads);
  CtmcReference ref;
  const auto setup = [&] {
    ref = ctmcReference();
    std::size_t items = 0;
    return reliabilityCall(ref, options.seed, 0, 0, items);
  };

  const Timing timing = timedCalls(
      report, "reliability-mc", options.seconds, setup, [&](std::size_t index, std::size_t& items) {
        return reliabilityCall(ref, deriveSeed(options.seed, index), kMcTrialsPerCall,
                               kIsTrialsPerCall, items);
      });
  std::printf("  CTMC reference: R(1 y) = %.6f, F(48 h) = %.6e\n", ref.reliabilityYear,
              ref.failureRareEvent);

  addEndToEnd(report, timing);
  return report;
}

}  // namespace perfbench
