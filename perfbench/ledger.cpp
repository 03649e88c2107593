// The traced run: per-layer metrics for every src/ module, the system-mixed
// layer shares, and the span file.
//
// Everything here runs on one thread (the campaign calls at 1 worker) so the
// counts are exact, except the calls that read the exec layer's utilisation,
// which run at kTimedThreads like the timed runs. Counts come from what the
// library already exports (obs::Registry metrics, campaign statistics,
// SnapCounters) and from the allocation counter of this binary. Host costs
// come from per-layer probes that call only public API, at parameters taken
// from a golden stop or campaign. A span is recorded around every call into
// a layer (microbenchmarks: one span per batch). Allocation counting is on
// only around the calls whose allocations are reported, so no host timing
// other than the traced campaign call pays for it.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <optional>
#include <set>

#include "alloc_counter.hpp"
#include "bbw/system_sim.hpp"
#include "bbw/vehicle.hpp"
#include "bench.hpp"
#include "core/replication.hpp"
#include "core/tem.hpp"
#include "faults/snapshot_exec.hpp"
#include "hw/machine.hpp"
#include "net/bus.hpp"
#include "net/membership.hpp"
#include "obs/metrics.hpp"
#include "rtkernel/cpu.hpp"
#include "rtkernel/kernel.hpp"
#include "sim/simulator.hpp"
#include "snap/cache.hpp"
#include "spans.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace perfbench {
namespace {

using util::Duration;
using util::SimTime;

// ---- sizes of the traced run -----------------------------------------------

constexpr std::size_t kLedgerStops = 100;  ///< per system campaign call
/// Measurement rounds of the layer-share table (see RoundCosts).
constexpr int kRounds = 5;
/// Straight-path stops per scenario kind: p90 is then the highest
/// percentile with at least ten samples beyond it.
constexpr std::size_t kStopsPerKind = 100;
constexpr std::size_t kLedgerMachineExperiments = 3000;  ///< per image and campaign type
constexpr std::size_t kLedgerTrials = 200'000;           ///< per estimator call
constexpr int kBatches = 5;  ///< batches of the probes outside the rounds (median)
/// Cancelled share of scheduled DES events in a system campaign (ROADMAP
/// baseline: 4.5M of 32.2M). sim::Simulator exports no cancel counter, so
/// this parameter is taken from that measurement rather than re-measured.
constexpr double kCancelRatio = 4.5 / 32.2;
/// Events per DES probe batch.
constexpr std::uint64_t kDesEvents = 200'000;
/// Periodic task of the kernel and TEM probes (the BBW control period).
constexpr Duration kPeriod = Duration::milliseconds(5);
constexpr Duration kWcet = Duration::microseconds(400);

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

double ratio(std::uint64_t numerator, std::uint64_t denominator) {
  return ratio(static_cast<double>(numerator), static_cast<double>(denominator));
}

/// Runs `batch` inside one span and returns seconds per unit of work;
/// `batch` returns the units it did.
double timedBatch(SpanRecorder& spans, const std::string& name, std::uint64_t calls,
                  const std::function<std::uint64_t()>& batch) {
  const Stopwatch clock;
  std::uint64_t units = 0;
  {
    const ScopedSpan span{&spans, name, -1, calls};
    units = batch();
  }
  return clock.seconds() / static_cast<double>(std::max<std::uint64_t>(units, 1));
}

/// Median seconds per unit over kBatches batches.
double medianPerUnit(SpanRecorder& spans, const std::string& name, std::uint64_t calls,
                     const std::function<std::uint64_t()>& batch) {
  std::vector<double> perUnit;
  for (int b = 0; b < kBatches; ++b) perUnit.push_back(timedBatch(spans, name, calls, batch));
  return median(perUnit);
}

/// Context reset of a campaign copy (fi::runCopy does the same): pristine
/// registers, PC and SP, zeroed result buffer.
void resetContext(hw::Machine& machine, const fi::TaskImage& image) {
  machine.cpu().regs.fill(0);
  machine.cpu().pc = image.entry;
  machine.cpu().setSp(image.stackTop);
  machine.cpu().flagZero = false;
  machine.cpu().flagNegative = false;
  machine.resume();
  for (std::uint32_t w = 0; w < image.outputWords; ++w) {
    machine.memory().write(image.outputBase + 4 * w, 0);
  }
}

bbw::BbwSimConfig campaignSimConfig() {
  const fi::SystemCampaignConfig config = systemConfig(0, 0, 1);
  bbw::BbwSimConfig sim = config.sim;
  sim.nodeType = config.nodeType;
  return sim;
}

/// Deterministic work per campaign item of system-mixed, the counts of the
/// layer-share table.
struct ItemCounts {
  double events = 0.0;
  double busCycles = 0.0;
  double dispatches = 0.0;
  double temJobs = 0.0;
  double simulatedStops = 0.0;
  double classifications = 0.0;
  double offersPerStop = 0.0;        ///< golden stop
  double vehicleStepsPerStop = 0.0;  ///< golden stop
};

/// Work the layer probes did per unit, so self costs can subtract the
/// child-layer work a probe caused.
struct ProbeWork {
  double eventsPerBusCycle = 0.0;
  double eventsPerKernelJob = 0.0;
  double dispatchesPerKernelJob = 0.0;
  double eventsPerTemJob = 0.0;
  double dispatchesPerTemJob = 0.0;
};

/// Host costs (seconds) measured in one round. A round times the campaign
/// item and every layer probe back to back. Host speed can drift over
/// seconds (it does on the shared KVM host of the recorded baseline), so
/// each round's shares compare costs taken in one host state, and the
/// reported figures are medians over the rounds.
struct RoundCosts {
  double item = 0.0;          ///< untraced, registry attached
  double detachedItem = 0.0;  ///< untraced, no registry
  double tracedItem = 0.0;    ///< spans and allocation counting on
  double event = 0.0;
  double busCycle = 0.0;
  double kernelJob = 0.0;
  double temJob = 0.0;
  double offer = 0.0;
  double vehicleStep = 0.0;
  double classification = 0.0;
  double baseline = 0.0;
};

class Ledger {
 public:
  Ledger(Report& report, SpanRecorder& spans, std::uint64_t seed)
      : report_{report}, spans_{spans}, seed_{seed} {}

  void systemCounts();
  void goldenStop();
  void layerRounds();
  void systemPerKind();
  void machineWorkload();
  void reliabilityWorkload();
  void layerShares();

 private:
  void count(const std::string& name, double value, const char* unit = "count") {
    report_.add(name, value, unit);
  }
  void check(const std::string& problem, const std::string& what) {
    report_.call(problem.empty(), what + ": " + problem);
  }

  /// One system campaign call of kLedgerStops items at `threads` workers.
  struct CampaignRun {
    fi::SystemCampaignStats stats;
    obs::Registry metrics;
    double seconds = 0.0;
    std::uint64_t allocations = 0;
  };
  CampaignRun campaign(const char* name, bool traced, bool attachRegistry, unsigned threads);

  // Layer probes: one batch each, returning seconds per unit.
  double desBatch();
  double busBatch();
  double kernelBatch();
  double temBatch();
  double arbiterBatch();
  double vehicleBatch();
  double classifyBatch(int round);

  Report& report_;
  SpanRecorder& spans_;
  std::uint64_t seed_;
  ItemCounts counts_;
  ProbeWork work_;
  std::vector<RoundCosts> rounds_;
  std::size_t queueDepth_ = 1;
  std::vector<fi::TaskImage> images_ = guestImages();
  std::uint64_t arbiterOffers_ = 0;
  std::uint64_t arbiterDeliveries_ = 0;
};

// ---- system-mixed: deterministic counts, allocations, exec gauge ----------

Ledger::CampaignRun Ledger::campaign(const char* name, bool traced, bool attachRegistry,
                                     unsigned threads) {
  CampaignRun run;
  fi::SystemCampaignConfig config =
      systemConfig(deriveSeed(seed_, 100), kLedgerStops, threads);
  if (attachRegistry) config.metrics = &run.metrics;
  setAllocCounting(traced);
  const AllocScope allocs;
  const Stopwatch clock;
  {
    const ScopedSpan span{traced ? &spans_ : nullptr, name};
    run.stats = fi::runSystemCampaign(config);
  }
  run.seconds = clock.seconds();
  run.allocations = allocs.count();
  setAllocCounting(false);
  check(checkSystemStats(run.stats, kLedgerStops, attachRegistry ? &run.metrics : nullptr),
        name);
  return run;
}

void Ledger::systemCounts() {
  // Warm-up: the first campaign of a process builds the guests' cached
  // static analyses; keep that out of every figure.
  (void)fi::runSystemCampaign(systemConfig(deriveSeed(seed_, 100), 8, 1));
  const CampaignRun traced = campaign("fi.runSystemCampaign", true, true, 1);
  const CampaignRun parallel =
      campaign("fi.runSystemCampaign.parallel", false, true, kTimedThreads);
  check(parallel.metrics.goldenFingerprint() == traced.metrics.goldenFingerprint()
            ? ""
            : "golden metrics fingerprint differs between 1 and 2 threads",
        "system-mixed determinism");

  const obs::Registry& m = traced.metrics;
  const fi::SystemCampaignStats& stats = traced.stats;
  const std::uint64_t stops = stats.experiments - stats.skippedMasked;
  const std::uint64_t events = m.count("sim.events_processed");
  const std::uint64_t copies =
      m.count("tem.copies.first") + m.count("tem.copies.second") + m.count("tem.copies.third");
  count("sim.events_per_stop", ratio(events, stops));
  count("sim.allocs_per_event", ratio(traced.allocations, events));
  count("net.bus_cycles_per_stop", ratio(m.count("bus.cycles"), stops));
  count("net.frames_per_stop", ratio(m.count("bus.frames_delivered"), stops));
  count("rtkernel.dispatches_per_stop", ratio(m.count("kernel.dispatches"), stops));
  count("core.tem.copies_per_job", ratio(copies, m.count("tem.jobs")));
  count("faults.sys.events_per_experiment",
        ratio(stats.snap.simulatedCycles, stats.experiments));
  count("faults.sys.skipped_masked_ratio", ratio(stats.skippedMasked, stats.experiments),
        "ratio");
  count("exec.items_per_chunk.system", ratio(m.count("exec.items"), m.count("exec.chunks")));
  count("exec.worker_utilization", parallel.metrics.gauge("wall.exec.worker_utilization"),
        "ratio");
  count("allocs_per_item.system", ratio(traced.allocations, stats.experiments));

  const auto items = static_cast<double>(stats.experiments);
  counts_.events = static_cast<double>(events) / items;
  counts_.busCycles = static_cast<double>(m.count("bus.cycles")) / items;
  counts_.dispatches = static_cast<double>(m.count("kernel.dispatches")) / items;
  counts_.temJobs = static_cast<double>(m.count("tem.jobs")) / items;
  counts_.simulatedStops = static_cast<double>(stops) / items;
  counts_.classifications = static_cast<double>(stats.nodeLevel.injected) / items;
}

// ---- bbw: the golden stop and the DES queue depth along it ---------------

void Ledger::goldenStop() {
  const bbw::BbwSimConfig simConfig = campaignSimConfig();
  std::vector<double> goldenMs;
  bbw::BbwSimResult golden;
  for (int rep = 0; rep < kBatches; ++rep) {
    const Stopwatch clock;
    {
      const ScopedSpan span{&spans_, "bbw.BbwSystemSim.run"};
      bbw::BbwSystemSim sim{simConfig};
      golden = sim.run();
    }
    goldenMs.push_back(clock.seconds() * 1e3);
  }
  check(golden.stopped ? "" : "golden stop did not stop", "golden stop");
  count("bbw.stop.golden_ms", median(goldenMs), "ms");
  counts_.offersPerStop =
      static_cast<double>(golden.commandFramesDelivered + golden.duplicateCommandsDropped);
  counts_.vehicleStepsPerStop = golden.stopTimeS / simConfig.plantStep.toSeconds();

  // Queue depth seen through BbwSystemSim::simulator(), sampled every 1 ms.
  bbw::BbwSystemSim sim{simConfig};
  std::vector<double> depths;
  const ScopedSpan span{&spans_, "bbw.BbwSystemSim.runUntil"};
  for (std::int64_t us = 1000; us <= simConfig.horizon.us() && !sim.vehicle().stopped();
       us += 1000) {
    sim.runUntil(SimTime::fromUs(us));
    depths.push_back(static_cast<double>(sim.simulator().pendingEvents()));
  }
  const double depth = median(depths);
  queueDepth_ = static_cast<std::size_t>(std::max(1.0, depth));
  count("sim.queue_depth", depth);
}

// ---- layer probes ----------------------------------------------------------

/// sim: schedule/step/cancel at the golden stop's queue depth and the
/// campaign's cancel ratio.
double Ledger::desBatch() {
  // Extra schedule+cancel pairs per processed event so that cancelled /
  // scheduled equals kCancelRatio: p / (1 + p) = c.
  const double extraPerEvent = kCancelRatio / (1.0 - kCancelRatio);
  return timedBatch(spans_, "sim.Simulator.step", kDesEvents, [&]() -> std::uint64_t {
    sim::Simulator simulator;
    util::Rng rng{deriveSeed(seed_, 300)};
    std::function<void()> tick;
    tick = [&] {
      simulator.scheduleAfter(
          Duration::microseconds(1 + static_cast<std::int64_t>(rng.uniformInt(5000))),
          [&tick] { tick(); });
    };
    for (std::size_t i = 0; i < queueDepth_; ++i) {
      simulator.scheduleAt(SimTime::fromUs(static_cast<std::int64_t>(rng.uniformInt(5000))),
                           [&tick] { tick(); });
    }
    std::optional<sim::EventId> timeout;
    double owed = 0.0;
    while (simulator.processedEvents() < kDesEvents && simulator.step()) {
      for (owed += extraPerEvent; owed >= 1.0; owed -= 1.0) {
        // A timeout-style event, cancelled when the next one is armed.
        if (timeout) simulator.cancel(*timeout);
        timeout = simulator.scheduleAfter(Duration::milliseconds(10), [&tick] { tick(); });
      }
    }
    return simulator.processedEvents();
  });
}

/// net: six-node TdmaBus + MembershipService cycles with application data,
/// on the BBW deployment's bus configuration.
double Ledger::busBatch() {
  constexpr std::uint64_t kCycles = 2000;
  const net::TdmaConfig busConfig = bbw::bbwDeployment().bus;
  const std::set<net::NodeId> nodes(busConfig.staticSchedule.begin(),
                                    busConfig.staticSchedule.end());
  return timedBatch(spans_, "net.TdmaBus+MembershipService.cycle", kCycles, [&] {
    sim::Simulator simulator;
    net::TdmaBus bus{simulator, busConfig};
    net::MembershipService membership{simulator, bus};
    std::uint64_t received = 0;
    membership.setAppReceive([&](net::NodeId, net::NodeId,
                                 const std::vector<std::uint32_t>& data) {
      received += data.size();
    });
    for (const net::NodeId node : nodes) membership.addNode(node);
    membership.start();
    const Duration cycle = bus.cycleLength();
    for (std::uint64_t c = 0; c < kCycles; ++c) {
      for (const net::NodeId node : nodes) {
        membership.queueAppData(node, {node, static_cast<std::uint32_t>(c), 0x100, 0x200});
      }
      simulator.runUntil(simulator.now() + cycle);
    }
    work_.eventsPerBusCycle = ratio(simulator.processedEvents(), bus.cyclesCompleted());
    return bus.cyclesCompleted();
  });
}

rt::TaskConfig probeTask() {
  rt::TaskConfig config;
  config.name = "control";
  config.priority = 10;
  config.period = kPeriod;
  config.relativeDeadline = kPeriod;
  config.wcet = kWcet;
  config.budget = kWcet;
  return config;
}

/// rtkernel: jobs of a plain periodic task on RtKernel + Cpu.
double Ledger::kernelBatch() {
  constexpr std::uint64_t kJobs = 4000;
  return timedBatch(spans_, "rtkernel.RtKernel.job", kJobs, [&] {
    sim::Simulator simulator;
    rt::Cpu cpu{simulator};
    rt::RtKernel kernel{simulator, cpu};
    const rt::TaskId task = kernel.addTask(probeTask(), [](rt::Job& job) {
      job.runCopy(kWcet, [&job](rt::CopyStop stop) {
        if (stop == rt::CopyStop::Completed) job.complete({1, 2, 3, 4});
      });
    });
    kernel.start();
    simulator.runUntil(SimTime::fromUs(kPeriod.us() * static_cast<std::int64_t>(kJobs)));
    const std::uint64_t jobs = kernel.stats(task).completions;
    work_.eventsPerKernelJob = ratio(simulator.processedEvents(), jobs);
    work_.dispatchesPerKernelJob = ratio(cpu.dispatches(), jobs);
    return jobs;
  });
}

/// core: TemExecutor jobs with two clean copies.
double Ledger::temBatch() {
  constexpr std::uint64_t kJobs = 4000;
  return timedBatch(spans_, "core.TemExecutor.job", kJobs, [&] {
    sim::Simulator simulator;
    rt::Cpu cpu{simulator};
    rt::RtKernel kernel{simulator, cpu};
    tem::TemExecutor executor{kernel};
    const rt::TaskId task = executor.addCriticalTask(probeTask(), [](const tem::CopyContext&) {
      tem::CopyPlan plan;
      plan.executionTime = kWcet;
      plan.result = {1, 2, 3, 4};
      return plan;
    });
    kernel.start();
    simulator.runUntil(SimTime::fromUs(kPeriod.us() * static_cast<std::int64_t>(kJobs)));
    const std::uint64_t jobs = executor.stats(task).deliveredCleanly;
    work_.eventsPerTemJob = ratio(simulator.processedEvents(), jobs);
    work_.dispatchesPerTemJob = ratio(cpu.dispatches(), jobs);
    return jobs;
  });
}

/// core: DuplexArbiter::offer/poll at the CU two-replica pattern — both
/// central units offer every command sequence a little apart — with one
/// fresh arbiter per stop-length run of sequences.
double Ledger::arbiterBatch() {
  constexpr std::uint64_t kSequencesPerStop = 600;
  constexpr std::uint64_t kStops = 40;
  return timedBatch(spans_, "core.DuplexArbiter.offer", 2 * kSequencesPerStop * kStops, [&] {
    std::uint64_t offers = 0;
    for (std::uint64_t s = 0; s < kStops; ++s) {
      tem::DuplexArbiter arbiter{tem::DuplexArbiter::Policy::FirstValid};
      for (std::uint64_t seq = 0; seq < kSequencesPerStop; ++seq) {
        const SimTime at = SimTime::fromUs(static_cast<std::int64_t>(seq) * kPeriod.us());
        const auto word = static_cast<std::uint32_t>(seq);
        for (const int replica : {0, 1}) {
          if (arbiter.offer(replica, seq, {word, 1, 2, 3},
                            at + Duration::microseconds(replica * 250))) {
            ++arbiterDeliveries_;
          }
          ++offers;
        }
        arbiterDeliveries_ += arbiter.poll(at).size();
      }
    }
    arbiterOffers_ += offers;
    return offers;
  });
}

/// bbw: Vehicle::step through full-brake stops from the campaign's speed.
double Ledger::vehicleBatch() {
  constexpr std::uint64_t kStops = 20;
  const bbw::BbwSimConfig simConfig = campaignSimConfig();
  const auto calls = static_cast<std::uint64_t>(counts_.vehicleStepsPerStop) * kStops;
  return timedBatch(spans_, "bbw.Vehicle.step", calls, [&] {
    bbw::Vehicle vehicle{simConfig.vehicle};
    std::uint64_t steps = 0;
    for (std::uint64_t s = 0; s < kStops; ++s) {
      vehicle.reset(simConfig.initialSpeedMps);
      for (std::size_t w = 0; w < bbw::kWheelCount; ++w) vehicle.setBrakeTorque(w, 900.0);
      for (std::uint64_t n = 0; !vehicle.stopped() && n < 100'000; ++n, ++steps) {
        vehicle.step(simConfig.plantStep.toSeconds());
      }
    }
    return steps;
  });
}

/// faults: one TEM classification (fi::runTemExperiment) per sampled fault.
double Ledger::classifyBatch(int round) {
  constexpr int kFaultsPerImage = 20;
  const fi::CampaignConfig defaults;
  util::Rng rng{deriveSeed(seed_, 500 + static_cast<std::uint64_t>(round))};
  const Stopwatch clock;
  for (std::size_t i = 0; i < images_.size(); ++i) {
    const std::uint64_t goldenInstructions = fi::goldenRun(images_[i]).instructions;
    for (int f = 0; f < kFaultsPerImage; ++f) {
      const fi::FaultSpec fault = fi::sampleFault(images_[i], goldenInstructions, defaults.mix, rng);
      const ScopedSpan span{&spans_, "fi.runTemExperiment",
                            static_cast<std::int64_t>(i * kFaultsPerImage + f)};
      (void)fi::runTemExperiment(images_[i], fault, defaults.jobBudgetFactor);
    }
  }
  return clock.seconds() / static_cast<double>(images_.size() * kFaultsPerImage);
}

// ---- rounds: campaign items and layer probes, back to back ---------------

void Ledger::layerRounds() {
  const bbw::BbwSimConfig simConfig = campaignSimConfig();
  const auto items = static_cast<double>(kLedgerStops);
  bool baselineStopped = true;
  for (int r = 0; r < kRounds; ++r) {
    RoundCosts c;
    c.item = campaign("fi.runSystemCampaign.untraced", false, true, 1).seconds / items;
    c.detachedItem = campaign("fi.runSystemCampaign.detached", false, false, 1).seconds / items;
    c.tracedItem = campaign("fi.runSystemCampaign", true, true, 1).seconds / items;
    c.event = desBatch();
    c.busCycle = busBatch();
    c.kernelJob = kernelBatch();
    c.temJob = temBatch();
    c.offer = arbiterBatch();
    c.vehicleStep = vehicleBatch();
    c.classification = classifyBatch(r);
    {
      const Stopwatch clock;
      const ScopedSpan span{&spans_, "fi.SystemBaseline"};
      const fi::SystemBaseline baseline{simConfig};
      c.baseline = clock.seconds();
      baselineStopped = baselineStopped && baseline.goldenResult().stopped;
    }
    rounds_.push_back(c);
  }
  check(baselineStopped ? "" : "baseline golden run did not stop", "fi.SystemBaseline");
  check(arbiterDeliveries_ * 2 == arbiterOffers_ ? ""
                                                 : "arbiter did not deliver each sequence once",
        "core.DuplexArbiter");

  const auto medianOf = [&](double RoundCosts::*field, double scale) {
    std::vector<double> values;
    for (const RoundCosts& c : rounds_) values.push_back(c.*field * scale);
    return median(values);
  };
  const auto medianRatio = [&](double RoundCosts::*num, double RoundCosts::*den) {
    std::vector<double> values;
    for (const RoundCosts& c : rounds_) values.push_back(ratio(c.*num, c.*den));
    return median(values);
  };
  count("sim.ns_per_event", medianOf(&RoundCosts::event, 1e9), "ns");
  count("net.us_per_bus_cycle", medianOf(&RoundCosts::busCycle, 1e6), "us");
  count("rtkernel.us_per_job", medianOf(&RoundCosts::kernelJob, 1e6), "us");
  count("core.tem.us_per_job", medianOf(&RoundCosts::temJob, 1e6), "us");
  count("core.arbiter.ns_per_offer", medianOf(&RoundCosts::offer, 1e9), "ns");
  count("bbw.vehicle.ns_per_step", medianOf(&RoundCosts::vehicleStep, 1e9), "ns");
  count("faults.classify.us_per_fault", medianOf(&RoundCosts::classification, 1e6), "us");
  count("faults.sys.baseline_s", medianOf(&RoundCosts::baseline, 1.0), "s");
  // Throughput ratios: detached over attached, traced over untraced.
  count("obs.overhead_ratio", medianRatio(&RoundCosts::item, &RoundCosts::detachedItem),
        "ratio");
  count("trace.overhead_ratio", medianRatio(&RoundCosts::item, &RoundCosts::tracedItem),
        "ratio");

  // The DES probe's own allocations, apart from the stop's.
  setAllocCounting(true);
  const AllocScope allocs;
  (void)desBatch();
  count("sim.queue_allocs_per_event", ratio(allocs.count(), kDesEvents));
  setAllocCounting(false);
}

// ---- bbw: full-stop cost per scenario kind on the straight path -----------

void Ledger::systemPerKind() {
  for (std::size_t k = 0; k < fi::kScenarioKindCount; ++k) {
    const auto kind = static_cast<fi::ScenarioKind>(k);
    fi::SystemCampaignConfig config = systemConfig(seed_, 0, 1);
    config.machineTransientWeight = kind == fi::ScenarioKind::MachineTransient ? 1.0 : 0.0;
    config.busCorruptionWeight = kind == fi::ScenarioKind::BusCorruption ? 1.0 : 0.0;
    config.nodeCrashWeight = kind == fi::ScenarioKind::NodeCrash ? 1.0 : 0.0;
    config.correlatedBurstWeight = kind == fi::ScenarioKind::CorrelatedBurst ? 1.0 : 0.0;
    const bbw::BbwSimResult golden = fi::goldenStop(config);
    util::Rng rng{deriveSeed(seed_, 200 + k)};
    std::vector<double> ms;
    std::string problem;
    for (std::size_t i = 0; i < kStopsPerKind; ++i) {
      const auto item = static_cast<std::int64_t>(k * kStopsPerKind + i);
      std::optional<fi::SystemScenario> scenario;
      {
        const ScopedSpan span{&spans_, "fi.sampleScenario", item};
        scenario = fi::sampleScenario(config, rng);
      }
      const Stopwatch clock;
      fi::SystemExperiment experiment;
      {
        const ScopedSpan span{&spans_, "fi.runSystemExperiment", item};
        experiment = fi::runSystemExperiment(config, *scenario, golden);
      }
      ms.push_back(clock.seconds() * 1e3);
      if (scenario->kind != kind || experiment.scenario.kind != kind) {
        problem = "sampled scenario of the wrong kind";
      }
    }
    check(problem, std::string{"straight-path stops "} + fi::describe(kind));
    const std::string prefix = std::string{"bbw.stop."} + fi::describe(kind);
    report_.add(prefix + ".p50_ms", percentile(ms, 0.50), "ms");
    report_.add(prefix + ".p90_ms", percentile(ms, 0.90), "ms");
  }
}

// ---- machine-fi: hw, faults.machine, snap, exec ----------------------------

void Ledger::machineWorkload() {
  const std::uint64_t seed = deriveSeed(seed_, 400);

  fi::SnapCounters snap;
  std::uint64_t experiments = 0;
  std::string tracedStats;
  setAllocCounting(true);
  const AllocScope allocs;
  for (std::size_t i = 0; i < images_.size(); ++i) {
    const fi::CampaignConfig config =
        machineConfig(deriveSeed(seed, i), kLedgerMachineExperiments, 1);
    fi::TemCampaignStats tem;
    fi::FsCampaignStats fs;
    {
      const ScopedSpan span{&spans_, "fi.runTemCampaign", static_cast<std::int64_t>(i)};
      tem = fi::runTemCampaign(images_[i], config);
    }
    {
      const ScopedSpan span{&spans_, "fi.runFsCampaign", static_cast<std::int64_t>(i)};
      fs = fi::runFsCampaign(images_[i], config);
    }
    check(checkMachineStats(tem, fs, kLedgerMachineExperiments), "machine ledger campaign");
    snap.merge(tem.snap);
    snap.merge(fs.snap);
    experiments += tem.experiments + fs.experiments;
    tracedStats += machineStatsText(tem, fs);
  }
  const std::uint64_t allocations = allocs.count();
  setAllocCounting(false);
  count("allocs_per_item.machine", ratio(allocations, experiments));
  count("faults.machine.cycles_per_experiment", ratio(snap.simulatedCycles, experiments));
  count("faults.machine.replayed_copy_ratio",
        ratio(snap.replayedCopies, snap.replayedCopies + snap.executedCopies), "ratio");
  // In-order forks never consult the snapshot cache, so the hit ratio is
  // read next to the number of lookups it is based on.
  count("snap.hit_ratio", ratio(snap.snapshotHits, snap.snapshotHits + snap.snapshotMisses),
        "ratio");
  count("snap.lookups_per_experiment",
        ratio(snap.snapshotHits + snap.snapshotMisses, experiments));
  const exec::Parallelism parallelism;
  count("exec.items_per_chunk.machine",
        static_cast<double>(parallelism.resolvedChunkSize(kLedgerMachineExperiments)));

  // The same calls at kTimedThreads: statistics must not change; CPU time
  // over wall time gives the workers' utilisation.
  {
    std::string parallelStats;
    const double cpu0 = processCpuSeconds();
    const Stopwatch clock;
    for (std::size_t i = 0; i < images_.size(); ++i) {
      const fi::CampaignConfig config =
          machineConfig(deriveSeed(seed, i), kLedgerMachineExperiments, kTimedThreads);
      parallelStats += machineStatsText(fi::runTemCampaign(images_[i], config),
                                        fi::runFsCampaign(images_[i], config));
    }
    const double wall = clock.seconds();
    count("exec.cpu_utilization.machine",
          ratio(processCpuSeconds() - cpu0, wall * kTimedThreads), "ratio");
    check(parallelStats == tracedStats ? "" : "statistics differ between 1 and 2 threads",
          "machine-fi determinism");
  }

  // hw: Machine::run on each guest image, from the pristine campaign state.
  std::uint64_t instructions = 0;
  double runSeconds = 0.0;
  double forkSeconds = 0.0;
  std::uint64_t forks = 0;
  double saveSeconds = 0.0;
  double restoreSeconds = 0.0;
  std::uint64_t blobBytes = 0;
  std::uint64_t blobs = 0;
  constexpr int kRuns = 2000;
  for (std::size_t i = 0; i < images_.size(); ++i) {
    const fi::TaskImage& image = images_[i];
    const std::vector<std::uint8_t> pristine = fi::machineBaselineSnapshot(image);
    hw::Machine machine{image.memBytes};
    machine.restoreState(pristine);
    std::uint64_t golden = 0;
    {
      // Only the run() calls are timed; the context reset between them is not.
      const ScopedSpan span{&spans_, "hw.Machine.run", static_cast<std::int64_t>(i), kRuns};
      bool halted = true;
      for (int r = 0; r < kRuns; ++r) {
        resetContext(machine, image);
        const std::uint64_t before = machine.executedInstructions();
        const Stopwatch clock;
        const hw::RunResult result = machine.run(image.maxInstructionsPerCopy);
        runSeconds += clock.seconds();
        halted = halted && result.reason == hw::StopReason::Halted;
        golden = machine.executedInstructions() - before;
        instructions += golden;
      }
      check(halted ? "" : "guest did not halt", "hw.Machine.run");
    }

    // faults: in-order MachineBaseline forks across one clean copy, one
    // fresh baseline per sweep as in a campaign chunk.
    {
      constexpr int kSweeps = 200;
      hw::Machine start{image.memBytes};
      start.restoreState(pristine);
      resetContext(start, image);
      hw::Machine scratch{image.memBytes};
      const ScopedSpan span{&spans_, "fi.MachineBaseline.forkAt", static_cast<std::int64_t>(i),
                            golden * kSweeps};
      for (int sweep = 0; sweep < kSweeps; ++sweep) {
        snap::SnapshotCache cache{8u << 20};
        fi::MachineBaseline baseline{start, 1, std::max<std::uint64_t>(golden / 8, 1), cache};
        const Stopwatch clock;
        for (std::uint64_t t = 0; t < golden; ++t) baseline.forkAt(t, scratch);
        forkSeconds += clock.seconds();
        forks += golden;
      }
    }

    // snap: Machine::saveState / restoreState of the campaign machine.
    {
      constexpr int kBlobs = 100;
      std::vector<std::uint8_t> blob;
      {
        const Stopwatch clock;
        const ScopedSpan span{&spans_, "hw.Machine.saveState", static_cast<std::int64_t>(i),
                              kBlobs};
        for (int r = 0; r < kBlobs; ++r) blob = machine.saveState();
        saveSeconds += clock.seconds();
      }
      {
        const Stopwatch clock;
        const ScopedSpan span{&spans_, "hw.Machine.restoreState", static_cast<std::int64_t>(i),
                              kBlobs};
        for (int r = 0; r < kBlobs; ++r) machine.restoreState(blob);
        restoreSeconds += clock.seconds();
      }
      blobBytes += blob.size();
      blobs += kBlobs;
    }
  }
  count("hw.ns_per_instruction", 1e9 * runSeconds / static_cast<double>(instructions), "ns");
  count("faults.machine.us_per_fork", 1e6 * forkSeconds / static_cast<double>(forks), "us");
  count("snap.bytes_per_blob",
        static_cast<double>(blobBytes) / static_cast<double>(images_.size()), "B");
  count("snap.us_per_save", 1e6 * saveSeconds / static_cast<double>(blobs), "us");
  count("snap.us_per_restore", 1e6 * restoreSeconds / static_cast<double>(blobs), "us");
}

// ---- reliability-mc: sysmodel and exec --------------------------------------

void Ledger::reliabilityWorkload() {
  const sys::SystemSpec spec = degradedSpec();
  const std::uint64_t seed = deriveSeed(seed_, 600);
  setAllocCounting(true);
  std::uint64_t trials = 0;
  double essRatio = 0.0;
  const AllocScope allocs;
  {
    const ScopedSpan span{&spans_, "sys.estimateReliability"};
    trials += sys::estimateReliability(
                  spec, monteCarloConfig(seed, kLedgerTrials, util::kHoursPerYear, 1))
                  .trials;
  }
  {
    const ScopedSpan span{&spans_, "sys.estimateReliabilityIs"};
    const sys::IsReliabilityResult is = sys::estimateReliabilityIs(
        spec, monteCarloConfig(seed, kLedgerTrials, kRareEventHorizonHours, 1), rareEventBias());
    trials += is.trials;
    essRatio = ratio(is.weightDiagnostics.effectiveSampleSize(), static_cast<double>(is.trials));
  }
  count("allocs_per_item.reliability", ratio(allocs.count(), trials));
  setAllocCounting(false);
  count("sysmodel.is.ess_ratio", essRatio, "ratio");
  check(trials == 2 * kLedgerTrials ? "" : "trial count mismatch", "reliability ledger");
  const exec::Parallelism parallelism;
  count("exec.items_per_chunk.reliability",
        static_cast<double>(parallelism.resolvedChunkSize(kLedgerTrials)));

  {
    const double cpu0 = processCpuSeconds();
    const Stopwatch clock;
    (void)sys::estimateReliability(
        spec, monteCarloConfig(seed, kLedgerTrials, util::kHoursPerYear, kTimedThreads));
    (void)sys::estimateReliabilityIs(
        spec, monteCarloConfig(seed, kLedgerTrials, kRareEventHorizonHours, kTimedThreads),
        rareEventBias());
    count("exec.cpu_utilization.reliability",
          ratio(processCpuSeconds() - cpu0, clock.seconds() * kTimedThreads), "ratio");
  }

  constexpr std::uint64_t kTrialsPerBatch = 50'000;
  double sink = 0.0;
  const double nsPerTrial =
      1e9 * medianPerUnit(spans_, "sys.simulateLifetime", kTrialsPerBatch, [&] {
        util::Rng rng{deriveSeed(seed_, 700)};
        for (std::uint64_t t = 0; t < kTrialsPerBatch; ++t) {
          sink += sys::simulateLifetime(spec, util::kHoursPerYear, rng);
        }
        return kTrialsPerBatch;
      });
  const sys::ImportanceSamplingConfig bias = rareEventBias();
  const double nsPerBiasedTrial =
      1e9 * medianPerUnit(spans_, "sys.simulateLifetimeBiased", kTrialsPerBatch, [&] {
        util::Rng rng{deriveSeed(seed_, 701)};
        for (std::uint64_t t = 0; t < kTrialsPerBatch; ++t) {
          sink += sys::simulateLifetimeBiased(spec, kRareEventHorizonHours, rng, bias).weight;
        }
        return kTrialsPerBatch;
      });
  check(sink > 0.0 ? "" : "lifetime samples summed to zero", "sysmodel probes");
  count("sysmodel.ns_per_trial", nsPerTrial, "ns");
  count("sysmodel.is.ns_per_trial", nsPerBiasedTrial, "ns");
}

// ---- the system-mixed layer-share table -------------------------------------

void Ledger::layerShares() {
  struct Layer {
    const char* name;
    const char* metric;
    double countPerItem;
    /// Self cost of one unit in a round: the probe's time minus the
    /// child-layer work it caused.
    std::function<double(const RoundCosts&)> selfSeconds;
  };
  const ProbeWork& w = work_;
  const auto kernelSelf = [&w](const RoundCosts& c) {
    return ratio(c.kernelJob - w.eventsPerKernelJob * c.event, w.dispatchesPerKernelJob);
  };
  const std::vector<Layer> layers = {
      {"DES (sim)", "share.des", counts_.events, [](const RoundCosts& c) { return c.event; }},
      {"bus + membership (net)", "share.bus", counts_.busCycles,
       [&w](const RoundCosts& c) { return c.busCycle - w.eventsPerBusCycle * c.event; }},
      {"kernel + cpu (rtkernel)", "share.kernel", counts_.dispatches, kernelSelf},
      {"TEM executor (core)", "share.tem", counts_.temJobs,
       [&](const RoundCosts& c) {
         return c.temJob - w.eventsPerTemJob * c.event - w.dispatchesPerTemJob * kernelSelf(c);
       }},
      {"duplex arbiter (core)", "share.arbiter", counts_.offersPerStop * counts_.simulatedStops,
       [](const RoundCosts& c) { return c.offer; }},
      {"vehicle (bbw)", "share.vehicle", counts_.vehicleStepsPerStop * counts_.simulatedStops,
       [](const RoundCosts& c) { return c.vehicleStep; }},
      {"fault classification (faults+hw)", "share.classify", counts_.classifications,
       [](const RoundCosts& c) { return c.classification; }},
      {"campaign baseline (faults)", "share.baseline", 1.0 / static_cast<double>(kLedgerStops),
       [](const RoundCosts& c) { return c.baseline; }},
  };

  std::vector<double> itemMs;
  std::vector<double> remainders;
  for (const RoundCosts& c : rounds_) {
    itemMs.push_back(c.item * 1e3);
    double explained = 0.0;
    for (const Layer& layer : layers) {
      explained += ratio(layer.countPerItem * layer.selfSeconds(c), c.item);
    }
    remainders.push_back(1.0 - explained);
  }
  std::printf("\nsystem-mixed layer shares per campaign item (median over %zu rounds; "
              "%.3f ms per item, 1 thread, registry attached)\n",
              rounds_.size(), median(itemMs));
  std::printf("%-34s %14s %14s %10s\n", "layer", "count/item", "self us/unit", "share");
  for (const Layer& layer : layers) {
    std::vector<double> selfUs;
    std::vector<double> shares;
    for (const RoundCosts& c : rounds_) {
      selfUs.push_back(layer.selfSeconds(c) * 1e6);
      shares.push_back(ratio(layer.countPerItem * layer.selfSeconds(c), c.item));
    }
    const double share = median(shares);
    std::printf("%-34s %14.2f %14.4f %9.1f%%\n", layer.name, layer.countPerItem, median(selfUs),
                100.0 * share);
    count(layer.metric, share, "ratio");
  }
  const double remainder = median(remainders);
  std::printf("%-34s %14s %14s %9.1f%%\n", "unexplained remainder", "", "", 100.0 * remainder);
  count("share.unexplained", remainder, "ratio");
}

}  // namespace

Report runLedger(const Options& options) {
  Report report;
  SpanRecorder spans;
  Ledger ledger{report, spans, options.seed};
  std::printf("traced run (ledger): 1 worker thread unless noted, seed %llu\n",
              static_cast<unsigned long long>(options.seed));
  const Stopwatch clock;
  {
    const ScopedSpan root{&spans, "ledger"};
    ledger.systemCounts();
    ledger.goldenStop();
    ledger.layerRounds();
    ledger.systemPerKind();
    ledger.machineWorkload();
    ledger.reliabilityWorkload();
  }
  ledger.layerShares();

  std::printf("\nspans by name (self = span time minus child spans), %.1f s total\n",
              clock.seconds());
  std::printf("%-40s %8s %10s %12s %12s\n", "span", "spans", "calls", "total s", "self s");
  for (const auto& [name, t] : spans.totals()) {
    std::printf("%-40s %8llu %10llu %12.4f %12.4f\n", name.c_str(),
                static_cast<unsigned long long>(t.spans), static_cast<unsigned long long>(t.calls),
                t.totalS, t.selfS);
  }
  if (!options.traceOut.empty()) {
    const bool written = spans.writeChromeJson(options.traceOut);
    report.call(written, "writing " + options.traceOut);
    if (written) std::printf("span trace written to %s\n", options.traceOut.c_str());
  }
  return report;
}

}  // namespace perfbench
