#include "bbw/system_sim.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string_view>

#include "bbw/cu_task.hpp"
#include "core/replication.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/state_hash.hpp"

namespace nlft::bbw {

namespace {

using Counters = BbwSystemCounters;

/// The scalar and TEM fields of BbwSystemCounters: the one field list
/// behind minus() and plus().
constexpr std::uint64_t Counters::*kScalarCounters[] = {
    &Counters::eventsProcessed,
    &Counters::busCycles,
    &Counters::busFramesDelivered,
    &Counters::busFramesDropped,
    &Counters::busCrcRejected,
    &Counters::busCorruptionsInjected,
    &Counters::commandFramesDelivered,
    &Counters::duplicateCommandsDropped,
    &Counters::commandsOmitted,
    &Counters::undetectedValueDeliveries,
    &Counters::failSilentEvents,
    &Counters::kernelErrors,
    &Counters::cpuDispatches,
    &Counters::cpuPreemptions,
    &Counters::controlReleases,
    &Counters::controlCompletions,
    &Counters::controlOmissions,
    &Counters::controlDeadlineMisses,
    &Counters::controlBudgetOverruns,
    &Counters::cuCompletions,
    &Counters::errorsMaskedByTem,
};
constexpr std::uint64_t tem::TemStats::*kTemCounters[] = {
    &tem::TemStats::jobs,
    &tem::TemStats::firstCopies,
    &tem::TemStats::secondCopies,
    &tem::TemStats::thirdCopies,
    &tem::TemStats::deliveredCleanly,
    &tem::TemStats::maskedByVote,
    &tem::TemStats::maskedByReplacement,
    &tem::TemStats::comparisonMismatches,
    &tem::TemStats::edmDetectedErrors,
    &tem::TemStats::contextRestores,
    &tem::TemStats::omissionsNoTime,
    &tem::TemStats::omissionsVoteFailed,
    &tem::TemStats::omissionsAborted,
};

template <typename Op>
Counters combine(const Counters& a, const Counters& b, Op op) {
  Counters out;
  for (const auto field : kScalarCounters) out.*field = op(a.*field, b.*field);
  for (std::size_t w = 0; w < kWheelCount; ++w) {
    out.wheelCompletions[w] = op(a.wheelCompletions[w], b.wheelCompletions[w]);
    out.wheelOmissions[w] = op(a.wheelOmissions[w], b.wheelOmissions[w]);
  }
  for (const auto field : kTemCounters) out.tem.*field = op(a.tem.*field, b.tem.*field);
  return out;
}

void addTemStats(tem::TemStats& sum, const tem::TemStats& stats) {
  for (const auto field : kTemCounters) sum.*field += stats.*field;
}

/// Copies the counter fields of a result from `counters`.
void applyCounters(BbwSimResult& result, const Counters& counters) {
  result.commandFramesDelivered = counters.commandFramesDelivered;
  result.duplicateCommandsDropped = counters.duplicateCommandsDropped;
  result.busFramesDropped = counters.busFramesDropped;
  result.failSilentEvents = counters.failSilentEvents;
  result.commandsOmitted = counters.commandsOmitted;
  result.undetectedValueDeliveries = counters.undetectedValueDeliveries;
  result.wheelCompletions = counters.wheelCompletions;
  result.wheelOmissions = counters.wheelOmissions;
  result.cuCompletions = counters.cuCompletions;
  result.errorsMaskedByTem = counters.errorsMaskedByTem;
}

constexpr obs::HistogramSpec kEndToEndLatencySpec{0.0, 50000.0, kEndToEndLatencyBuckets};

}  // namespace

BbwSystemCounters BbwSystemCounters::minus(const BbwSystemCounters& earlier) const {
  return combine(*this, earlier, [](std::uint64_t a, std::uint64_t b) { return a - b; });
}

BbwSystemCounters BbwSystemCounters::plus(const BbwSystemCounters& later) const {
  return combine(*this, later, [](std::uint64_t a, std::uint64_t b) { return a + b; });
}

void EndToEndLatency::add(double latencyUs) {
  ++bins[obs::bucketIndex(kEndToEndLatencySpec, latencyUs)];
  ++samples;
  maxUs = std::max(maxUs, latencyUs);
  windowMaxUs = std::max(windowMaxUs, latencyUs);
}

void EndToEndLatency::merge(const EndToEndLatency& other) {
  for (std::size_t b = 0; b < bins.size(); ++b) bins[b] += other.bins[b];
  samples += other.samples;
  maxUs = std::max(maxUs, other.maxUs);
  windowMaxUs = std::max(windowMaxUs, other.windowMaxUs);
}

namespace {
constexpr std::uint32_t kMsgCommand = 0xC0DE0001;
constexpr std::uint32_t kMsgWheelStatus = 0xC0DE0002;
constexpr std::uint32_t kMsgEmergency = 0xC0DE0003;

using StateHash = util::StateHash;
}  // namespace

const BbwDeployment& bbwDeployment() {
  static const BbwDeployment deployment = [] {
    BbwDeployment d;
    d.bus.slotLength = Duration::microseconds(500);
    d.bus.staticSchedule = {kCuA, kCuB, kWheelNodeBase + 0, kWheelNodeBase + 1,
                            kWheelNodeBase + 2, kWheelNodeBase + 3};
    d.bus.dynamicMinislots = 4;  // event-triggered segment (diagnostics)
    d.bus.minislotLength = Duration::microseconds(250);
    d.controlPeriod = Duration::milliseconds(5);
    d.controlPriority = 10;
    d.cuControlWcet = Duration::microseconds(400);
    d.wheelControlWcet = Duration::microseconds(300);
    d.emergencyPriority = 12;  // above the periodic control task
    d.emergencyWcet = Duration::microseconds(150);
    d.emergencyDeadline = Duration::milliseconds(5);
    d.diagnosticPriority = 1;
    d.diagnosticPeriod = Duration::milliseconds(50);
    d.diagnosticWcet = Duration::microseconds(100);
    return d;
  }();
  return deployment;
}

struct BbwSystemSim::Impl final : sim::EventHandler {
  // Typed-event handlers register in construction order — bus, membership,
  // this simulation's plant step, then each node's kernel in build() — so
  // every simulation built from one config assigns the same indices and a
  // fork's copied event records dispatch to its own components.
  explicit Impl(BbwSimConfig cfg)
      : config{cfg}, bus{simulator, bbwDeployment().bus}, membership{simulator, bus},
        vehicle{cfg.vehicle} {
    plantHandler = simulator.addHandler(*this);
  }

  struct Node {
    net::NodeId id = 0;
    std::unique_ptr<rt::Cpu> cpu;
    std::unique_ptr<rt::RtKernel> kernel;
    std::unique_ptr<tem::TemExecutor> temExecutor;
    std::unique_ptr<tem::FailSilentExecutor> fsExecutor;
    rt::TaskId controlTask{};
    rt::TaskId emergencyTask{};  // CUs only
    // One-shot fault-injection flags, consumed by the next control job.
    bool corruptSecondCopy = false;
    bool detectedErrorNextCopy = false;
    bool omitNextResult = false;
    bool valueFailureArmed = false;
    std::uint64_t valueFailureJob = ~0ULL;  // job whose copies all compute wrong
    // Input snapshot taken once per job and reused by every copy, preserving
    // replica determinism (read input once per job, Fig. 2 task model).
    std::array<std::uint32_t, 4> jobInput{};
    std::uint64_t snapshotJob = ~0ULL;
    // Wheel nodes: command sequence captured with the input snapshot, so the
    // e2e.latency sample spans pedal-read (CU) -> torque-apply (this job).
    std::uint64_t snapshotSeq = ~0ULL;
    // CUs: the command message being queued (buffer reused every job).
    std::vector<std::uint32_t> commandMessage;
  };

  BbwSimConfig config;
  sim::Simulator simulator;
  net::TdmaBus bus;
  net::MembershipService membership;
  Vehicle vehicle;
  std::vector<Node> nodes;  // index i -> node id i+1

  std::array<std::uint32_t, kWheelCount> lastCommandQ8{};
  // Per-wheel duplex arbitration of the two CUs' command streams: the first
  // valid copy of each command sequence wins, the partner's is dropped.
  std::array<tem::DuplexArbiter, kWheelCount> commandArbiter{
      tem::DuplexArbiter{tem::DuplexArbiter::Policy::FirstValid},
      tem::DuplexArbiter{tem::DuplexArbiter::Policy::FirstValid},
      tem::DuplexArbiter{tem::DuplexArbiter::Policy::FirstValid},
      tem::DuplexArbiter{tem::DuplexArbiter::Policy::FirstValid}};
  std::array<std::int32_t, kWheelCount> wheelLimitQ8{-1, -1, -1, -1};
  // End-to-end latency bookkeeping (simulated clock): when each command
  // sequence's pedal input was sampled on a CU (indexed by sequence, which
  // is the dense CU job index; empty = not sampled), which sequence each
  // wheel last received, and which it already measured (one sample per
  // wheel and sequence, taken at the first actuator apply).
  std::vector<std::optional<SimTime>> commandSampleTime;
  std::array<std::uint64_t, kWheelCount> lastCommandSeq{~0ULL, ~0ULL, ~0ULL, ~0ULL};
  std::array<std::uint64_t, kWheelCount> lastMeasuredSeq{~0ULL, ~0ULL, ~0ULL, ~0ULL};
  EndToEndLatency latency;
  std::uint64_t commandFramesDelivered = 0;
  std::uint64_t failSilentEvents = 0;
  std::uint64_t commandsOmitted = 0;
  std::uint64_t undetectedValueDeliveries = 0;
  double stopTimeS = 0.0;
  bool vehicleStopped = false;
  std::optional<SimTime> emergencyPressedAt;
  std::optional<SimTime> emergencyAppliedAt;
  bool emergencyLatched = false;  // the pedal sensor also shows full braking
  std::function<void(const std::string&)> traceSink;
  obs::Registry* metrics = nullptr;
  obs::TraceRecorder* recorder = nullptr;
  bool tapsWired = false;
  std::uint32_t plantHandler = 0;
  // Every event due strictly before this instant has been processed: set by
  // runBefore() and inherited by forks, whose injections must not land in
  // the already-simulated prefix.
  SimTime settledBefore;
  bool forked = false;

  /// Emits one trace line, prefixed with the simulated time in microseconds.
  void trace(const std::string& message) {
    if (!traceSink) return;
    traceSink("t=" + std::to_string(simulator.now().us()) + " " + message);
  }

  /// Mirrors one system event into the Chrome-trace recorder. Every trace()
  /// call site has exactly one record() companion so the differential test
  /// can reconcile recorder event counts against the golden-trace lines.
  void record(net::NodeId pid, const std::string& name, const std::string& category,
              const std::string& detail = {}) {
    if (!recorder) return;
    recorder->instant(pid, 0, name, category, simulator.now(), detail);
  }

  Node& node(net::NodeId id) { return nodes[id - 1]; }
  [[nodiscard]] static bool isWheel(net::NodeId id) { return id >= kWheelNodeBase; }
  [[nodiscard]] static std::size_t wheelIndex(net::NodeId id) { return id - kWheelNodeBase; }

  void build() {
    for (net::NodeId id = kCuA; id <= kWheelNodeBase + 3; ++id) {
      membership.addNode(id);
    }
    membership.setAppReceive(
        [this](net::NodeId receiver, net::NodeId sender, const std::vector<std::uint32_t>& data) {
          onAppData(receiver, sender, data);
        });

    for (net::NodeId id = kCuA; id <= kWheelNodeBase + 3; ++id) {
      nodes.emplace_back();
      Node& n = nodes.back();
      n.id = id;
      n.cpu = std::make_unique<rt::Cpu>(simulator);
      n.cpu->setTraceEnabled(false);  // only emitSpans() reads it (setTraceRecorder)
      n.kernel = std::make_unique<rt::RtKernel>(simulator, *n.cpu);
      n.kernel->setFailSilentHook([this, id] { onNodeSilent(id, /*scheduleRestart=*/true); });
      n.kernel->setResultSink([this, id](const rt::JobResult& result) { onResult(id, result); });

      const BbwDeployment& deployment = bbwDeployment();
      rt::TaskConfig control;
      control.name = isWheel(id) ? "wheel-control" : "brake-distribution";
      control.priority = deployment.controlPriority;
      control.period = config.controlPeriod;
      control.wcet = isWheel(id) ? deployment.wheelControlWcet : deployment.cuControlWcet;

      auto behavior = [this, id](const tem::CopyContext& context) {
        return controlCopy(id, context);
      };
      if (config.nodeType == NodeType::Nlft) {
        n.temExecutor = std::make_unique<tem::TemExecutor>(*n.kernel);
        n.controlTask = n.temExecutor->addCriticalTask(control, behavior);
      } else {
        n.fsExecutor = std::make_unique<tem::FailSilentExecutor>(*n.kernel);
        n.controlTask = n.fsExecutor->addTask(control, behavior);
      }

      if (!isWheel(id)) {
        // Sporadic emergency-brake task (event-triggered path, Section 2.1):
        // released on the pedal-press event, its command bypasses the
        // periodic schedule via the dynamic segment at top priority.
        rt::TaskConfig emergency;
        emergency.name = "emergency-brake";
        emergency.priority = deployment.emergencyPriority;
        emergency.relativeDeadline = deployment.emergencyDeadline;
        emergency.wcet = deployment.emergencyWcet;
        auto emergencyBehavior = [](const tem::CopyContext&) {
          tem::CopyPlan plan;
          plan.executionTime = bbwDeployment().emergencyWcet;
          plan.result = {kMsgEmergency};
          return plan;
        };
        if (n.temExecutor) {
          n.emergencyTask = n.temExecutor->addCriticalTask(emergency, emergencyBehavior);
        } else {
          n.emergencyTask = n.fsExecutor->addTask(emergency, emergencyBehavior);
        }
      } else {
        // Wheels listen for emergency frames directly on the bus (the
        // membership service ignores non-heartbeat traffic).
        bus.attach(id, [this, id](const net::Frame& frame) {
          if (frame.payload.empty() || frame.payload[0] != kMsgEmergency) return;
          if (!membership.alive(id)) return;
          const std::size_t w = wheelIndex(id);
          const auto fullTorque = distributeFixedPoint(256);
          lastCommandQ8[w] = static_cast<std::uint32_t>(fullTorque[w]);
          vehicle.setBrakeTorque(w, static_cast<double>(fullTorque[w]) / 256.0);
          if (!emergencyAppliedAt) emergencyAppliedAt = simulator.now();
        });
      }

      // A non-critical diagnostic task rides the dynamic segment.
      rt::TaskConfig diagnostic;
      diagnostic.name = "diagnostic";
      diagnostic.priority = deployment.diagnosticPriority;
      diagnostic.period = deployment.diagnosticPeriod;
      diagnostic.wcet = deployment.diagnosticWcet;
      tem::addNonCriticalTask(*n.kernel, diagnostic, [this, id](const tem::CopyContext&) {
        tem::CopyPlan plan;
        plan.executionTime = bbwDeployment().diagnosticWcet;
        plan.result = {kMsgWheelStatus};
        bus.sendDynamic(id, id, {kMsgWheelStatus, static_cast<std::uint32_t>(id)});
        return plan;
      });

      n.kernel->start();
    }

    membership.start();
    schedulePlantStep();
  }

  tem::CopyPlan controlCopy(net::NodeId id, const tem::CopyContext& context) {
    Node& n = node(id);
    tem::CopyPlan plan;
    plan.executionTime =
        isWheel(id) ? bbwDeployment().wheelControlWcet : bbwDeployment().cuControlWcet;

    if (context.jobIndex != n.snapshotJob) {
      // Read-input phase: snapshot the sensors once per job (the input read
      // happens at the start of the first copy, before any fault strikes).
      n.snapshotJob = context.jobIndex;
      if (n.valueFailureArmed) {
        n.valueFailureArmed = false;
        n.valueFailureJob = context.jobIndex;
      }
      if (isWheel(id)) {
        const std::size_t w = wheelIndex(id);
        n.jobInput[0] = lastCommandQ8[w];
        n.jobInput[1] = static_cast<std::uint32_t>(std::lround(vehicle.slip(w) * 256.0));
        n.jobInput[2] = static_cast<std::uint32_t>(wheelLimitQ8[w]);
        n.snapshotSeq = lastCommandSeq[w];
      } else {
        // The pedal is read HERE; the job's sequence number equals its job
        // index, so the e2e.latency clock for that sequence starts now (the
        // earlier of the two CU replicas wins, which only widens the sample).
        if (commandSampleTime.size() <= context.jobIndex) {
          commandSampleTime.resize(context.jobIndex + 1);
        }
        std::optional<SimTime>& sampled = commandSampleTime[context.jobIndex];
        if (!sampled) sampled = simulator.now();
        double pedal = config.pedalProfile
                           ? config.pedalProfile(simulator.now().toSeconds())
                           : config.pedal;
        // An emergency press latches the pedal input: the event-triggered
        // message delivers the FIRST actuation, the periodic path sustains it.
        if (emergencyLatched) pedal = 1.0;
        n.jobInput[0] = static_cast<std::uint32_t>(std::lround(pedal * 256.0));
      }
    }

    if (n.detectedErrorNextCopy && context.copyIndex == 1) {
      n.detectedErrorNextCopy = false;
      plan.end = tem::CopyPlan::End::DetectedError;
      plan.executionTime = Duration::microseconds(120);
      plan.error = {rt::ErrorEvent::Source::HardwareException, 0};
      return plan;
    }

    if (isWheel(id)) {
      std::int32_t newLimit = 0;
      const std::int32_t torque = wheelControlFixedPoint(
          static_cast<std::int32_t>(n.jobInput[0]), static_cast<std::int32_t>(n.jobInput[1]),
          static_cast<std::int32_t>(n.jobInput[2]), &newLimit);
      plan.result = {static_cast<std::uint32_t>(torque), static_cast<std::uint32_t>(newLimit)};
    } else {
      const double pedal = static_cast<double>(n.jobInput[0]) / 256.0;
      const auto torques = distributeBrakeForce(config.centralUnit, pedal);
      plan.result.reserve(kWheelCount);
      for (double torque : torques) {
        plan.result.push_back(static_cast<std::uint32_t>(std::lround(torque * 256.0)));
      }
    }

    if (n.corruptSecondCopy && context.copyIndex == 2) {
      n.corruptSecondCopy = false;
      plan.result[0] ^= 1u << 7;  // silent data corruption
    }
    if (context.jobIndex == n.valueFailureJob) {
      // Coverage-gap fault: every copy computes the same wrong torque, so
      // comparison and vote pass it through (bit 16 = 256 Nm in q8.8).
      plan.result[0] ^= 1u << 16;
    }
    return plan;
  }

  void onResult(net::NodeId id, const rt::JobResult& result) {
    if (!isWheel(id) && node(id).emergencyTask == result.task &&
        !result.data.empty() && result.data[0] == kMsgEmergency) {
      bus.sendDynamic(id, 0 /* wins every minislot arbitration */, {kMsgEmergency});
      return;
    }
    if (node(id).controlTask == result.task) {
      Node& n = node(id);
      if (n.omitNextResult) {
        // Injected omission failure: the write-output phase is suppressed;
        // the command for this period is simply missing (P_OM).
        n.omitNextResult = false;
        ++commandsOmitted;
        trace("omission node=" + std::to_string(id) + " job=" + std::to_string(result.jobIndex));
        record(id, "omission", "failure", "job=" + std::to_string(result.jobIndex));
        return;
      }
      if (result.jobIndex == n.valueFailureJob) {
        n.valueFailureJob = ~0ULL;
        ++undetectedValueDeliveries;
        trace("undetected-value node=" + std::to_string(id) +
              " job=" + std::to_string(result.jobIndex));
        record(id, "undetected-value", "failure", "job=" + std::to_string(result.jobIndex));
      }
      if (isWheel(id)) {
        const std::size_t w = wheelIndex(id);
        wheelLimitQ8[w] = static_cast<std::int32_t>(result.data[1]);
        vehicle.setBrakeTorque(w, static_cast<double>(result.data[0]) / 256.0);
        observeEndToEnd(w, n.snapshotSeq);
      } else {
        // Replica determinism: both CUs tag the command of job k with
        // sequence number k, so receivers can arbitrate the duplex pair.
        std::vector<std::uint32_t>& message = n.commandMessage;
        message.clear();
        message.push_back(kMsgCommand);
        message.push_back(static_cast<std::uint32_t>(result.jobIndex));
        message.insert(message.end(), result.data.begin(), result.data.end());
        membership.queueAppData(id, std::span<const std::uint32_t>{message});
      }
    }
  }

  void onAppData(net::NodeId receiver, net::NodeId sender,
                 const std::vector<std::uint32_t>& data) {
    if (data.empty() || data[0] != kMsgCommand) return;
    if (!isWheel(receiver) || sender > kCuB) return;
    if (data.size() < 2 + kWheelCount) return;
    const std::size_t w = wheelIndex(receiver);
    const std::uint64_t sequence = data[1];
    const int replica = sender == kCuA ? 0 : 1;
    const std::span<const std::uint32_t> command{data.begin() + 2, data.end()};
    if (!commandArbiter[w].accept(replica, sequence, command, simulator.now())) {
      return;  // duplicate from the partner CU
    }
    lastCommandQ8[w] = command[w];
    lastCommandSeq[w] = sequence;
    ++commandFramesDelivered;
  }

  /// Records one pedal-sample -> actuator-apply latency: first apply of
  /// each command sequence per wheel, on the simulated clock (deterministic,
  /// hence golden).
  void observeEndToEnd(std::size_t wheel, std::uint64_t sequence) {
    if (sequence == ~0ULL) return;
    if (lastMeasuredSeq[wheel] == sequence) return;  // later applies hold the value
    if (sequence >= commandSampleTime.size()) return;
    const std::optional<SimTime>& sampled = commandSampleTime[sequence];
    if (!sampled) return;
    lastMeasuredSeq[wheel] = sequence;
    latency.add(static_cast<double>((simulator.now() - *sampled).us()));
  }

  void onNodeSilent(net::NodeId id, bool scheduleRestart) {
    ++failSilentEvents;
    membership.setAlive(id, false);
    trace("node-silent node=" + std::to_string(id));
    record(id, "node-silent", "node");
    if (isWheel(id)) {
      // The actuator watchdog releases the brake of a dead wheel node.
      vehicle.setBrakeTorque(wheelIndex(id), 0.0);
      // A restarting node re-applies the command it held when it died
      // ("use a previous value"); that apply measures the outage, not a
      // pedal->actuator chain traversal, so it must not enter e2e.latency.
      lastCommandSeq[wheelIndex(id)] = ~0ULL;
    }
    if (scheduleRestart) {
      simulator.scheduleAfter(config.restartTime, [this, id] {
        node(id).kernel->restart();
        membership.setAlive(id, true);
        trace("node-restarted node=" + std::to_string(id));
        record(id, "node-restarted", "node");
      });
    }
  }

  /// Routes kernel, membership and bus events into the trace sink AND the
  /// Chrome-trace recorder. Wired once, when the first observer (sink,
  /// recorder or metrics registry) is installed — after build(), so `nodes`
  /// is stable.
  void wireTaps() {
    if (tapsWired) return;
    tapsWired = true;
    for (Node& n : nodes) {
      const net::NodeId id = n.id;
      const rt::TaskId controlTask = n.controlTask;
      n.kernel->setEventTap([this, id, controlTask](const rt::KernelEvent& event) {
        switch (event.kind) {
          case rt::KernelEvent::Kind::TaskError:
            trace("task-error node=" + std::to_string(id) +
                  " task=" + std::to_string(event.task.value) +
                  " job=" + std::to_string(event.jobIndex));
            record(id, "task-error", "kernel", "job=" + std::to_string(event.jobIndex));
            break;
          case rt::KernelEvent::Kind::KernelError:
            trace("kernel-error node=" + std::to_string(id));
            record(id, "kernel-error", "kernel");
            break;
          case rt::KernelEvent::Kind::JobOmitted:
            if (event.task.value == controlTask.value) {
              trace("job-omitted node=" + std::to_string(id) +
                    " job=" + std::to_string(event.jobIndex));
              record(id, "job-omitted", "kernel", "job=" + std::to_string(event.jobIndex));
            }
            break;
          default:
            break;  // completions are too frequent to trace
        }
      });
    }
    membership.setMembershipTap([this](net::NodeId observer, net::NodeId peer, bool member) {
      trace("membership observer=" + std::to_string(observer) + " peer=" + std::to_string(peer) +
            " member=" + (member ? std::string{"1"} : std::string{"0"}));
      record(observer, "membership-change", "membership",
             "peer=" + std::to_string(peer) + " member=" + (member ? "1" : "0"));
    });
    bus.setDropTap([this](const net::Frame& frame, const char* reason) {
      trace("bus-drop sender=" + std::to_string(frame.sender) + " reason=" + reason);
      record(frame.sender, "bus-drop", "bus", reason);
    });
  }

  /// Folds a finished run's counters and end-to-end latencies into the
  /// attached registry — the one export of run() and finishSpliced().
  void exportMetrics(const BbwSystemCounters& c, const EndToEndLatency& e2e) {
    if (!metrics) return;
    obs::Registry& m = *metrics;
    m.add("bus.cycles", c.busCycles);
    m.add("bus.frames_delivered", c.busFramesDelivered);
    m.add("bus.frames_dropped", c.busFramesDropped);
    m.add("bus.crc_rejected", c.busCrcRejected);
    m.add("bus.corruptions_injected", c.busCorruptionsInjected);
    m.add("sim.events_processed", c.eventsProcessed);
    m.add("sys.command_frames_delivered", c.commandFramesDelivered);
    m.add("sys.commands_omitted", c.commandsOmitted);
    m.add("sys.undetected_value_deliveries", c.undetectedValueDeliveries);
    m.add("sys.fail_silent_events", c.failSilentEvents);
    m.add("kernel.preemptions", c.cpuPreemptions);
    m.add("kernel.dispatches", c.cpuDispatches);
    m.add("kernel.errors", c.kernelErrors);
    m.add("kernel.control.releases", c.controlReleases);
    m.add("kernel.control.completions", c.controlCompletions);
    m.add("kernel.control.omissions", c.controlOmissions);
    m.add("kernel.control.deadline_misses", c.controlDeadlineMisses);
    m.add("kernel.control.budget_overruns", c.controlBudgetOverruns);
    if (config.nodeType == NodeType::Nlft) {
      m.add("tem.jobs", c.tem.jobs);
      m.add("tem.copies.first", c.tem.firstCopies);
      m.add("tem.copies.second", c.tem.secondCopies);
      m.add("tem.copies.third", c.tem.thirdCopies);
      m.add("tem.vote.delivered_cleanly", c.tem.deliveredCleanly);
      m.add("tem.vote.masked_by_vote", c.tem.maskedByVote);
      m.add("tem.vote.masked_by_replacement", c.tem.maskedByReplacement);
      m.add("tem.vote.comparison_mismatches", c.tem.comparisonMismatches);
      m.add("tem.edm_detected_errors", c.tem.edmDetectedErrors);
      m.add("tem.omissions.no_time", c.tem.omissionsNoTime);
      m.add("tem.omissions.vote_failed", c.tem.omissionsVoteFailed);
      m.add("tem.omissions.aborted", c.tem.omissionsAborted);
    }
    if (e2e.samples > 0) {
      std::array<std::uint64_t, kEndToEndLatencyBuckets> bins{};
      std::copy(e2e.bins.begin(), e2e.bins.end(), bins.begin());
      m.addHistogram("e2e.latency", kEndToEndLatencySpec, bins);
      m.gaugeMax("e2e.latency.max_us", e2e.maxUs);
    }
  }

  /// Exports each node's CPU execution segments as Chrome complete spans:
  /// pid = node id, one tid per distinct task label (tid 0 is reserved for
  /// node-scope instants).
  void emitSpans() {
    if (!recorder) return;
    recorder->setProcessName(0, "vehicle");
    for (const Node& n : nodes) {
      recorder->setProcessName(n.id, (isWheel(n.id) ? "wheel-node-" : "central-unit-") +
                                         std::to_string(n.id));
      struct Lane {
        std::uint32_t tid;
        std::string name;
      };
      std::map<std::string_view, Lane> lanes;
      for (const rt::ExecutionSegment& segment : n.cpu->trace()) {
        auto [it, inserted] = lanes.try_emplace(
            segment.label,
            Lane{static_cast<std::uint32_t>(lanes.size() + 1), std::string{segment.label}});
        const Lane& lane = it->second;
        if (inserted) recorder->setThreadName(n.id, lane.tid, lane.name);
        recorder->complete(n.id, lane.tid, lane.name, "cpu", segment.start,
                           segment.end - segment.start);
      }
    }
  }

  /// Snapshot of the monotone counters (see BbwSystemCounters).
  [[nodiscard]] BbwSystemCounters counterSnapshot() const {
    BbwSystemCounters c;
    c.eventsProcessed = simulator.processedEvents();
    c.busCycles = bus.cyclesCompleted();
    c.busFramesDelivered = bus.framesDelivered();
    c.busFramesDropped = bus.framesDropped();
    c.busCrcRejected = bus.crcRejected();
    c.busCorruptionsInjected = bus.corruptionsInjected();
    c.commandFramesDelivered = commandFramesDelivered;
    for (const auto& arbiter : commandArbiter) {
      c.duplicateCommandsDropped += arbiter.duplicatesDropped();
    }
    c.commandsOmitted = commandsOmitted;
    c.undetectedValueDeliveries = undetectedValueDeliveries;
    c.failSilentEvents = failSilentEvents;
    for (const Node& n : nodes) {
      c.kernelErrors += n.kernel->kernelErrors();
      c.cpuDispatches += n.cpu->dispatches();
      c.cpuPreemptions += n.cpu->preemptions();
      const rt::TaskStats& stats = n.kernel->stats(n.controlTask);
      c.controlReleases += stats.releases;
      c.controlCompletions += stats.completions;
      c.controlOmissions += stats.omissions;
      c.controlDeadlineMisses += stats.deadlineMisses;
      c.controlBudgetOverruns += stats.budgetOverruns;
      if (isWheel(n.id)) {
        c.wheelCompletions[wheelIndex(n.id)] = stats.completions;
        c.wheelOmissions[wheelIndex(n.id)] = stats.omissions;
      } else {
        c.cuCompletions += stats.completions;
      }
      if (n.temExecutor) {
        const tem::TemStats& temStats = n.temExecutor->stats(n.controlTask);
        c.errorsMaskedByTem += temStats.maskedByVote + temStats.maskedByReplacement;
        addTemStats(c.tem, temStats);
        if (!isWheel(n.id)) addTemStats(c.tem, n.temExecutor->stats(n.emergencyTask));
      }
    }
    return c;
  }

  /// Digest of the evolution-relevant state only (see the header docs):
  /// everything that determines how the simulation behaves from here on,
  /// NOTHING that merely records how it got here.
  [[nodiscard]] std::uint64_t behaviorFingerprint() const {
    StateHash digest;
    digest.i64(simulator.now().us());
    digest.u64(simulator.pendingEvents());
    digest.f64(vehicle.speedMps());
    digest.f64(vehicle.distanceM());
    for (std::size_t w = 0; w < kWheelCount; ++w) {
      digest.f64(vehicle.wheelSpeedRadps(w));
      digest.f64(vehicle.brakeTorque(w));
    }
    digest.boolean(vehicleStopped);
    digest.f64(stopTimeS);
    for (const std::uint32_t command : lastCommandQ8) digest.u64(command);
    for (const std::int32_t limit : wheelLimitQ8) digest.i64(limit);
    for (const std::uint64_t seq : lastCommandSeq) digest.u64(seq);
    // Future e2e samples read the pedal-sample times of sequences a wheel
    // has not measured yet. Frames carry CU job indices, which only grow,
    // so those are the sequences after the least advanced wheel's last
    // measured one: two runs with equal digests take equal future samples.
    std::uint64_t firstUnmeasured = ~0ULL;
    for (const std::uint64_t seq : lastMeasuredSeq) {
      digest.u64(seq);
      firstUnmeasured = std::min(firstUnmeasured, seq == ~0ULL ? 0 : seq + 1);
    }
    digest.u64(commandSampleTime.size());
    for (std::size_t seq = firstUnmeasured; seq < commandSampleTime.size(); ++seq) {
      digest.i64(commandSampleTime[seq] ? commandSampleTime[seq]->us() : -1);
    }
    digest.boolean(emergencyLatched);
    digest.i64(emergencyPressedAt ? emergencyPressedAt->us() : -1);
    digest.i64(emergencyAppliedAt ? emergencyAppliedAt->us() : -1);
    digest.u64(membership.stateDigest());
    digest.u64(bus.stateDigest());
    for (const auto& arbiter : commandArbiter) digest.u64(arbiter.stateDigest());
    for (const Node& n : nodes) {
      digest.boolean(n.kernel->stopped());
      digest.boolean(n.corruptSecondCopy);
      digest.boolean(n.detectedErrorNextCopy);
      digest.boolean(n.omitNextResult);
      digest.boolean(n.valueFailureArmed);
      digest.u64(n.valueFailureJob);
      digest.u64(n.snapshotJob);
      digest.u64(n.snapshotSeq);
      for (const std::uint32_t input : n.jobInput) digest.u64(input);
    }
    return digest.finish();
  }

  /// See BbwSystemSim::injectionQuiescent.
  [[nodiscard]] bool injectionQuiescent() const {
    for (const Node& n : nodes) {
      if (n.corruptSecondCopy || n.detectedErrorNextCopy || n.omitNextResult ||
          n.valueFailureArmed || n.valueFailureJob != ~0ULL) {
        return false;
      }
    }
    return !bus.injectionArmed();
  }

  /// Advances the event loop to `until` (the run() loop without result
  /// finalization).
  void advanceTo(SimTime until) {
    const SimTime limit = std::min(until, SimTime::zero() + config.horizon);
    while (simulator.now() < limit && !vehicleStopped) {
      if (!simulator.step()) break;
    }
  }

  void schedulePlantStep() {
    simulator.scheduleAfter(config.plantStep, plantHandler, 0, 0, sim::EventPriority::Observer);
  }

  /// The plant step (this simulation's only typed event).
  void onEvent(std::uint32_t, std::uint64_t) override {
    vehicle.step(config.plantStep.toSeconds());
    if (vehicle.stopped()) {
      if (!vehicleStopped) {
        vehicleStopped = true;
        stopTimeS = simulator.now().toSeconds();
        char line[64];
        std::snprintf(line, sizeof line, "vehicle-stopped distance=%.3f", vehicle.distanceM());
        trace(line);
        record(0, "vehicle-stopped", "vehicle", line + sizeof("vehicle-stopped ") - 1);
      }
      return;  // plant settled; no more stepping needed
    }
    schedulePlantStep();
  }

  /// Schedules one injection closure, never into the settled prefix.
  void inject(SimTime at, sim::Simulator::Callback fire) {
    if (at < settledBefore) {
      throw std::logic_error("BbwSystemSim: injection into the already simulated prefix");
    }
    simulator.scheduleAt(at, std::move(fire), sim::EventPriority::FaultInjection);
  }

  /// See BbwSystemSim::forkable.
  [[nodiscard]] bool forkable() const {
    if (traceSink || recorder || simulator.pendingClosures() != 0) return false;
    for (const Node& n : nodes) {
      if (!n.cpu->idle()) return false;
      for (std::uint32_t task = 0; task < n.kernel->taskCount(); ++task) {
        if (n.kernel->jobActive(rt::TaskId{task})) return false;
      }
    }
    return true;
  }

  /// Copies every data member of `other` (built from the same config);
  /// wiring — hooks, taps, sinks, the registry — stays this simulation's.
  void copyStateFrom(const Impl& other) {
    simulator.copyStateFrom(other.simulator);
    bus.copyStateFrom(other.bus);
    membership.copyStateFrom(other.membership);
    vehicle.copyStateFrom(other.vehicle);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      Node& n = nodes[i];
      const Node& source = other.nodes[i];
      n.cpu->copyStateFrom(*source.cpu);
      n.kernel->copyStateFrom(*source.kernel);
      if (n.temExecutor) n.temExecutor->copyStateFrom(*source.temExecutor);
      if (n.fsExecutor) n.fsExecutor->copyStateFrom(*source.fsExecutor);
      n.corruptSecondCopy = source.corruptSecondCopy;
      n.detectedErrorNextCopy = source.detectedErrorNextCopy;
      n.omitNextResult = source.omitNextResult;
      n.valueFailureArmed = source.valueFailureArmed;
      n.valueFailureJob = source.valueFailureJob;
      n.jobInput = source.jobInput;
      n.snapshotJob = source.snapshotJob;
      n.snapshotSeq = source.snapshotSeq;
    }
    lastCommandQ8 = other.lastCommandQ8;
    for (std::size_t w = 0; w < kWheelCount; ++w) {
      commandArbiter[w].copyStateFrom(other.commandArbiter[w]);
    }
    wheelLimitQ8 = other.wheelLimitQ8;
    commandSampleTime = other.commandSampleTime;
    lastCommandSeq = other.lastCommandSeq;
    lastMeasuredSeq = other.lastMeasuredSeq;
    latency = other.latency;
    commandFramesDelivered = other.commandFramesDelivered;
    failSilentEvents = other.failSilentEvents;
    commandsOmitted = other.commandsOmitted;
    undetectedValueDeliveries = other.undetectedValueDeliveries;
    stopTimeS = other.stopTimeS;
    vehicleStopped = other.vehicleStopped;
    emergencyPressedAt = other.emergencyPressedAt;
    emergencyAppliedAt = other.emergencyAppliedAt;
    emergencyLatched = other.emergencyLatched;
    // Events at the golden clock itself may be half processed, so the
    // prefix is settled up to the later of runBefore()'s bound and now+1.
    settledBefore = std::max(other.settledBefore, other.simulator.now() + Duration::microseconds(1));
  }
};

namespace {

/// Configs a fork may cross: every field equal; the pedal profile, which
/// cannot be compared, must be set on both sides or neither, with one type.
[[nodiscard]] bool sameConfig(const BbwSimConfig& a, const BbwSimConfig& b) {
  return a.nodeType == b.nodeType && a.initialSpeedMps == b.initialSpeedMps &&
         a.pedal == b.pedal && static_cast<bool>(a.pedalProfile) == static_cast<bool>(b.pedalProfile) &&
         a.pedalProfile.target_type() == b.pedalProfile.target_type() &&
         a.controlPeriod == b.controlPeriod && a.plantStep == b.plantStep &&
         a.horizon == b.horizon && a.restartTime == b.restartTime && a.vehicle == b.vehicle &&
         a.centralUnit == b.centralUnit;
}

}  // namespace

BbwSystemSim::BbwSystemSim(BbwSimConfig config) : impl_{std::make_unique<Impl>(config)} {
  impl_->vehicle.reset(config.initialSpeedMps);
  impl_->build();
}

BbwSystemSim::~BbwSystemSim() = default;

sim::Simulator& BbwSystemSim::simulator() { return impl_->simulator; }
const Vehicle& BbwSystemSim::vehicle() const { return impl_->vehicle; }

void BbwSystemSim::injectComputationFault(net::NodeId node, SimTime at) {
  impl_->inject(at, [this, node] {
    impl_->trace("inject computation-fault node=" + std::to_string(node));
    impl_->record(node, "computation-fault", "inject");
    impl_->node(node).corruptSecondCopy = true;
  });
}

void BbwSystemSim::injectDetectedError(net::NodeId node, SimTime at) {
  impl_->inject(at, [this, node] {
    impl_->trace("inject detected-error node=" + std::to_string(node));
    impl_->record(node, "detected-error", "inject");
    impl_->node(node).detectedErrorNextCopy = true;
  });
}

void BbwSystemSim::injectOmissionFailure(net::NodeId node, SimTime at) {
  impl_->inject(at, [this, node] {
    impl_->trace("inject omission node=" + std::to_string(node));
    impl_->record(node, "omission", "inject");
    impl_->node(node).omitNextResult = true;
  });
}

void BbwSystemSim::injectValueFailure(net::NodeId node, SimTime at) {
  impl_->inject(at, [this, node] {
    impl_->trace("inject value-failure node=" + std::to_string(node));
    impl_->record(node, "value-failure", "inject");
    impl_->node(node).valueFailureArmed = true;
  });
}

void BbwSystemSim::injectKernelError(net::NodeId node, SimTime at) {
  impl_->inject(at, [this, node] {
    impl_->trace("inject kernel-error node=" + std::to_string(node));
    impl_->record(node, "kernel-error", "inject");
    impl_->node(node).kernel->reportKernelError({rt::ErrorEvent::Source::HardwareException, 0});
  });
}

void BbwSystemSim::setTraceSink(std::function<void(const std::string&)> sink) {
  impl_->traceSink = std::move(sink);
  impl_->wireTaps();
}

void BbwSystemSim::setMetricsRegistry(obs::Registry* registry) {
  impl_->metrics = registry;
  impl_->wireTaps();
}

void BbwSystemSim::setTraceRecorder(obs::TraceRecorder* recorder) {
  impl_->recorder = recorder;
  for (Impl::Node& n : impl_->nodes) n.cpu->setTraceEnabled(recorder != nullptr);
  impl_->wireTaps();
}

const net::MembershipService& BbwSystemSim::membership() const { return impl_->membership; }

net::MembershipService& BbwSystemSim::membership() { return impl_->membership; }

void BbwSystemSim::pressEmergencyBrake(SimTime at) {
  if (impl_->forked) {
    throw std::logic_error("BbwSystemSim::pressEmergencyBrake: not available on a fork");
  }
  impl_->simulator.scheduleAt(at, [this] {
    Impl& impl = *impl_;
    impl.emergencyLatched = true;
    if (!impl.emergencyPressedAt) impl.emergencyPressedAt = impl.simulator.now();
    for (const net::NodeId cu : {kCuA, kCuB}) {
      if (!impl.node(cu).kernel->stopped()) {
        impl.node(cu).kernel->releaseSporadic(impl.node(cu).emergencyTask);
      }
    }
  }, sim::EventPriority::Application);
}

void BbwSystemSim::injectBusCorruption(net::NodeId node, SimTime at) {
  impl_->inject(at, [this, node] {
    impl_->trace("inject bus-corruption node=" + std::to_string(node));
    impl_->record(node, "bus-corruption", "inject");
    impl_->bus.corruptNextFrame(node);
  });
}

void BbwSystemSim::injectBusCorruption(net::NodeId node, SimTime at,
                                       std::vector<std::uint32_t> flipBits) {
  impl_->inject(at, [this, node, flipBits = std::move(flipBits)] {
    impl_->trace("inject bus-corruption node=" + std::to_string(node));
    impl_->record(node, "bus-corruption", "inject");
    impl_->bus.corruptNextFrame(node, flipBits);
  });
}

BbwSimResult BbwSystemSim::run() {
  Impl& impl = *impl_;
  const SimTime limit = SimTime::zero() + impl.config.horizon;
  while (impl.simulator.now() < limit && !impl.vehicleStopped) {
    if (!impl.simulator.step()) break;
  }

  BbwSimResult result;
  result.stopped = impl.vehicleStopped;
  result.stoppingDistanceM = impl.vehicle.distanceM();
  result.stopTimeS = impl.stopTimeS;
  const BbwSystemCounters counters = impl.counterSnapshot();
  applyCounters(result, counters);
  if (impl.emergencyPressedAt && impl.emergencyAppliedAt) {
    result.emergencyBrakeLatency = *impl.emergencyAppliedAt - *impl.emergencyPressedAt;
  }
  for (const auto& n : impl.nodes) {
    if (n.kernel->stopped() || !impl.membership.alive(n.id)) {
      result.nodesDownAtEnd.insert(n.id);
    }
  }
  impl.exportMetrics(counters, impl.latency);
  impl.emitSpans();
  return result;
}

BbwSimResult BbwSystemSim::finishSpliced(const BbwSimResult& final, const BbwSystemCounters& tail,
                                         const EndToEndLatency& tailLatency) {
  Impl& impl = *impl_;
  if (impl.traceSink || impl.recorder) {
    throw std::logic_error("BbwSystemSim::finishSpliced: trace output cannot be spliced");
  }
  const BbwSystemCounters total = impl.counterSnapshot().plus(tail);
  EndToEndLatency latency = impl.latency;
  latency.merge(tailLatency);
  BbwSimResult result = final;
  applyCounters(result, total);
  impl.exportMetrics(total, latency);
  return result;
}

void BbwSystemSim::runUntil(SimTime until) {
  impl_->latency.windowMaxUs = 0.0;
  impl_->advanceTo(until);
}

void BbwSystemSim::runBefore(SimTime instant) {
  Impl& impl = *impl_;
  impl.latency.windowMaxUs = 0.0;
  const SimTime limit = std::min(instant, SimTime::zero() + impl.config.horizon);
  while (!impl.vehicleStopped && impl.simulator.stepBefore(limit)) {
  }
  impl.settledBefore = std::max(impl.settledBefore, limit);
}

bool BbwSystemSim::forkable() const { return impl_->forkable(); }

void BbwSystemSim::forkFrom(const BbwSystemSim& golden) {
  Impl& impl = *impl_;
  const Impl& source = *golden.impl_;
  if (&impl == &source) throw std::logic_error("BbwSystemSim::forkFrom: cannot fork itself");
  if (impl.traceSink || impl.recorder || source.traceSink || source.recorder) {
    throw std::logic_error("BbwSystemSim::forkFrom: trace output cannot be forked");
  }
  if (impl.forked || impl.simulator.processedEvents() != 0 ||
      impl.simulator.pendingClosures() != 0) {
    throw std::logic_error("BbwSystemSim::forkFrom: the target has run or has injections armed");
  }
  if (!sameConfig(impl.config, source.config)) {
    throw std::logic_error("BbwSystemSim::forkFrom: the configs differ");
  }
  if (!source.forkable()) {
    throw std::logic_error("BbwSystemSim::forkFrom: the golden state is not quiescent");
  }
  impl.copyStateFrom(source);
  impl.forked = true;
}

BbwSystemCounters BbwSystemSim::counterSnapshot() const { return impl_->counterSnapshot(); }

const EndToEndLatency& BbwSystemSim::endToEndLatency() const { return impl_->latency; }

std::uint64_t BbwSystemSim::behaviorFingerprint() const { return impl_->behaviorFingerprint(); }

bool BbwSystemSim::injectionQuiescent() const { return impl_->injectionQuiescent(); }

}  // namespace nlft::bbw
