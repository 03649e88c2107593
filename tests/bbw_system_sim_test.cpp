// Closed-loop integration tests: six nodes, TDMA bus, kernels, TEM, vehicle.
#include "bbw/system_sim.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <tuple>

#include "obs/metrics.hpp"

namespace nlft::bbw {
namespace {

using util::Duration;
using util::SimTime;

BbwSimConfig baseConfig(NodeType type) {
  BbwSimConfig config;
  config.nodeType = type;
  return config;
}

TEST(BbwSystem, FaultFreeStopNlft) {
  BbwSystemSim sim{baseConfig(NodeType::Nlft)};
  const BbwSimResult result = sim.run();
  EXPECT_TRUE(result.stopped);
  EXPECT_GT(result.stoppingDistanceM, 30.0);
  EXPECT_LT(result.stoppingDistanceM, 80.0);
  EXPECT_GT(result.cuCompletions, 100u);
  EXPECT_GT(result.commandFramesDelivered, 100u);
  EXPECT_TRUE(result.nodesDownAtEnd.empty());
  EXPECT_EQ(result.failSilentEvents, 0u);
  for (std::size_t w = 0; w < kWheelCount; ++w) {
    EXPECT_GT(result.wheelCompletions[w], 100u) << w;
    EXPECT_EQ(result.wheelOmissions[w], 0u) << w;
  }
}

TEST(BbwSystem, FaultFreeStopsAreIdenticalAcrossNodeTypes) {
  const BbwSimResult nlft = BbwSystemSim{baseConfig(NodeType::Nlft)}.run();
  const BbwSimResult fs = BbwSystemSim{baseConfig(NodeType::FailSilent)}.run();
  ASSERT_TRUE(nlft.stopped);
  ASSERT_TRUE(fs.stopped);
  // Same control law, same network: fault-free behaviour must match closely.
  EXPECT_NEAR(nlft.stoppingDistanceM, fs.stoppingDistanceM, 0.5);
}

TEST(BbwSystem, NlftMasksComputationFaultWithoutDegradation) {
  const BbwSimResult clean = BbwSystemSim{baseConfig(NodeType::Nlft)}.run();

  BbwSystemSim faulty{baseConfig(NodeType::Nlft)};
  faulty.injectComputationFault(kWheelNodeBase + 0, SimTime::fromUs(300'000));
  const BbwSimResult result = faulty.run();

  EXPECT_TRUE(result.stopped);
  EXPECT_GE(result.errorsMaskedByTem, 1u);
  EXPECT_TRUE(result.nodesDownAtEnd.empty());
  EXPECT_NEAR(result.stoppingDistanceM, clean.stoppingDistanceM, 0.2);
}

TEST(BbwSystem, NlftMasksDetectedErrorByReplacement) {
  const BbwSimResult clean = BbwSystemSim{baseConfig(NodeType::Nlft)}.run();
  BbwSystemSim faulty{baseConfig(NodeType::Nlft)};
  faulty.injectDetectedError(kWheelNodeBase + 1, SimTime::fromUs(500'000));
  const BbwSimResult result = faulty.run();
  EXPECT_TRUE(result.stopped);
  EXPECT_GE(result.errorsMaskedByTem, 1u);
  EXPECT_NEAR(result.stoppingDistanceM, clean.stoppingDistanceM, 0.2);
}

TEST(BbwSystem, FsNodeDetectedErrorSilencesWheelAndLengthensStop) {
  const BbwSimResult clean = BbwSystemSim{baseConfig(NodeType::FailSilent)}.run();

  BbwSystemSim faulty{baseConfig(NodeType::FailSilent)};
  faulty.injectDetectedError(kWheelNodeBase + 0, SimTime::fromUs(300'000));
  const BbwSimResult result = faulty.run();

  EXPECT_TRUE(result.stopped);
  EXPECT_GE(result.failSilentEvents, 1u);
  // Three-wheel braking for ~3 s (the restart time covers most of the stop).
  EXPECT_GT(result.stoppingDistanceM, clean.stoppingDistanceM * 1.05);
}

TEST(BbwSystem, NlftBeatsFsUnderTheSameFault) {
  BbwSystemSim nlft{baseConfig(NodeType::Nlft)};
  nlft.injectDetectedError(kWheelNodeBase + 0, SimTime::fromUs(300'000));
  const BbwSimResult nlftResult = nlft.run();

  BbwSystemSim fs{baseConfig(NodeType::FailSilent)};
  fs.injectDetectedError(kWheelNodeBase + 0, SimTime::fromUs(300'000));
  const BbwSimResult fsResult = fs.run();

  // The headline of the paper at system scale: the NLFT node masks the
  // transient locally; the FS node drops out and the stop degrades.
  EXPECT_LT(nlftResult.stoppingDistanceM, fsResult.stoppingDistanceM - 1.0);
}

TEST(BbwSystem, KernelErrorSilencesNodeOnBothNodeTypes) {
  for (const NodeType type : {NodeType::Nlft, NodeType::FailSilent}) {
    BbwSystemSim sim{baseConfig(type)};
    sim.injectKernelError(kWheelNodeBase + 2, SimTime::fromUs(200'000));
    const BbwSimResult result = sim.run();
    EXPECT_TRUE(result.stopped) << static_cast<int>(type);
    EXPECT_GE(result.failSilentEvents, 1u);
  }
}

TEST(BbwSystem, CentralUnitFailoverKeepsBraking) {
  const BbwSimResult clean = BbwSystemSim{baseConfig(NodeType::Nlft)}.run();
  BbwSystemSim sim{baseConfig(NodeType::Nlft)};
  sim.injectKernelError(kCuA, SimTime::fromUs(100'000));
  const BbwSimResult result = sim.run();
  EXPECT_TRUE(result.stopped);
  // The partner CU provides the service: braking barely affected.
  EXPECT_NEAR(result.stoppingDistanceM, clean.stoppingDistanceM, 1.0);
}

TEST(BbwSystem, NodeRestartsAndReintegrates) {
  BbwSimConfig config = baseConfig(NodeType::Nlft);
  config.restartTime = Duration::milliseconds(500);
  config.horizon = Duration::seconds(15);
  BbwSystemSim sim{config};
  sim.injectKernelError(kWheelNodeBase + 0, SimTime::fromUs(200'000));
  const BbwSimResult result = sim.run();
  EXPECT_TRUE(result.stopped);
  // With a quick restart, the wheel node is back long before the end.
  EXPECT_TRUE(result.nodesDownAtEnd.empty());
}

TEST(BbwSystem, FsComputationFaultIsSilentDataCorruption) {
  // On a fail-silent node a pure data fault escapes detection: the wrong
  // brake torque reaches the actuator (exactly the coverage gap that makes
  // C_D < 1 in the reliability analysis). The stop still happens -- one
  // wheel briefly brakes with a slightly different torque.
  BbwSystemSim sim{baseConfig(NodeType::FailSilent)};
  sim.injectComputationFault(kWheelNodeBase + 3, SimTime::fromUs(400'000));
  const BbwSimResult result = sim.run();
  EXPECT_TRUE(result.stopped);
  EXPECT_EQ(result.failSilentEvents, 0u);  // nothing detected it
}

TEST(BbwSystem, LostCommandFrameIsBridgedByPreviousValue) {
  // A corrupted CU frame drops one command broadcast; wheel nodes keep
  // braking with the previous value and the stop is essentially unaffected.
  const BbwSimResult clean = BbwSystemSim{baseConfig(NodeType::Nlft)}.run();
  BbwSystemSim noisy{baseConfig(NodeType::Nlft)};
  // Time the corruption so it hits command-carrying heartbeats: with a 4 ms
  // communication cycle and 5 ms control period, heartbeats of cycles
  // starting at t = 4 mod 20 ms carry a fresh command; arming the fault at
  // t = cycleStart - 0.4 ms makes that heartbeat the node's next frame.
  for (int i = 0; i < 5; ++i) {
    noisy.injectBusCorruption(kCuA, SimTime::fromUs(503'600 + i * 20'000));
    noisy.injectBusCorruption(kCuB, SimTime::fromUs(503'600 + i * 20'000));
  }
  const BbwSimResult result = noisy.run();
  EXPECT_TRUE(result.stopped);
  EXPECT_NEAR(result.stoppingDistanceM, clean.stoppingDistanceM, 0.5);
  EXPECT_EQ(result.busFramesDropped, 10u);
  EXPECT_EQ(clean.busFramesDropped, 0u);
  EXPECT_LT(result.commandFramesDelivered, clean.commandFramesDelivered);
}

TEST(BbwSystem, DuplexArbiterDropsPartnerDuplicates) {
  const BbwSimResult result = BbwSystemSim{baseConfig(NodeType::Nlft)}.run();
  // Both CUs broadcast every command; each wheel accepts one copy and drops
  // the partner's.
  EXPECT_GT(result.duplicateCommandsDropped, 100u);
  EXPECT_NEAR(static_cast<double>(result.duplicateCommandsDropped),
              static_cast<double>(result.commandFramesDelivered),
              static_cast<double>(result.commandFramesDelivered) * 0.05);
}

TEST(BbwSystem, SingleCuMeansNoDuplicates) {
  BbwSystemSim sim{baseConfig(NodeType::Nlft)};
  sim.injectKernelError(kCuA, SimTime::fromUs(50'000));
  const BbwSimResult result = sim.run();
  EXPECT_TRUE(result.stopped);
  // After CU-A silences, only CU-B's copies arrive: duplicates stop growing.
  EXPECT_LT(result.duplicateCommandsDropped, result.commandFramesDelivered / 2);
}

TEST(BbwSystem, EmergencyBrakeUsesTheEventTriggeredPath) {
  // Driver is coasting (pedal 0); the emergency press at 0.5 s must reach
  // the wheels through the sporadic task + dynamic segment within a few
  // milliseconds, far quicker than a periodic-command round trip from idle.
  BbwSimConfig config = baseConfig(NodeType::Nlft);
  config.pedalProfile = [](double) { return 0.0; };
  BbwSystemSim sim{config};
  sim.pressEmergencyBrake(SimTime::fromUs(500'000));
  const BbwSimResult result = sim.run();
  EXPECT_TRUE(result.stopped);
  EXPECT_GT(result.emergencyBrakeLatency, Duration{});
  EXPECT_LE(result.emergencyBrakeLatency, Duration::milliseconds(6));
  // Coasted for 0.5 s at ~27.8 m/s before braking: total distance is the
  // coast plus a normal full stop.
  EXPECT_GT(result.stoppingDistanceM, 37.0 + 12.0);
}

TEST(BbwSystem, EmergencyBrakeSurvivesOneCuDown) {
  BbwSimConfig config = baseConfig(NodeType::Nlft);
  config.pedalProfile = [](double) { return 0.0; };
  BbwSystemSim sim{config};
  sim.injectKernelError(kCuA, SimTime::fromUs(100'000));
  sim.pressEmergencyBrake(SimTime::fromUs(500'000));
  const BbwSimResult result = sim.run();
  EXPECT_TRUE(result.stopped);
  EXPECT_GT(result.emergencyBrakeLatency, Duration{});
  EXPECT_LE(result.emergencyBrakeLatency, Duration::milliseconds(6));
}

TEST(BbwSystem, PedalProfileDrivesTheStop) {
  // Half pedal brakes longer than full pedal; a ramped profile sits between.
  BbwSimConfig half = baseConfig(NodeType::Nlft);
  half.pedal = 0.5;
  const double halfDistance = BbwSystemSim{half}.run().stoppingDistanceM;

  BbwSimConfig full = baseConfig(NodeType::Nlft);
  const double fullDistance = BbwSystemSim{full}.run().stoppingDistanceM;

  BbwSimConfig ramp = baseConfig(NodeType::Nlft);
  ramp.pedalProfile = [](double t) { return std::min(1.0, 0.5 + t); };  // full after 0.5 s
  const double rampDistance = BbwSystemSim{ramp}.run().stoppingDistanceM;

  EXPECT_GT(halfDistance, fullDistance + 5.0);
  EXPECT_GT(rampDistance, fullDistance);
  EXPECT_LT(rampDistance, halfDistance);
}

TEST(BbwSystem, SoakTestManySequentialFaultsAllMasked) {
  // A long, gentle stop (quarter pedal, ~9 s) with a fault hitting a
  // different node every 700 ms — twelve transients in one braking episode.
  // An NLFT system masks every one of them; nothing goes down, nothing is
  // omitted, and the stop matches the fault-free run exactly.
  auto configure = [] {
    BbwSimConfig config;
    config.nodeType = NodeType::Nlft;
    config.pedal = 0.25;
    config.horizon = Duration::seconds(25);
    return config;
  };
  const BbwSimResult clean = BbwSystemSim{configure()}.run();
  ASSERT_TRUE(clean.stopped);

  BbwSystemSim sim{configure()};
  for (int i = 0; i < 12; ++i) {
    const net::NodeId node = 1 + static_cast<net::NodeId>(i % 6);
    const SimTime at = SimTime::fromUs(300'000 + i * 700'000);
    if (i % 2 == 0) {
      sim.injectComputationFault(node, at);
    } else {
      sim.injectDetectedError(node, at);
    }
  }
  const BbwSimResult result = sim.run();
  EXPECT_TRUE(result.stopped);
  EXPECT_GE(result.errorsMaskedByTem, 10u);  // late faults may miss the stop window
  EXPECT_EQ(result.failSilentEvents, 0u);
  EXPECT_TRUE(result.nodesDownAtEnd.empty());
  for (std::size_t w = 0; w < kWheelCount; ++w) {
    EXPECT_EQ(result.wheelOmissions[w], 0u) << w;
  }
  EXPECT_NEAR(result.stoppingDistanceM, clean.stoppingDistanceM, 0.3);
}

TEST(BbwSystem, CuFailoverAccountingAndMembership) {
  // Kill CU-A mid-stop and keep the restart outside the horizon so the
  // duplex degradation is visible end to end.
  BbwSimConfig config = baseConfig(NodeType::Nlft);
  config.restartTime = Duration::seconds(60);
  const BbwSimResult clean = BbwSystemSim{baseConfig(NodeType::Nlft)}.run();

  BbwSystemSim sim{config};
  std::vector<std::tuple<net::NodeId, net::NodeId, bool>> transitions;
  sim.membership().setMembershipTap(
      [&](net::NodeId observer, net::NodeId peer, bool member) {
        transitions.emplace_back(observer, peer, member);
      });
  sim.injectKernelError(kCuA, SimTime::fromUs(500'000));
  const BbwSimResult result = sim.run();

  ASSERT_TRUE(result.stopped);
  // The surviving CU keeps commanding: frames are still delivered every
  // period, but the duplicate-drop count collapses once only one copy of
  // each command is on the bus.
  EXPECT_GT(result.commandFramesDelivered, 100u);
  EXPECT_GT(clean.duplicateCommandsDropped, 0u);
  EXPECT_LT(result.duplicateCommandsDropped, clean.duplicateCommandsDropped);
  EXPECT_GT(result.duplicateCommandsDropped, 0u);  // duplex until the kill
  EXPECT_EQ(result.failSilentEvents, 1u);
  EXPECT_TRUE(result.nodesDownAtEnd.count(kCuA));

  // Every live observer expelled CU-A from its membership view; nobody was
  // re-admitted (the restart is outside the horizon).
  std::set<net::NodeId> expellers;
  for (const auto& [observer, peer, member] : transitions) {
    EXPECT_EQ(peer, kCuA);
    EXPECT_FALSE(member);
    expellers.insert(observer);
  }
  EXPECT_EQ(expellers, (std::set<net::NodeId>{kCuB, 3, 4, 5, 6}));
  EXPECT_FALSE(sim.membership().isMember(kCuB, kCuA));
  EXPECT_TRUE(sim.membership().isMember(kCuB, kWheelNodeBase));
}

TEST(BbwSystem, DeterministicReplay) {
  auto distance = [] {
    BbwSystemSim sim{baseConfig(NodeType::Nlft)};
    sim.injectDetectedError(kWheelNodeBase + 1, SimTime::fromUs(350'000));
    return sim.run().stoppingDistanceM;
  };
  EXPECT_DOUBLE_EQ(distance(), distance());
}

TEST(BbwSystem, FinishSplicedExportsPrefixPlusTail) {
  // Splicing a known future onto a live run: counters and latency samples
  // add, the latency max takes the larger side, and the registry receives
  // those totals exactly as run() would export them.
  obs::Registry metrics;
  BbwSystemSim sim{baseConfig(NodeType::Nlft)};
  sim.setMetricsRegistry(&metrics);
  sim.runUntil(SimTime::fromUs(500'000));
  const BbwSystemCounters prefix = sim.counterSnapshot();
  const EndToEndLatency prefixLatency = sim.endToEndLatency();
  ASSERT_GT(prefixLatency.samples, 0u);
  ASSERT_LT(prefixLatency.maxUs, 42'000.0);

  BbwSystemCounters tail;
  tail.eventsProcessed = 1000;
  tail.commandFramesDelivered = 3;
  tail.controlOmissions = 2;
  tail.tem.jobs = 7;
  EndToEndLatency tailLatency;
  tailLatency.add(42'000.0);  // beyond every prefix sample
  tailLatency.add(100.0);
  BbwSimResult final;
  final.stopped = true;
  final.stoppingDistanceM = 12.5;
  const BbwSimResult result = sim.finishSpliced(final, tail, tailLatency);

  EXPECT_TRUE(result.stopped);
  EXPECT_EQ(result.stoppingDistanceM, 12.5);
  EXPECT_EQ(result.commandFramesDelivered, prefix.commandFramesDelivered + 3);
  EXPECT_EQ(metrics.count("sim.events_processed"), prefix.eventsProcessed + 1000);
  EXPECT_EQ(metrics.count("sys.command_frames_delivered"), prefix.commandFramesDelivered + 3);
  EXPECT_EQ(metrics.count("kernel.control.omissions"), prefix.controlOmissions + 2);
  EXPECT_EQ(metrics.count("tem.jobs"), prefix.tem.jobs + 7);
  EXPECT_EQ(metrics.gauge("e2e.latency.max_us"), 42'000.0);
  const obs::HistogramSnapshot histogram = metrics.histogram("e2e.latency");
  EXPECT_EQ(histogram.total, prefixLatency.samples + 2u);
  EXPECT_EQ(histogram.counts[0], prefixLatency.bins[0] + 1u);
  EXPECT_EQ(histogram.counts[42], prefixLatency.bins[42] + 1u);

  // Trace lines cannot be spliced: a traced run refuses.
  BbwSystemSim traced{baseConfig(NodeType::Nlft)};
  traced.setTraceSink([](const std::string&) {});
  traced.runUntil(SimTime::fromUs(500'000));
  EXPECT_THROW((void)traced.finishSpliced(final, tail, tailLatency), std::logic_error);
}

}  // namespace
}  // namespace nlft::bbw
