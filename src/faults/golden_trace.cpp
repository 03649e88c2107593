#include "faults/golden_trace.hpp"

#include <cstdio>
#include <fstream>
#include <functional>
#include <stdexcept>

namespace nlft::fi {

namespace {

using bbw::BbwSimConfig;
using bbw::BbwSystemSim;
using util::SimTime;

constexpr SimTime at(double seconds) {
  return SimTime::fromUs(static_cast<std::int64_t>(seconds * 1e6));
}

struct ScenarioEntry {
  const char* name;
  GoldenScenario scenario;
};

// The catalogue covers every injection family the system campaign samples,
// each at a fixed instant so traces are reproducible. Scenarios that take a
// node down run long enough for the mu_R restart to appear in the trace, so
// a perturbed restart time is caught by the harness.
constexpr ScenarioEntry kScenarios[] = {
    {"nlft-computation-fault",
     {bbw::NodeType::Nlft, at(0.5),
      [](BbwSystemSim& sim) { sim.injectComputationFault(bbw::kWheelNodeBase, at(0.5)); }}},
    {"nlft-omission-value",
     {bbw::NodeType::Nlft, at(0.4),
      [](BbwSystemSim& sim) {
        sim.injectOmissionFailure(bbw::kWheelNodeBase + 1, at(0.4));
        sim.injectValueFailure(bbw::kWheelNodeBase + 2, at(0.8));
      }}},
    {"fs-kernel-error-restart",
     {bbw::NodeType::FailSilent, at(0.4),
      [](BbwSystemSim& sim) { sim.injectKernelError(bbw::kWheelNodeBase, at(0.4)); }}},
    {"bus-corruption",
     {bbw::NodeType::Nlft, at(0.5),
      [](BbwSystemSim& sim) {
        sim.injectBusCorruption(bbw::kCuA, at(0.5));
        sim.injectBusCorruption(bbw::kWheelNodeBase + 3, at(0.9), {7, 133, 260});
      }}},
    {"cu-failover",
     {bbw::NodeType::Nlft, at(0.5),
      [](BbwSystemSim& sim) { sim.injectKernelError(bbw::kCuA, at(0.5)); }}},
    {"correlated-burst",
     {bbw::NodeType::Nlft, at(0.6),
      [](BbwSystemSim& sim) {
        sim.injectKernelError(bbw::kWheelNodeBase, at(0.6));
        sim.injectKernelError(bbw::kWheelNodeBase + 2, at(0.6));
      }}},
};

void appendResultSummary(const bbw::BbwSimResult& result, std::vector<std::string>& lines) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer), "result stopped=%d distanceM=%.3f stopTimeS=%.3f",
                result.stopped ? 1 : 0, result.stoppingDistanceM, result.stopTimeS);
  lines.emplace_back(buffer);
  std::snprintf(buffer, sizeof(buffer),
                "result commands=%llu duplicatesDropped=%llu busDropped=%llu omitted=%llu "
                "undetectedValues=%llu",
                static_cast<unsigned long long>(result.commandFramesDelivered),
                static_cast<unsigned long long>(result.duplicateCommandsDropped),
                static_cast<unsigned long long>(result.busFramesDropped),
                static_cast<unsigned long long>(result.commandsOmitted),
                static_cast<unsigned long long>(result.undetectedValueDeliveries));
  lines.emplace_back(buffer);
  std::uint64_t wheelOmissions = 0;
  for (const std::uint64_t omissions : result.wheelOmissions) wheelOmissions += omissions;
  std::snprintf(buffer, sizeof(buffer),
                "result temMasked=%llu failSilent=%llu wheelOmissions=%llu nodesDown=%zu",
                static_cast<unsigned long long>(result.errorsMaskedByTem),
                static_cast<unsigned long long>(result.failSilentEvents),
                static_cast<unsigned long long>(wheelOmissions), result.nodesDownAtEnd.size());
  lines.emplace_back(buffer);
}

}  // namespace

std::vector<std::string> goldenScenarioNames() {
  std::vector<std::string> names;
  for (const ScenarioEntry& entry : kScenarios) names.emplace_back(entry.name);
  return names;
}

GoldenScenario goldenScenario(const std::string& name) {
  for (const ScenarioEntry& entry : kScenarios) {
    if (name == entry.name) return entry.scenario;
  }
  throw std::invalid_argument("unknown golden-trace scenario: " + name);
}

std::vector<std::string> recordScenarioTrace(const std::string& name, const bbw::BbwSimConfig& base,
                                             obs::TraceRecorder* recorder,
                                             obs::Registry* metrics) {
  const GoldenScenario scenario = goldenScenario(name);
  BbwSimConfig config = base;
  config.nodeType = scenario.nodeType;
  BbwSystemSim sim{config};
  std::vector<std::string> lines;
  sim.setTraceSink([&lines](const std::string& line) { lines.push_back(line); });
  if (recorder != nullptr) sim.setTraceRecorder(recorder);
  if (metrics != nullptr) sim.setMetricsRegistry(metrics);
  scenario.arm(sim);
  appendResultSummary(sim.run(), lines);
  return lines;
}

TraceDiff compareTraces(const std::vector<std::string>& expected,
                        const std::vector<std::string>& actual) {
  TraceDiff diff;
  const std::size_t common = std::min(expected.size(), actual.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (expected[i] != actual[i]) {
      diff.identical = false;
      diff.line = i + 1;
      diff.expected = expected[i];
      diff.actual = actual[i];
      return diff;
    }
  }
  if (expected.size() != actual.size()) {
    diff.identical = false;
    diff.line = common + 1;
    diff.expected = common < expected.size() ? expected[common] : "<missing>";
    diff.actual = common < actual.size() ? actual[common] : "<missing>";
  }
  return diff;
}

std::vector<std::string> readTraceFile(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error("cannot open golden trace: " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

void writeTraceFile(const std::string& path, const std::vector<std::string>& lines) {
  std::ofstream out{path};
  if (!out) throw std::runtime_error("cannot write golden trace: " + path);
  for (const std::string& line : lines) out << line << '\n';
}

}  // namespace nlft::fi
