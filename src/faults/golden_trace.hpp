// Golden-trace regression harness for the system-level fault-injection
// scenarios.
//
// Each named scenario arms a fixed set of injections into a fresh
// bbw::BbwSystemSim, records the line-oriented event trace (fault firings,
// task/kernel errors, node silences and restarts, membership transitions,
// bus drops, the vehicle stop) plus a result summary, and the harness
// compares it line-by-line against a checked-in golden under tests/golden/.
// Any behavioural drift — a changed restart time, a reordered bus slot, a
// different masking decision — shows up as the first diverging line.
//
// tools/record_golden_traces regenerates the goldens after an INTENDED
// behaviour change; tests/golden_trace_test.cpp enforces them in CI.
#pragma once

#include <string>
#include <vector>

#include "bbw/system_sim.hpp"

namespace nlft::fi {

/// Names of all catalogued scenarios, in a fixed order.
[[nodiscard]] std::vector<std::string> goldenScenarioNames();

/// One catalogued scenario: its node type, the instant of its first
/// injection and the hook that arms its injections on a fresh simulation
/// (for harnesses that run it without a trace sink).
struct GoldenScenario {
  bbw::NodeType nodeType = bbw::NodeType::Nlft;
  util::SimTime firstInjection;
  void (*arm)(bbw::BbwSystemSim&) = nullptr;
};
/// The catalogued scenario `name` (throws std::invalid_argument if unknown).
[[nodiscard]] GoldenScenario goldenScenario(const std::string& name);

/// Records the event trace of one catalogued scenario (throws
/// std::invalid_argument for unknown names). The trailing lines summarise
/// the BbwSimResult so silent counter drift is caught too. `base` carries
/// the simulation knobs; the scenario overrides the node type itself.
/// A non-null `recorder` (and `metrics`) is attached to the simulation, so
/// observability output can be reconciled against the golden trace
/// (tests/obs_system_test.cpp).
[[nodiscard]] std::vector<std::string> recordScenarioTrace(const std::string& name,
                                                           const bbw::BbwSimConfig& base = {},
                                                           obs::TraceRecorder* recorder = nullptr,
                                                           obs::Registry* metrics = nullptr);

/// First divergence between an expected and an actual trace.
struct TraceDiff {
  bool identical = true;
  std::size_t line = 0;       ///< 1-based line of the first mismatch
  std::string expected;       ///< "<missing>" when the actual trace is longer
  std::string actual;         ///< "<missing>" when the expected trace is longer
};

[[nodiscard]] TraceDiff compareTraces(const std::vector<std::string>& expected,
                                      const std::vector<std::string>& actual);

/// One line per entry; throws std::runtime_error if the file cannot be
/// opened (a missing golden is a hard failure, not a silent pass).
[[nodiscard]] std::vector<std::string> readTraceFile(const std::string& path);
void writeTraceFile(const std::string& path, const std::vector<std::string>& lines);

}  // namespace nlft::fi
