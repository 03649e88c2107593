// Repository benchmark: the command-line entry point.
//
//   perfbench --workload <system-mixed|machine-fi|reliability-mc>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]
//
// --trace 0 runs the named workload with tracing off and reports its
// end-to-end metrics (throughput_per_s, setup_s, peak_rss_mb). --trace 1 runs
// the traced ledger instead: every per-layer metric, the system-mixed layer
// shares and the span file. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

void printJsonResult(const perfbench::Report& report) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              report.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

int usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <system-mixed|machine-fi|"
               "reliability-mc> --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool haveSeed = false;
  bool haveSeconds = false;
  if (argc % 2 == 0) return usage("every flag takes one value");
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (std::strcmp(flag, "--workload") == 0) {
      options.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      options.seed = std::strtoull(value, &end, 10);
      haveSeed = end != value && *end == '\0';
    } else if (std::strcmp(flag, "--seconds") == 0) {
      options.seconds = std::strtod(value, &end);
      haveSeconds = end != value && *end == '\0' && options.seconds > 0.0;
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return usage("--trace must be 0 or 1");
      }
      options.trace = value[0] == '1';
    } else if (std::strcmp(flag, "--trace-out") == 0) {
      options.traceOut = value;
    } else {
      return usage("unknown flag");
    }
  }
  if (!haveSeed || !haveSeconds) return usage("--seed and --seconds are required");
  if (options.workload != "system-mixed" && options.workload != "machine-fi" &&
      options.workload != "reliability-mc") {
    return usage("unknown workload");
  }

  try {
    perfbench::Report report;
    if (options.trace) {
      report = perfbench::runLedger(options);
    } else if (options.workload == "system-mixed") {
      report = perfbench::runSystemMixed(options);
    } else if (options.workload == "machine-fi") {
      report = perfbench::runMachineFi(options);
    } else {
      report = perfbench::runReliabilityMc(options);
    }
    std::printf("\n%-40s %16s  %s\n", "metric", "value", "unit");
    for (const perfbench::Metric& m : report.metrics) {
      std::printf("%-40s %16.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("%-40s %16.6g  %s\n", "failed_ratio",
                report.attempted > 0 ? static_cast<double>(report.failed) /
                                           static_cast<double>(report.attempted)
                                     : 1.0,
                "failed/attempted");
    std::fflush(stdout);
    printJsonResult(report);
    return report.failed == 0 ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
