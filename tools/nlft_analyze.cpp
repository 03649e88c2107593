// nlft-analyze: static analysis reports for the interpreted guest programs.
//
// Default: print the CFG / legal-path / WCET / footprint report for every
// registered guest program (or the named ones). With --cross-check N it also
// validates the analyzer against the machine: the fault-free PC trace of
// each program must follow the static CFG and match a legal path signature,
// and N fault-injection runs are replayed with tracing to count how many
// control-flow errors (trace leaves the CFG) the signature monitor catches.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "bbw/guest_programs.hpp"
#include "core/control_flow.hpp"
#include "faults/campaign.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"

namespace {

using namespace nlft;

int crossCheck(const bbw::GuestProgram& program, std::size_t experiments) {
  const analysis::ProgramAnalysis& analysis = program.analyze();
  const fi::TaskImage image = program.makeNominalImage();

  // Fault-free run: the trace must follow the CFG and hit a legal signature.
  const fi::TracedRun golden = fi::runTracedCopy(image, std::nullopt);
  const analysis::TraceCheck goldenCheck = analysis::checkTrace(analysis.cfg, golden.pcTrace);
  tem::SignatureMonitor monitor;
  analysis::populateSignatureMonitor(monitor, analysis);
  monitor.begin();
  for (const std::uint32_t block : analysis::blockTrace(analysis.cfg, golden.pcTrace)) {
    monitor.enterBlock(block);
  }
  const bool goldenSignatureOk = monitor.finishAndCheck();
  std::printf("  golden trace: %zu PCs, CFG %s, signature %s\n", golden.pcTrace.size(),
              goldenCheck.controlFlowIntact ? "ok" : "VIOLATED", goldenSignatureOk ? "ok" : "BAD");
  if (!goldenCheck.controlFlowIntact || !goldenSignatureOk) {
    std::printf("    %s\n", goldenCheck.reason.c_str());
    return 1;
  }

  // Faulty runs: every CFG violation the signature monitor also flags is a
  // detected control-flow error; the remainder is its blind spot.
  std::size_t cfErrors = 0;
  std::size_t caughtBySignature = 0;
  util::Rng rng{1};
  for (std::size_t i = 0; i < experiments; ++i) {
    const fi::FaultSpec fault =
        fi::sampleFault(image, golden.run.instructions, fi::FaultMix{}, rng);
    const fi::TracedRun traced = fi::runTracedCopy(image, fault);
    const analysis::TraceCheck check = analysis::checkTrace(analysis.cfg, traced.pcTrace);
    if (check.controlFlowIntact) continue;
    ++cfErrors;
    monitor.begin();
    for (const std::uint32_t block : analysis::blockTrace(analysis.cfg, traced.pcTrace)) {
      monitor.enterBlock(block);
    }
    if (!monitor.finishAndCheck()) ++caughtBySignature;
  }
  std::printf("  %zu injections: %zu control-flow errors, %zu caught by signature monitor\n",
              experiments, cfErrors, caughtBySignature);
  return 0;
}

int usage() {
  std::fputs(
      "usage: nlft-analyze [--list] [--cross-check N] [program...]\n"
      "  without names: analyzes every registered guest program\n",
      stderr);
  return 2;
}

int run(int argc, char** argv) {
  std::vector<std::string> names;
  std::size_t crossCheckRuns = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      for (const bbw::GuestProgram& program : bbw::guestPrograms()) {
        std::printf("%s\n", program.name.c_str());
      }
      return 0;
    }
    if (arg == "--cross-check") {
      if (i + 1 >= argc) return usage();
      crossCheckRuns = util::parseInteger<std::size_t>(arg, argv[++i]);
      continue;
    }
    if (arg.rfind("--", 0) == 0) return usage();
    names.emplace_back(arg);
  }

  int status = 0;
  bool matchedAny = false;
  for (const bbw::GuestProgram& program : bbw::guestPrograms()) {
    if (!names.empty() &&
        std::find(names.begin(), names.end(), program.name) == names.end()) {
      continue;
    }
    matchedAny = true;
    std::fputs(analysis::formatReport(program.name, program.analyze()).c_str(), stdout);
    if (crossCheckRuns > 0) status |= crossCheck(program, crossCheckRuns);
    std::fputs("\n", stdout);
  }
  if (!matchedAny) {
    std::fputs("nlft-analyze: no such program (try --list)\n", stderr);
    return 2;
  }
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "nlft-analyze: %s\n", error.what());
    return 2;
  }
}
