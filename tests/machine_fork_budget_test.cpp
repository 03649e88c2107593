// Deterministic work gate for machine-level copy-on-inject campaigns.
//
// Pins, for every guest image at a fixed seed, the snapshot engine's
// replay decisions (clean copies answered by replay vs executed) and the
// simulated instructions of the TEM and FS campaigns. A change in how the
// engine decides that a post-fault machine is back at the clean fixed
// point shows up here as a moved counter, under its own name (ctest label
// "perf-counters"), instead of as a slow benchmark.
//
// It also bounds the dirty memory pages of a forked machine: a fork copies
// only pages that may differ from the reset state, so a regression to
// whole-memory copies (every page dirty) fails here too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <optional>

#include "bbw/guest_programs.hpp"
#include "faults/campaign.hpp"
#include "faults/snapshot_exec.hpp"
#include "hw/machine.hpp"
#include "snap/cache.hpp"

namespace nlft::fi {
namespace {

struct PinnedCounters {
  const char* image;
  std::uint64_t temReplayed, temExecuted, temCycles;
  std::uint64_t fsReplayed, fsExecuted, fsCycles;
};

/// 3000 experiments per campaign, seed 47, default fault mix.
constexpr PinnedCounters kPinned[] = {
    {"wheel", 3157, 3336, 50522, 0, 3000, 40293},
    {"checked_wheel", 2977, 3648, 89741, 0, 3000, 62667},
    {"cu", 3322, 3365, 37467, 0, 3000, 29467},
};

/// Upper bound on the dirty pages of a forked guest machine (of 256 pages
/// in 64 KiB): text, input, output and stack each touch one or two.
constexpr std::uint32_t kMaxForkDirtyPages = 8;

CampaignConfig pinnedConfig(unsigned threads) {
  CampaignConfig config;
  config.experiments = 3000;
  config.seed = 47;
  config.parallelism.threads = threads;
  return config;
}

TEST(MachineForkBudget, CampaignReplayDecisionsArePinned) {
  ASSERT_EQ(bbw::guestPrograms().size(), std::size(kPinned));
  for (const bbw::GuestProgram& program : bbw::guestPrograms()) {
    SCOPED_TRACE(program.name);
    const auto* pinned =
        std::find_if(std::begin(kPinned), std::end(kPinned),
                     [&](const PinnedCounters& entry) { return program.name == entry.image; });
    ASSERT_NE(pinned, std::end(kPinned));
    const TaskImage image = program.makeNominalImage();
    for (const unsigned threads : {1u, 2u}) {
      SCOPED_TRACE(threads);
      const TemCampaignStats tem = runTemCampaign(image, pinnedConfig(threads));
      EXPECT_EQ(tem.snap.replayedCopies, pinned->temReplayed);
      EXPECT_EQ(tem.snap.executedCopies, pinned->temExecuted);
      EXPECT_EQ(tem.snap.simulatedCycles, pinned->temCycles);
      EXPECT_GT(tem.snap.resumePoints, 0u);  // forked: no silent straight fallback
      EXPECT_EQ(tem.snap.straightFallbacks, 0u);

      const FsCampaignStats fs = runFsCampaign(image, pinnedConfig(threads));
      EXPECT_EQ(fs.snap.replayedCopies, pinned->fsReplayed);
      EXPECT_EQ(fs.snap.executedCopies, pinned->fsExecuted);
      EXPECT_EQ(fs.snap.simulatedCycles, pinned->fsCycles);
      EXPECT_GT(fs.snap.resumePoints, 0u);
      EXPECT_EQ(fs.snap.straightFallbacks, 0u);
    }
  }
}

TEST(MachineForkBudget, ForkedMachinesStaySparse) {
  for (const bbw::GuestProgram& program : bbw::guestPrograms()) {
    SCOPED_TRACE(program.name);
    const TaskImage image = program.makeNominalImage();
    // A campaign start state: the image loaded, one clean copy run and the
    // context reset, so output and stack pages are dirty as they are in
    // every band baseline.
    hw::Machine start{image.memBytes};
    start.restoreState(machineBaselineSnapshot(image));
    const CopyRun clean = runCopy(start, image, std::nullopt);
    ASSERT_EQ(clean.end, CopyRun::End::Output);
    start.restoreContext(hw::CpuState{});  // the kernel's context reset
    start.cpu().pc = image.entry;
    start.cpu().setSp(image.stackTop);
    start.resume();
    ASSERT_EQ(start.memory().pageCount(), 256u);

    snap::SnapshotCache cache{1u << 20};
    MachineBaseline baseline{start, 1, std::max<std::uint64_t>(clean.instructions / 8, 1), cache};
    hw::Machine scratch{image.memBytes};
    for (std::uint64_t t = 0; t < clean.instructions; ++t) {
      // Leave a stray word on a page the baseline never touches: the fork
      // must reset it.
      ASSERT_TRUE(scratch.memory().write(image.memBytes / 2, 0xBADC0DE));
      baseline.forkAt(t, scratch);
      EXPECT_LE(scratch.memory().dirtyPageCount(), kMaxForkDirtyPages) << "instant " << t;

      hw::Machine straight = start;
      (void)straight.run(t);
      EXPECT_EQ(scratch.saveState(), straight.saveState()) << "instant " << t;
    }
  }
}

}  // namespace
}  // namespace nlft::fi
