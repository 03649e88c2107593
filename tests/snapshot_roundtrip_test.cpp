// Property tests for the versioned snapshot state format (ctest label
// "snapshot"; docs/SNAPSHOT.md).
//
// Pins the contract of hw::Machine::saveState/restoreState:
//   - save -> restore -> save is byte-identical for randomized states;
//   - truncated or bit-flipped blobs are rejected by the per-section CRC
//     with a diagnostic NAMING the damaged section;
//   - a blob with a bumped format version fails loudly instead of being
//     misparsed;
//   - a blob of another KIND is refused;
//   - fi::runTracedCopy verifies the reconstructed machine against the
//     campaign baseline snapshot and throws on drift (regression for the
//     silent-drift hazard).
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "bbw/guest_programs.hpp"
#include "faults/campaign.hpp"
#include "faults/snapshot_exec.hpp"
#include "hw/machine.hpp"
#include "snap/blob.hpp"
#include "util/rng.hpp"

namespace nlft {
namespace {

/// A machine in a randomized mid-execution state: the guest image loaded,
/// then advanced by a random number of instructions.
hw::Machine randomizedMachine(const fi::TaskImage& image, util::Rng& rng) {
  hw::Machine machine{image.memBytes};
  machine.restoreState(fi::machineBaselineSnapshot(image));
  (void)machine.run(rng.uniformInt(40));
  return machine;
}

TEST(SnapshotRoundtrip, MachineSaveRestoreSaveIsByteIdentical) {
  util::Rng rng{0x5eed5eedULL};
  for (const bbw::GuestProgram& program : bbw::guestPrograms()) {
    SCOPED_TRACE(program.name);
    const fi::TaskImage image = program.makeNominalImage();
    for (int round = 0; round < 8; ++round) {
      hw::Machine machine = randomizedMachine(image, rng);
      const std::vector<std::uint8_t> first = machine.saveState();

      hw::Machine restored{image.memBytes};
      restored.restoreState(first);
      EXPECT_EQ(first, restored.saveState());
      EXPECT_TRUE(fi::sameBehavior(machine, restored));
    }
  }
}

TEST(SnapshotRoundtrip, RestoredMachineContinuesBitIdentically) {
  util::Rng rng{0xabcdefULL};
  const fi::TaskImage image = bbw::guestPrograms().front().makeNominalImage();
  for (int round = 0; round < 4; ++round) {
    hw::Machine machine = randomizedMachine(image, rng);
    hw::Machine restored{image.memBytes};
    restored.restoreState(machine.saveState());
    (void)machine.run(10);
    (void)restored.run(10);
    EXPECT_EQ(machine.saveState(), restored.saveState());
  }
}

TEST(SnapshotRoundtrip, TruncatedMachineBlobIsRejected) {
  const fi::TaskImage image = bbw::guestPrograms().front().makeNominalImage();
  const std::vector<std::uint8_t> blob = fi::machineBaselineSnapshot(image);
  // Every truncation point, from the empty blob to one byte short, must be
  // refused — never silently half-restored.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{3}, std::size_t{7}, std::size_t{20}, blob.size() / 2,
        blob.size() - 1}) {
    SCOPED_TRACE(keep);
    const std::vector<std::uint8_t> truncated(blob.begin(),
                                              blob.begin() + static_cast<std::ptrdiff_t>(keep));
    hw::Machine machine{image.memBytes};
    EXPECT_THROW(machine.restoreState(truncated), snap::BlobError);
  }
}

TEST(SnapshotRoundtrip, BitFlippedMachineBlobNamesTheDamagedSection) {
  const fi::TaskImage image = bbw::guestPrograms().front().makeNominalImage();
  const std::vector<std::uint8_t> blob = fi::machineBaselineSnapshot(image);
  // The first section of a machine blob is "cpu": a flip inside its payload
  // must produce a CRC diagnostic that names it.
  std::vector<std::uint8_t> corrupted = blob;
  corrupted[16] ^= 0x01;  // inside the "cpu" section payload
  hw::Machine machine{image.memBytes};
  try {
    machine.restoreState(corrupted);
    FAIL() << "corrupted blob was accepted";
  } catch (const snap::BlobError& error) {
    EXPECT_NE(std::string{error.what()}.find("'cpu'"), std::string::npos) << error.what();
  }

  // A flip deep in the blob damages a later section — still caught, still
  // named (whichever section it lands in).
  corrupted = blob;
  corrupted[blob.size() / 2] ^= 0x80;
  try {
    machine.restoreState(corrupted);
    FAIL() << "corrupted blob was accepted";
  } catch (const snap::BlobError& error) {
    EXPECT_NE(std::string{error.what()}.find("section"), std::string::npos) << error.what();
  }
}

TEST(SnapshotRoundtrip, VersionBumpFailsLoudly) {
  const fi::TaskImage image = bbw::guestPrograms().front().makeNominalImage();
  std::vector<std::uint8_t> blob = fi::machineBaselineSnapshot(image);
  // Header layout: u32 magic, u16 kind, u16 version (little-endian).
  blob[6] += 1;
  hw::Machine machine{image.memBytes};
  try {
    machine.restoreState(blob);
    FAIL() << "version-bumped blob was accepted";
  } catch (const snap::BlobError& error) {
    EXPECT_NE(std::string{error.what()}.find("version"), std::string::npos) << error.what();
  }
}

TEST(SnapshotRoundtrip, WrongKindIsRefused) {
  // A well-formed blob of another kind must be refused by the kind field,
  // not misparsed as a machine.
  const fi::TaskImage image = bbw::guestPrograms().front().makeNominalImage();
  snap::BlobWriter writer{snap::kMachineSnapshot + 1, hw::kMachineStateVersion};
  writer.beginSection("cpu");
  writer.u64(0);
  writer.endSection();
  const std::vector<std::uint8_t> foreignBlob = writer.finish();
  hw::Machine machine{image.memBytes};
  try {
    machine.restoreState(foreignBlob);
    FAIL() << "blob of another kind was accepted";
  } catch (const snap::BlobError& error) {
    EXPECT_NE(std::string{error.what()}.find("kind"), std::string::npos) << error.what();
  }
}

// Regression for the silent-drift hazard: runTracedCopy reconstructs a
// fresh machine, so an image mutated between the campaign and the traced
// run used to silently yield a trace of a DIFFERENT program. With the
// campaign baseline passed it must throw instead.
TEST(SnapshotRoundtrip, TracedCopyDetectsDriftFromCampaignBaseline) {
  const fi::TaskImage image = bbw::guestPrograms().front().makeNominalImage();
  const std::vector<std::uint8_t> baseline = fi::machineBaselineSnapshot(image);

  // Unperturbed: verification passes and the traced run completes.
  const fi::TracedRun clean = fi::runTracedCopy(image, std::nullopt, &baseline);
  EXPECT_FALSE(clean.pcTrace.empty());

  // Perturb one input word: the reconstructed machine no longer matches the
  // campaign baseline byte-for-byte.
  fi::TaskImage drifted = image;
  ASSERT_FALSE(drifted.input.empty());
  drifted.input.front() ^= 1u;
  EXPECT_THROW((void)fi::runTracedCopy(drifted, std::nullopt, &baseline), std::runtime_error);

  // Without the baseline the drifted image still runs — the check is what
  // closes the hazard.
  EXPECT_NO_THROW((void)fi::runTracedCopy(drifted, std::nullopt));
}

}  // namespace
}  // namespace nlft
