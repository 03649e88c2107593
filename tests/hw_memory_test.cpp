#include "hw/memory.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace nlft::hw {
namespace {

TEST(EccMemory, ReadBackWrites) {
  EccMemory mem{1024};
  EXPECT_TRUE(mem.write(0, 0xDEADBEEF));
  EXPECT_TRUE(mem.write(1020, 42));
  const auto a = mem.read(0);
  EXPECT_TRUE(a.ok);
  EXPECT_EQ(a.value, 0xDEADBEEFu);
  const auto b = mem.read(1020);
  EXPECT_TRUE(b.ok);
  EXPECT_EQ(b.value, 42u);
}

TEST(EccMemory, FreshMemoryReadsZero) {
  EccMemory mem{64};
  for (std::uint32_t addr = 0; addr < 64; addr += 4) {
    const auto r = mem.read(addr);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.value, 0u);
  }
}

TEST(EccMemory, RejectsMisalignedAndOutOfRange) {
  EccMemory mem{64};
  EXPECT_FALSE(mem.read(2).ok);
  EXPECT_FALSE(mem.read(64).ok);
  EXPECT_FALSE(mem.write(3, 1));
  EXPECT_FALSE(mem.write(68, 1));
  EXPECT_FALSE(mem.flipBit(2, 0));
  EXPECT_FALSE(mem.flipBit(0, 39));
  EXPECT_FALSE(mem.flipBit(0, -1));
}

TEST(EccMemory, SingleBitUpsetIsCorrectedAndScrubbed) {
  EccMemory mem{64};
  mem.write(8, 0x1234);
  EXPECT_TRUE(mem.flipBit(8, 5));
  const auto first = mem.read(8);
  EXPECT_TRUE(first.ok);
  EXPECT_TRUE(first.corrected);
  EXPECT_EQ(first.value, 0x1234u);
  EXPECT_EQ(mem.correctedErrors(), 1u);
  // Scrub-on-read means the second read is clean.
  const auto second = mem.read(8);
  EXPECT_TRUE(second.ok);
  EXPECT_FALSE(second.corrected);
  EXPECT_EQ(mem.correctedErrors(), 1u);
}

TEST(EccMemory, DoubleBitUpsetIsUncorrectable) {
  EccMemory mem{64};
  mem.write(8, 0x1234);
  mem.flipBit(8, 3);
  mem.flipBit(8, 17);
  const auto r = mem.read(8);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(mem.uncorrectableErrors(), 1u);
}

TEST(EccMemory, RewriteClearsLatentUpset) {
  EccMemory mem{64};
  mem.write(8, 0x1234);
  mem.flipBit(8, 3);
  mem.flipBit(8, 17);
  mem.write(8, 0x5678);  // fresh codeword
  const auto r = mem.read(8);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.value, 0x5678u);
}

TEST(EccMemory, ParityBitUpsetsAreAlsoCorrected) {
  // Bits beyond the data payload (parity positions) must also be covered.
  EccMemory mem{64};
  mem.write(4, 0xCAFE);
  for (int bit = 0; bit < kEccCodewordBits; ++bit) {
    mem.write(4, 0xCAFE);
    mem.flipBit(4, bit);
    const auto r = mem.read(4);
    ASSERT_TRUE(r.ok) << "bit " << bit;
    ASSERT_EQ(r.value, 0xCAFEu) << "bit " << bit;
  }
}

TEST(EccMemory, SizeRoundsDownToWords) {
  EccMemory mem{10};
  EXPECT_EQ(mem.sizeBytes(), 8u);
  EXPECT_EQ(mem.wordCount(), 2u);
}

TEST(EccMemory, ScrubHealsLatentSingleBitUpsets) {
  EccMemory mem{256};
  mem.write(8, 0x1111);
  mem.write(64, 0x2222);
  mem.flipBit(8, 3);
  mem.flipBit(64, 20);
  EXPECT_EQ(mem.scrub(), 2u);
  EXPECT_EQ(mem.scrub(), 0u);  // everything clean now
  EXPECT_EQ(mem.read(8).value, 0x1111u);
  EXPECT_EQ(mem.read(64).value, 0x2222u);
}

TEST(EccMemory, ScrubbingPreventsDoubleBitAccumulation) {
  // Two single-bit upsets in the SAME word, separated in time: without a
  // scrub in between the word becomes unreadable; with one it survives.
  EccMemory unscrubbed{64};
  unscrubbed.write(4, 0xAAAA);
  unscrubbed.flipBit(4, 2);
  unscrubbed.flipBit(4, 9);
  EXPECT_FALSE(unscrubbed.read(4).ok);

  EccMemory scrubbed{64};
  scrubbed.write(4, 0xAAAA);
  scrubbed.flipBit(4, 2);
  EXPECT_EQ(scrubbed.scrub(), 1u);  // the scrubber runs between the upsets
  scrubbed.flipBit(4, 9);
  const auto r = scrubbed.read(4);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.value, 0xAAAAu);
}

TEST(EccMemory, ScrubLeavesUncorrectableWordsAlone) {
  EccMemory mem{64};
  mem.write(4, 1);
  mem.flipBit(4, 0);
  mem.flipBit(4, 1);
  EXPECT_EQ(mem.scrub(), 0u);
  EXPECT_GT(mem.uncorrectableErrors(), 0u);
  EXPECT_FALSE(mem.read(4).ok);  // still bad; a rewrite is needed
  mem.write(4, 2);
  EXPECT_TRUE(mem.read(4).ok);
}

TEST(EccMemory, RandomisedUpsetSweep) {
  util::Rng rng{123};
  EccMemory mem{256};
  for (int trial = 0; trial < 2000; ++trial) {
    const std::uint32_t addr = 4 * static_cast<std::uint32_t>(rng.uniformInt(64));
    const auto value = static_cast<std::uint32_t>(rng.next());
    mem.write(addr, value);
    const int flips = 1 + static_cast<int>(rng.uniformInt(2));
    int firstBit = static_cast<int>(rng.uniformInt(kEccCodewordBits));
    mem.flipBit(addr, firstBit);
    if (flips == 2) {
      int secondBit = static_cast<int>(rng.uniformInt(kEccCodewordBits));
      while (secondBit == firstBit) secondBit = static_cast<int>(rng.uniformInt(kEccCodewordBits));
      mem.flipBit(addr, secondBit);
      ASSERT_FALSE(mem.read(addr).ok);
    } else {
      const auto r = mem.read(addr);
      ASSERT_TRUE(r.ok);
      ASSERT_EQ(r.value, value);
    }
  }
}

// --- Dirty-page tracking: sparse copies and compares ---

/// Every page outside the dirty set must hold the reset codeword.
void expectCleanPagesReset(const EccMemory& mem) {
  for (std::uint32_t page = 0; page < mem.pageCount(); ++page) {
    if (mem.pageDirty(page)) continue;
    const std::uint32_t last = std::min((page + 1) * EccMemory::kPageWords, mem.wordCount());
    for (std::uint32_t word = page * EccMemory::kPageWords; word < last; ++word) {
      ASSERT_EQ(mem.rawCodeword(word), eccEncode(0)) << "clean page " << page << " word " << word;
    }
  }
}

/// A random word address, biased towards the first pages so that two
/// memories often touch the same words.
std::uint32_t randomAddress(const EccMemory& mem, util::Rng& rng) {
  const std::uint32_t words =
      rng.bernoulli(0.7) ? std::min(mem.wordCount(), 3 * EccMemory::kPageWords) : mem.wordCount();
  return 4 * static_cast<std::uint32_t>(rng.uniformInt(words));
}

/// Applies one random mutation: write, bit flip, read (correcting), scrub,
/// raw restore, or a sparse assignment from `other`.
void mutate(EccMemory& mem, const EccMemory& other, util::Rng& rng) {
  switch (rng.uniformInt(9)) {
    case 0:
    case 1:
      mem.write(randomAddress(mem, rng),
                rng.bernoulli(0.3) ? 0u : static_cast<std::uint32_t>(rng.next()));
      break;
    case 2:
    case 3:
      mem.flipBit(randomAddress(mem, rng), static_cast<int>(rng.uniformInt(kEccCodewordBits)));
      break;
    case 4:
    case 5:
      (void)mem.read(randomAddress(mem, rng));
      break;
    case 6:
      (void)mem.scrub();
      break;
    case 7: {
      std::vector<std::uint64_t> raw = other.rawCodewords();
      if (rng.bernoulli(0.5)) raw[rng.uniformInt(raw.size())] ^= 1ULL << rng.uniformInt(39);
      mem.restoreRaw(std::move(raw), rng.uniformInt(5), rng.uniformInt(5));
      break;
    }
    default:
      mem = other;
      break;
  }
}

TEST(EccMemory, SparseCopyAndCompareMatchFullCopies) {
  util::Rng rng{0xD1A7};
  // 12 whole pages plus a partial one, so the last page is short.
  constexpr std::uint32_t kBytes = 4 * (12 * EccMemory::kPageWords + 10);
  EccMemory a{kBytes};
  EccMemory b{kBytes};
  EccMemory stale{kBytes};  // a destination with its own dirty history
  std::size_t equalSteps = 0;
  for (int step = 0; step < 6000; ++step) {
    SCOPED_TRACE(step);
    if (rng.bernoulli(0.5)) {
      mutate(a, b, rng);
    } else {
      mutate(b, a, rng);
    }
    mutate(stale, rng.bernoulli(0.5) ? a : b, rng);
    expectCleanPagesReset(a);
    expectCleanPagesReset(b);
    expectCleanPagesReset(stale);

    const bool equal = a.rawCodewords() == b.rawCodewords();
    equalSteps += equal ? 1 : 0;
    ASSERT_EQ(a.sameCodewords(b), equal);
    ASSERT_EQ(b.sameCodewords(a), equal);

    EccMemory sparse = stale;
    sparse = a;
    ASSERT_EQ(sparse.rawCodewords(), a.rawCodewords());
    ASSERT_EQ(sparse.correctedErrors(), a.correctedErrors());
    ASSERT_EQ(sparse.uncorrectableErrors(), a.uncorrectableErrors());
    ASSERT_TRUE(sparse.sameCodewords(a));
    expectCleanPagesReset(sparse);
  }
  // The walk must visit both outcomes of the compare.
  EXPECT_GT(equalSteps, 100u);
  EXPECT_LT(equalSteps, 5900u);
}

TEST(EccMemory, SelfAssignmentKeepsState) {
  EccMemory mem{1024};
  mem.write(8, 0x1234);
  mem.flipBit(8, 3);
  const std::vector<std::uint64_t> before = mem.rawCodewords();
  const EccMemory& alias = mem;
  mem = alias;
  EXPECT_EQ(mem.rawCodewords(), before);
  EXPECT_TRUE(mem.pageDirty(0));
  EXPECT_EQ(mem.read(8).value, 0x1234u);
}

TEST(EccMemory, SizeMismatchFallsBackToAFullCopy) {
  EccMemory small{256};
  small.write(4, 7);
  EccMemory large{64 * 1024};
  large.write(60000, 9);
  EXPECT_FALSE(small.sameCodewords(large));

  large = small;
  EXPECT_EQ(large.wordCount(), small.wordCount());
  EXPECT_EQ(large.rawCodewords(), small.rawCodewords());
  EXPECT_TRUE(large.sameCodewords(small));
  expectCleanPagesReset(large);

  EccMemory grown{256};
  grown.write(4, 1);
  EccMemory source{64 * 1024};
  source.write(60000, 9);
  grown = source;
  EXPECT_EQ(grown.rawCodewords(), source.rawCodewords());
  EXPECT_EQ(grown.pageCount(), 256u);
  EXPECT_EQ(grown.dirtyPageCount(), 1u);
  expectCleanPagesReset(grown);
}

TEST(EccMemory, RestoreRawRecomputesTheDirtyPages) {
  EccMemory mem{64 * 1024};
  std::vector<std::uint64_t> raw(16384, eccEncode(0));
  raw[5] = eccEncode(1);
  raw[16383] ^= 1;  // a latent upset in the last page
  mem.write(4096, 3);  // dirty before the restore, clean after
  mem.restoreRaw(raw, 2, 1);
  EXPECT_EQ(mem.dirtyPageCount(), 2u);
  EXPECT_TRUE(mem.pageDirty(0));
  EXPECT_TRUE(mem.pageDirty(255));
  EXPECT_EQ(mem.correctedErrors(), 2u);
  expectCleanPagesReset(mem);
}

}  // namespace
}  // namespace nlft::hw
