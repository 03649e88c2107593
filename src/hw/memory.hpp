// ECC-protected word-addressable memory.
//
// Every 32-bit word is stored as a 39-bit SEC-DED codeword. Reads decode the
// codeword: single-bit upsets are corrected transparently (and counted),
// double-bit upsets raise an uncorrectable-ECC error that the machine turns
// into a bus-error exception. Fault injectors flip raw codeword bits, so
// parity bits are exposed to faults exactly like data bits.
//
// The memory also tracks which 64-word pages may differ from the zero-fill
// reset state. Every mutation marks its page; a page outside that dirty set
// provably holds eccEncode(0) in every word. Copy-assignment and
// sameCodewords() visit only dirty pages, so forking or comparing two
// machines costs the pages a guest program touches (a handful), not the
// whole codeword array. The dirty set is derived state: it is never
// serialized and restoreRaw() recomputes it.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "hw/hamming.hpp"

namespace nlft::hw {

/// Outcome of a memory read.
struct MemoryReadResult {
  bool ok = false;           ///< false on uncorrectable ECC error or bad address
  bool corrected = false;    ///< a single-bit error was corrected
  std::uint32_t value = 0;
};

class EccMemory {
 public:
  /// Words per dirty-tracking page.
  static constexpr std::uint32_t kPageWords = 64;

  /// Creates a memory of `sizeBytes` (rounded down to whole words), zeroed.
  explicit EccMemory(std::uint32_t sizeBytes);

  EccMemory(const EccMemory&) = default;
  EccMemory(EccMemory&&) noexcept = default;
  /// Makes this memory equal to `other`, codewords and error counters. For
  /// memories of equal size only pages dirty on either side are touched:
  /// pages dirty in `other` are copied, pages dirty only here are reset to
  /// zero. Memories of different sizes fall back to a full copy.
  EccMemory& operator=(const EccMemory& other);
  EccMemory& operator=(EccMemory&&) noexcept = default;

  [[nodiscard]] std::uint32_t sizeBytes() const { return wordCount_ * 4; }
  [[nodiscard]] std::uint32_t wordCount() const { return wordCount_; }

  /// Aligned 32-bit read with ECC decode. `address` must be word-aligned and
  /// in range; otherwise ok=false with corrected=false.
  [[nodiscard]] MemoryReadResult read(std::uint32_t address);

  /// Aligned 32-bit write (re-encodes a fresh codeword, clearing any latent
  /// upsets in that word). Returns false on bad address.
  bool write(std::uint32_t address, std::uint32_t value);

  /// Raw read without ECC decode (for golden-run snapshots and scrubbing).
  [[nodiscard]] std::uint64_t rawCodeword(std::uint32_t wordIndex) const;

  /// The whole codeword array, raw (for machine snapshots and state digests).
  [[nodiscard]] const std::vector<std::uint64_t>& rawCodewords() const { return codewords_; }

  /// Restores the exact raw state captured by a snapshot: one codeword per
  /// word (resizing the memory to match) plus both error counters. Latent
  /// upsets present at save time come back latent.
  void restoreRaw(std::vector<std::uint64_t> codewords, std::uint64_t correctedErrors,
                  std::uint64_t uncorrectableErrors);

  /// Flips one codeword bit (0..38) of the addressed word; the model for a
  /// memory single-event upset. Returns false on bad address/bit.
  bool flipBit(std::uint32_t address, int bitIndex);

  /// Memory scrubbing: decodes every word, rewriting corrected codewords.
  /// Periodic scrubbing keeps latent single-bit upsets from accumulating
  /// into uncorrectable double-bit errors. Returns the number of words
  /// corrected in this pass (uncorrectable words are left untouched and
  /// counted via uncorrectableErrors()).
  std::uint32_t scrub();

  /// Number of single-bit errors corrected since construction.
  [[nodiscard]] std::uint64_t correctedErrors() const { return correctedErrors_; }
  /// Number of uncorrectable (double-bit) errors observed by reads.
  [[nodiscard]] std::uint64_t uncorrectableErrors() const { return uncorrectableErrors_; }

  [[nodiscard]] bool validAddress(std::uint32_t address) const {
    return address % 4 == 0 && address / 4 < wordCount_;
  }

  /// Exact codeword equality with `other` (false for different sizes).
  /// Visits only the union of both dirty sets: pages clean on both sides
  /// hold the reset state. Error counters are not compared.
  [[nodiscard]] bool sameCodewords(const EccMemory& other) const;

  /// Number of dirty-tracking pages (the last one may be partial).
  [[nodiscard]] std::uint32_t pageCount() const {
    return (wordCount_ + kPageWords - 1) / kPageWords;
  }
  /// True when `page` may differ from the reset state. A clean page holds
  /// eccEncode(0) in every word.
  [[nodiscard]] bool pageDirty(std::uint32_t page) const {
    return (dirty_[page / 64] >> (page % 64) & 1) != 0;
  }
  /// Number of pages that may differ from the reset state.
  [[nodiscard]] std::uint32_t dirtyPageCount() const;

 private:
  void markDirty(std::uint32_t wordIndex) {
    const std::uint32_t page = wordIndex / kPageWords;
    dirty_[page / 64] |= 1ULL << (page % 64);
  }
  /// Word range [first, last) of `page`.
  [[nodiscard]] std::pair<std::uint32_t, std::uint32_t> pageWords(std::uint32_t page) const;

  std::uint32_t wordCount_;
  std::vector<std::uint64_t> codewords_;
  std::vector<std::uint64_t> dirty_;  ///< one bit per page, set = may differ from reset
  std::uint64_t correctedErrors_ = 0;
  std::uint64_t uncorrectableErrors_ = 0;
};

}  // namespace nlft::hw
