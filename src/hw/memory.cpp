#include "hw/memory.hpp"

#include <algorithm>
#include <bit>

namespace nlft::hw {

namespace {

/// The codeword of a reset (zero) word, which every clean page holds.
std::uint64_t resetCodeword() {
  static const std::uint64_t codeword = eccEncode(0);
  return codeword;
}

/// Calls `visit(page)` for every page set in `mask(i)`, i over the bitmap.
template <typename Mask, typename Visit>
bool forEachPage(std::size_t bitmapSize, Mask mask, Visit visit) {
  for (std::size_t i = 0; i < bitmapSize; ++i) {
    for (std::uint64_t bits = mask(i); bits != 0; bits &= bits - 1) {
      const auto page = static_cast<std::uint32_t>(i * 64 + std::countr_zero(bits));
      if (!visit(page)) return false;
    }
  }
  return true;
}

}  // namespace

EccMemory::EccMemory(std::uint32_t sizeBytes) : wordCount_{sizeBytes / 4} {
  codewords_.assign(wordCount_, resetCodeword());
  dirty_.assign((pageCount() + 63) / 64, 0);
}

EccMemory& EccMemory::operator=(const EccMemory& other) {
  if (this == &other) return *this;
  if (wordCount_ != other.wordCount_) {
    wordCount_ = other.wordCount_;
    codewords_ = other.codewords_;
  } else {
    const std::uint64_t reset = resetCodeword();
    forEachPage(
        dirty_.size(), [&](std::size_t i) { return dirty_[i] | other.dirty_[i]; },
        [&](std::uint32_t page) {
          const auto [first, last] = pageWords(page);
          if (other.pageDirty(page)) {
            std::copy(other.codewords_.begin() + first, other.codewords_.begin() + last,
                      codewords_.begin() + first);
          } else {
            std::fill(codewords_.begin() + first, codewords_.begin() + last, reset);
          }
          return true;
        });
  }
  dirty_ = other.dirty_;
  correctedErrors_ = other.correctedErrors_;
  uncorrectableErrors_ = other.uncorrectableErrors_;
  return *this;
}

bool EccMemory::sameCodewords(const EccMemory& other) const {
  if (wordCount_ != other.wordCount_) return false;
  return forEachPage(
      dirty_.size(), [&](std::size_t i) { return dirty_[i] | other.dirty_[i]; },
      [&](std::uint32_t page) {
        const auto [first, last] = pageWords(page);
        return std::equal(codewords_.begin() + first, codewords_.begin() + last,
                          other.codewords_.begin() + first);
      });
}

std::uint32_t EccMemory::dirtyPageCount() const {
  std::uint32_t count = 0;
  for (const std::uint64_t bits : dirty_) count += static_cast<std::uint32_t>(std::popcount(bits));
  return count;
}

std::pair<std::uint32_t, std::uint32_t> EccMemory::pageWords(std::uint32_t page) const {
  return {page * kPageWords, std::min((page + 1) * kPageWords, wordCount_)};
}

MemoryReadResult EccMemory::read(std::uint32_t address) {
  MemoryReadResult result;
  if (!validAddress(address)) return result;
  auto& codeword = codewords_[address / 4];
  const EccDecodeResult decoded = eccDecode(codeword);
  switch (decoded.status) {
    case EccStatus::Clean:
      result.ok = true;
      result.value = decoded.data;
      break;
    case EccStatus::Corrected:
      // Scrub on read: store the corrected codeword back.
      codeword = decoded.codeword;
      markDirty(address / 4);
      ++correctedErrors_;
      result.ok = true;
      result.corrected = true;
      result.value = decoded.data;
      break;
    case EccStatus::Uncorrectable:
      ++uncorrectableErrors_;
      break;
  }
  return result;
}

bool EccMemory::write(std::uint32_t address, std::uint32_t value) {
  if (!validAddress(address)) return false;
  codewords_[address / 4] = eccEncode(value);
  markDirty(address / 4);
  return true;
}

std::uint64_t EccMemory::rawCodeword(std::uint32_t wordIndex) const {
  return wordIndex < wordCount_ ? codewords_[wordIndex] : 0;
}

void EccMemory::restoreRaw(std::vector<std::uint64_t> codewords, std::uint64_t correctedErrors,
                           std::uint64_t uncorrectableErrors) {
  wordCount_ = static_cast<std::uint32_t>(codewords.size());
  codewords_ = std::move(codewords);
  dirty_.assign((pageCount() + 63) / 64, 0);
  const std::uint64_t reset = resetCodeword();
  for (std::uint32_t word = 0; word < wordCount_; ++word) {
    if (codewords_[word] != reset) markDirty(word);
  }
  correctedErrors_ = correctedErrors;
  uncorrectableErrors_ = uncorrectableErrors;
}

std::uint32_t EccMemory::scrub() {
  // Clean pages hold reset codewords, which decode clean: only dirty pages
  // can need a correction.
  std::uint32_t corrected = 0;
  forEachPage(
      dirty_.size(), [this](std::size_t i) { return dirty_[i]; },
      [&](std::uint32_t page) {
        const auto [first, last] = pageWords(page);
        for (std::uint32_t word = first; word < last; ++word) {
          const EccDecodeResult decoded = eccDecode(codewords_[word]);
          switch (decoded.status) {
            case EccStatus::Clean:
              break;
            case EccStatus::Corrected:
              codewords_[word] = decoded.codeword;
              markDirty(word);
              ++correctedErrors_;
              ++corrected;
              break;
            case EccStatus::Uncorrectable:
              ++uncorrectableErrors_;
              break;
          }
        }
        return true;
      });
  return corrected;
}

bool EccMemory::flipBit(std::uint32_t address, int bitIndex) {
  if (!validAddress(address) || bitIndex < 0 || bitIndex >= kEccCodewordBits) return false;
  codewords_[address / 4] ^= 1ULL << bitIndex;
  markDirty(address / 4);
  return true;
}

}  // namespace nlft::hw
