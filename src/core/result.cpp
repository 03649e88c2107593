#include "core/result.hpp"

namespace nlft::tem {

bool resultsMatch(const TaskResult& a, const TaskResult& b) { return a == b; }

std::optional<std::size_t> majorityIndex(std::span<const TaskResult> candidates) {
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    for (std::size_t j = i + 1; j < candidates.size(); ++j) {
      if (candidates[i] == candidates[j]) return i;
    }
  }
  return std::nullopt;
}

std::optional<TaskResult> majorityVote(std::span<const TaskResult> candidates) {
  if (const auto index = majorityIndex(candidates)) return candidates[*index];
  return std::nullopt;
}

}  // namespace nlft::tem
