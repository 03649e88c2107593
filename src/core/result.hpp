// Task results, comparison and majority voting for temporal error masking.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace nlft::tem {

/// The output of one task copy (the "write output" data of Fig. 2).
using TaskResult = std::vector<std::uint32_t>;

/// Bytewise comparison of two results (the TEM comparison step).
[[nodiscard]] bool resultsMatch(const TaskResult& a, const TaskResult& b);

/// Majority vote over any number of candidate results: returns a result that
/// at least two candidates agree on, or nullopt when all differ pairwise.
[[nodiscard]] std::optional<TaskResult> majorityVote(std::span<const TaskResult> candidates);

/// majorityVote() without the copy: the index of the winning candidate (the
/// first one that another candidate agrees with).
[[nodiscard]] std::optional<std::size_t> majorityIndex(std::span<const TaskResult> candidates);

}  // namespace nlft::tem
