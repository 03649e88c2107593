// In-memory span recorder for the traced benchmark run.
//
// The benchmark records one span around each call it makes into a layer's
// public function: name, host start/end (steady_clock), the enclosing span
// and an item id shared by the spans of one campaign item. Spans stay in
// memory until the run ends; writeChromeJson() then emits them in the
// Chrome trace_event format (complete 'X' events, microsecond timestamps),
// which Perfetto and chrome://tracing open directly. The recorder is
// single-threaded: the traced run drives every layer from one thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  std::int64_t parent = -1;  ///< index of the enclosing span, -1 at top level
  std::int64_t item = -1;    ///< campaign item the span belongs to, -1 if none
  std::uint64_t calls = 1;   ///< calls the span covers (batched microbenchmarks)
};

/// Per-name totals: a layer's self time is its span time minus the part of
/// it covered by its child spans.
struct SpanTotals {
  std::uint64_t spans = 0;
  std::uint64_t calls = 0;
  double totalS = 0.0;
  double selfS = 0.0;
};

class SpanRecorder {
 public:
  /// Opens a span nested in the innermost open one; returns its index.
  std::size_t open(std::string name, std::int64_t item = -1, std::uint64_t calls = 1);
  /// Closes the innermost open span, which must be `index`.
  void close(std::size_t index);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::map<std::string, SpanTotals> totals() const;

  /// Writes the spans as Chrome trace_event JSON; returns false on I/O error.
  [[nodiscard]] bool writeChromeJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> openStack_;
  std::chrono::steady_clock::time_point origin_ = std::chrono::steady_clock::now();
};

/// RAII span; a null recorder records nothing (the untraced comparison runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name, std::int64_t item = -1,
             std::uint64_t calls = 1)
      : recorder_{recorder},
        index_{recorder != nullptr ? recorder->open(std::move(name), item, calls) : 0} {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  std::size_t index_;
};

}  // namespace perfbench
