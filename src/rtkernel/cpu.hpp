// Preemptive fixed-priority CPU resource on top of the discrete-event
// simulator.
//
// Work items occupy the (single) CPU for a given duration; a higher-priority
// item preempts the running one, which resumes later with its remaining
// time. The execution trace records every contiguous segment, which the
// tests use to assert exact Gantt charts (recording can be switched off for
// users that never read it).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/simulator.hpp"
#include "util/time.hpp"

namespace nlft::rt {

using util::Duration;
using util::SimTime;

struct WorkId {
  std::uint64_t value = 0;
  [[nodiscard]] bool valid() const { return value != 0; }
  friend bool operator==(WorkId, WorkId) = default;
};

/// One contiguous interval of CPU time given to a work item. `label` views
/// the label the owning Cpu interned at post(); it stays valid as long as
/// that Cpu lives.
struct ExecutionSegment {
  std::string_view label;
  SimTime start;
  SimTime end;
};

class Cpu {
 public:
  using CompletionFn = std::function<void()>;

  /// `contextSwitchOverhead` is charged whenever a different work item is
  /// dispatched (a simple but measurable model of kernel overhead).
  explicit Cpu(sim::Simulator& simulator, Duration contextSwitchOverhead = Duration{});

  /// Enqueues `work` at `priority` (higher runs first; FIFO within equal
  /// priority). `onComplete` fires when the accumulated CPU time reaches
  /// `work`. Returns an id usable with cancel(). The label is interned: each
  /// distinct label is stored once per Cpu, not once per post or segment.
  WorkId post(int priority, Duration work, CompletionFn onComplete, std::string_view label);

  /// Cancels a queued or running work item (its completion never fires).
  /// Returns false if the item already completed or is unknown.
  bool cancel(WorkId id);

  [[nodiscard]] bool idle() const { return !running_.has_value(); }
  /// Label of the running item, or empty when idle.
  [[nodiscard]] std::string runningLabel() const;

  /// Replaces this CPU's scheduling state (id and sequence counters, busy
  /// time, dispatch statistics, the label dispatched last) with `other`'s.
  /// The segment trace is not copied. Throws std::logic_error when either
  /// CPU is busy or has work queued: a work item's completion closure
  /// cannot be copied.
  void copyStateFrom(const Cpu& other);

  /// Segment recording (on by default). Off, trace() stays empty and the
  /// CPU keeps no per-segment history.
  void setTraceEnabled(bool enabled) { traceEnabled_ = enabled; }

  [[nodiscard]] const std::vector<ExecutionSegment>& trace() const { return trace_; }
  /// Total CPU busy time accumulated so far.
  [[nodiscard]] Duration busyTime() const { return busy_; }
  [[nodiscard]] std::uint64_t preemptions() const { return preemptions_; }
  [[nodiscard]] std::uint64_t dispatches() const { return dispatches_; }

 private:
  struct Item {
    WorkId id;
    int priority;
    std::uint64_t seq;
    Duration remaining;
    CompletionFn onComplete;
    std::uint32_t label;  ///< index into labels_
  };
  struct Running {
    Item item;
    SimTime segmentStart;
    sim::EventId completionEvent;
  };

  void dispatch();
  void preemptRunning();
  void onCompletion();
  void closeSegment();
  std::uint32_t intern(std::string_view label);

  sim::Simulator& simulator_;
  Duration contextSwitch_;
  std::uint64_t nextId_ = 1;
  std::uint64_t nextSeq_ = 0;
  std::vector<Item> ready_;
  std::optional<Running> running_;
  std::vector<ExecutionSegment> trace_;
  bool traceEnabled_ = true;
  Duration busy_{};
  std::uint64_t preemptions_ = 0;
  std::uint64_t dispatches_ = 0;
  /// Interned labels; a deque so segment views stay valid as it grows.
  /// Label 0 is the empty label, which is also "dispatched last" initially.
  std::deque<std::string> labels_{std::string{}};
  std::uint32_t lastDispatchedLabel_ = 0;
};

}  // namespace nlft::rt
