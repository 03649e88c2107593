// Node-level error-handling policies built on the kernel and TEM:
//
//  * FailSilentExecutor — the conventional fail-silent node of the paper's
//    comparison baseline: tasks run once; ANY detected error silences the
//    whole node (kernel stop + fail-silent hook).
//  * addNonCriticalTask — strategy 2 of Section 2.2: a non-critical task is
//    shut down on error so the remaining tasks keep running.
//  * PermanentFaultMonitor — repeated errors on consecutive jobs suggest a
//    permanent fault; the node is shut down for off-line diagnosis
//    (Section 2.5, last paragraph).
#pragma once

#include <functional>
#include <unordered_map>

#include "core/tem.hpp"
#include "rtkernel/kernel.hpp"

namespace nlft::tem {

/// Executes tasks on a conventional fail-silent node: no masking, stop on
/// first detected error.
class FailSilentExecutor {
 public:
  explicit FailSilentExecutor(rt::RtKernel& kernel) : kernel_{kernel} {}

  /// Registers a task; the same CopyBehavior type as TEM is used so the two
  /// node types can run identical workloads.
  rt::TaskId addTask(rt::TaskConfig taskConfig, CopyBehavior behavior);

  [[nodiscard]] std::uint64_t failSilentEvents() const { return failSilentEvents_; }

  /// Replaces this executor's state (its fail-silent count) with `other`'s.
  /// Throws std::logic_error while a job is active on either kernel.
  void copyStateFrom(const FailSilentExecutor& other);

 private:
  rt::RtKernel& kernel_;
  std::uint64_t failSilentEvents_ = 0;
};

/// Registers a non-critical task: executed once per release; a detected
/// error shuts the task down (further releases disabled) without affecting
/// the node.
rt::TaskId addNonCriticalTask(rt::RtKernel& kernel, rt::TaskConfig taskConfig,
                              CopyBehavior behavior);

/// Watches per-task job error streaks and requests a node shutdown for
/// off-line diagnosis when `threshold` consecutive jobs of the same task saw
/// errors (transient faults do not repeat; permanent faults do).
class PermanentFaultMonitor {
 public:
  explicit PermanentFaultMonitor(int threshold = 3);

  /// Wire to TemExecutor::setJobErrorCallback.
  void onJob(rt::TaskId task, bool jobHadError);

  /// Invoked once when the threshold is first reached.
  void setShutdownHook(std::function<void()> hook) { shutdown_ = std::move(hook); }

  [[nodiscard]] bool permanentSuspected() const { return suspected_; }
  [[nodiscard]] int streak(rt::TaskId task) const;

 private:
  int threshold_;
  bool suspected_ = false;
  std::function<void()> shutdown_;
  std::unordered_map<std::uint32_t, int> streaks_;
};

}  // namespace nlft::tem
