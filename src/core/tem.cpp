#include "core/tem.hpp"

#include <memory>
#include <stdexcept>

namespace nlft::tem {

TemExecutor::TemExecutor(rt::RtKernel& kernel, TemConfig config)
    : kernel_{kernel}, config_{config} {
  if (config_.maxCopies < 2) throw std::invalid_argument("TemExecutor: maxCopies must be >= 2");
}

rt::TaskId TemExecutor::addCriticalTask(rt::TaskConfig taskConfig, CopyBehavior behavior) {
  if (!behavior) throw std::invalid_argument("TemExecutor: null behavior");
  taskConfig.criticality = rt::Criticality::Critical;
  // The comparison/vote is charged as part of the copy's CPU work, so the
  // execution-time-monitor budget must cover it too.
  if (taskConfig.budget == Duration{}) taskConfig.budget = taskConfig.wcet;
  taskConfig.budget += config_.checkOverhead;
  auto state = std::make_unique<TaskState>();
  TaskState* raw = state.get();
  state->behavior = std::move(behavior);
  state->results.reserve(static_cast<std::size_t>(config_.maxCopies));
  state->id = kernel_.addTask(std::move(taskConfig),
                              [this, raw](rt::Job& job) { runJob(*raw, job); });
  tasks_.push_back(std::move(state));
  return tasks_.back()->id;
}

const TemStats& TemExecutor::stats(rt::TaskId task) const {
  for (const auto& state : tasks_) {
    if (state->id == task) return state->stats;
  }
  throw std::invalid_argument("TemExecutor: unknown task");
}

void TemExecutor::copyStateFrom(const TemExecutor& other) {
  if (tasks_.size() != other.tasks_.size()) {
    throw std::logic_error("TemExecutor::copyStateFrom: different task sets");
  }
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    if (kernel_.jobActive(tasks_[i]->id) || other.kernel_.jobActive(other.tasks_[i]->id)) {
      throw std::logic_error("TemExecutor::copyStateFrom: a job is active");
    }
  }
  // Per-job fields (job, copies, results, plan) are reset at every release.
  for (std::size_t i = 0; i < tasks_.size(); ++i) tasks_[i]->stats = other.tasks_[i]->stats;
}

void TemExecutor::runJob(TaskState& state, rt::Job& job) {
  state.stats.jobs++;
  state.job = &job;
  state.copiesStarted = 0;
  state.results.clear();
  state.sawMismatch = false;
  state.sawDetectedError = false;

  job.setAbortHandler([this, &state] {
    state.stats.omissionsAborted++;
    if (onJobError_) onJobError_(state.id, true);
  });

  // Errors reported while a copy runs (hardware EDM, ECC, MMU, integrity
  // checks): terminate the copy at once — scenario (iii)/(iv). Remaining
  // copy time is reclaimed because the CPU work item is cancelled.
  job.setErrorHandler([this, &state](const rt::ErrorEvent&) {
    onDetectedError(state);
    if (state.job->copyActive()) {
      state.job->killRunningCopy();  // its onStop(Killed) continues the recovery
    }
  });

  startCopy(state);
}

void TemExecutor::onDetectedError(TaskState& state) {
  state.sawDetectedError = true;
  state.stats.edmDetectedErrors++;
  if (config_.restoreContextOnEdmError) state.stats.contextRestores++;
}

void TemExecutor::startCopy(TaskState& state) {
  rt::Job& job = *state.job;
  const CopyContext context{job.index(), ++state.copiesStarted};
  if (context.copyIndex == 1) {
    state.stats.firstCopies++;
  } else if (context.copyIndex == 2) {
    state.stats.secondCopies++;
  } else {
    state.stats.thirdCopies++;
  }
  state.plan = state.behavior(context);

  // Comparison (after the second and later copies) is charged as CPU time
  // together with the copy itself.
  Duration work = state.plan.executionTime;
  if (context.copyIndex >= 2) work += config_.checkOverhead;

  job.runCopy(work, [this, &state](rt::CopyStop stop) { onCopyStop(state, stop); });
}

void TemExecutor::notifyJobEnd(TaskState& state, bool hadError) {
  if (onJobError_) onJobError_(state.id, hadError);
}

void TemExecutor::onCopyStop(TaskState& state, rt::CopyStop stop) {
  rt::Job& job = *state.job;
  switch (stop) {
    case rt::CopyStop::Aborted:
      // The kernel's deadline monitor already omitted the job and invoked
      // the abort handler; nothing more to do.
      return;
    case rt::CopyStop::Killed:
      // Terminated by the error handler; fall through to recovery.
      break;
    case rt::CopyStop::BudgetOverrun:
      // The execution-time monitor is itself an EDM (Table 1).
      onDetectedError(state);
      break;
    case rt::CopyStop::Completed:
      if (state.plan.end == CopyPlan::End::DetectedError) {
        // The EDM fired after the copy consumed plan.executionTime.
        onDetectedError(state);
        break;  // discard: the copy produced no trustworthy result
      }
      state.results.push_back(std::move(state.plan.result));
      if (state.results.size() >= 2) {
        if (state.results.size() == 2 && !resultsMatch(state.results[0], state.results[1])) {
          state.sawMismatch = true;
          state.stats.comparisonMismatches++;
        }
        if (const auto voted = majorityIndex(state.results)) {
          if (!state.hadError()) {
            state.stats.deliveredCleanly++;
          } else if (state.sawMismatch && state.results.size() >= 3) {
            state.stats.maskedByVote++;
          } else {
            state.stats.maskedByReplacement++;
          }
          const bool hadError = state.hadError();
          job.complete(std::move(state.results[*voted]));  // retires the job: last use
          notifyJobEnd(state, hadError);
          return;
        }
        // All results differ pairwise.
        if (state.copiesStarted >= config_.maxCopies) {
          state.stats.omissionsVoteFailed++;
          job.omit();
          notifyJobEnd(state, true);
          return;
        }
      }
      break;
  }

  // Need another copy (first result pending, mismatch, or detected error).
  // Can another copy be started and still meet the deadline? The kernel
  // checks the deadline after every error (Section 2.5); the estimate is
  // one copy worst case plus the comparison/vote.
  const bool anotherCopyFeasible =
      state.copiesStarted < config_.maxCopies &&
      job.timeToDeadline() >= job.config().wcet + config_.checkOverhead;
  if (anotherCopyFeasible) {
    startCopy(state);
  } else {
    state.stats.omissionsNoTime++;
    job.omit();
    notifyJobEnd(state, true);
  }
}

}  // namespace nlft::tem
