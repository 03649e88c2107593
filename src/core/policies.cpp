#include "core/policies.hpp"

#include <stdexcept>

namespace nlft::tem {

namespace {

/// A task executed as one copy per job. The per-job state lives here, so the
/// job's error and copy callbacks capture only this record and stay inside
/// std::function's inline buffer.
struct SingleCopyTask {
  CopyBehavior behavior;
  std::function<void()> onError;  ///< reaction to any detected error
  rt::Job* job = nullptr;         ///< the job in flight
  CopyPlan plan;                  ///< its copy's plan
};

void runSingleCopy(SingleCopyTask& task, rt::Job& job) {
  task.job = &job;
  job.setErrorHandler([&task](const rt::ErrorEvent&) { task.onError(); });
  task.plan = task.behavior(CopyContext{job.index(), 1});
  job.runCopy(task.plan.executionTime, [&task](rt::CopyStop stop) {
    if (stop == rt::CopyStop::Aborted) return;
    if (stop != rt::CopyStop::Completed || task.plan.end == CopyPlan::End::DetectedError) {
      task.onError();
      return;
    }
    task.job->complete(std::move(task.plan.result));
  });
}

}  // namespace

rt::TaskId FailSilentExecutor::addTask(rt::TaskConfig taskConfig, CopyBehavior behavior) {
  if (!behavior) throw std::invalid_argument("FailSilentExecutor: null behavior");
  auto task = std::make_shared<SingleCopyTask>();
  task->behavior = std::move(behavior);
  task->onError = [this] {
    ++failSilentEvents_;
    // Fail-silent semantics: the node stops producing any output.
    kernel_.reportKernelError({rt::ErrorEvent::Source::External, 0});
  };
  return kernel_.addTask(std::move(taskConfig),
                         [task](rt::Job& job) { runSingleCopy(*task, job); });
}

void FailSilentExecutor::copyStateFrom(const FailSilentExecutor& other) {
  for (const rt::RtKernel* kernel : {&kernel_, &other.kernel_}) {
    for (std::uint32_t task = 0; task < kernel->taskCount(); ++task) {
      if (kernel->jobActive(rt::TaskId{task})) {
        throw std::logic_error("FailSilentExecutor::copyStateFrom: a job is active");
      }
    }
  }
  failSilentEvents_ = other.failSilentEvents_;
}

rt::TaskId addNonCriticalTask(rt::RtKernel& kernel, rt::TaskConfig taskConfig,
                              CopyBehavior behavior) {
  if (!behavior) throw std::invalid_argument("addNonCriticalTask: null behavior");
  taskConfig.criticality = rt::Criticality::NonCritical;
  auto task = std::make_shared<SingleCopyTask>();
  task->behavior = std::move(behavior);
  const rt::TaskId id =
      kernel.addTask(std::move(taskConfig), [task](rt::Job& job) { runSingleCopy(*task, job); });
  // The task id is only known after addTask returns.
  task->onError = [&kernel, id] { kernel.disableTask(id); };
  return id;
}

PermanentFaultMonitor::PermanentFaultMonitor(int threshold) : threshold_{threshold} {
  if (threshold < 1) throw std::invalid_argument("PermanentFaultMonitor: threshold must be >= 1");
}

void PermanentFaultMonitor::onJob(rt::TaskId task, bool jobHadError) {
  int& streak = streaks_[task.value];
  if (!jobHadError) {
    streak = 0;
    return;
  }
  ++streak;
  if (streak >= threshold_ && !suspected_) {
    suspected_ = true;
    if (shutdown_) shutdown_();
  }
}

int PermanentFaultMonitor::streak(rt::TaskId task) const {
  const auto it = streaks_.find(task.value);
  return it == streaks_.end() ? 0 : it->second;
}

}  // namespace nlft::tem
