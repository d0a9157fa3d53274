#include "exec/thread_pool.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"

namespace lodviz::exec {

namespace {

/// Set for the duration of WorkerLoop; lets InAnyPool()/ParallelFor detect
/// re-entrant parallelism without any lock.
thread_local const ThreadPool* tl_worker_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(size_t num_threads)
    : num_threads_(std::max<size_t>(num_threads, 1)) {
  obs::MetricRegistry::Global()
      .GetGauge("exec.pool.threads")
      .Set(static_cast<int64_t>(num_threads_));
  workers_.reserve(num_threads_);
  for (size_t i = 0; i < num_threads_; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Submit(std::function<void()> task) {
  LODVIZ_CHECK(task != nullptr) << "null task submitted to ThreadPool";
  {
    MutexLock lock(&mu_);
    LODVIZ_CHECK(!shutting_down_) << "Submit after ThreadPool::Shutdown";
    queue_.push_back(std::move(task));
    obs::MetricRegistry::Global()
        .GetGauge("exec.pool.queue_depth")
        .Set(static_cast<int64_t>(queue_.size()));
  }
  work_ready_.NotifyOne();
}

void ThreadPool::Shutdown() {
  {
    MutexLock lock(&mu_);
    if (shutting_down_ && workers_.empty()) return;
    shutting_down_ = true;
  }
  work_ready_.NotifyAll();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  obs::MetricRegistry::Global().GetGauge("exec.pool.threads").Set(0);
}

bool ThreadPool::InAnyPool() { return tl_worker_pool != nullptr; }

void ThreadPool::WorkerLoop(size_t worker_index) {
  tl_worker_pool = this;
  // Per-worker counter handles, resolved once per worker thread.
  obs::Counter& pool_tasks =
      obs::MetricRegistry::Global().GetCounter("exec.pool.tasks");
  obs::Counter& my_tasks = obs::MetricRegistry::Global().GetCounter(
      "exec.worker." + std::to_string(worker_index) + ".tasks");
  obs::Gauge& queue_depth =
      obs::MetricRegistry::Global().GetGauge("exec.pool.queue_depth");
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(&mu_);
      while (!shutting_down_ && queue_.empty()) work_ready_.Wait(&mu_);
      // Graceful: drain the queue even when shutting down.
      if (queue_.empty()) break;
      task = std::move(queue_.front());
      queue_.pop_front();
      queue_depth.Set(static_cast<int64_t>(queue_.size()));
    }
    pool_tasks.Increment();
    my_tasks.Increment();
    task();
  }
  tl_worker_pool = nullptr;
}

}  // namespace lodviz::exec
