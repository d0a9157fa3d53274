#ifndef LODVIZ_EXEC_THREAD_POOL_H_
#define LODVIZ_EXEC_THREAD_POOL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace lodviz::exec {

/// Fixed-size worker pool with a FIFO work queue. This is the only place
/// in lodviz allowed to construct std::thread (enforced by the
/// `exec.no_raw_thread` lint rule): every parallel hot path goes through
/// ParallelFor/ParallelReduce (parallel.h) on top of this pool, so thread
/// count, shutdown order, and per-worker observability are controlled in
/// one subsystem.
///
/// Tasks must not throw (lodviz is Status-based; a throwing task
/// std::terminates) and must not block on other tasks in the same pool —
/// ParallelFor guards against that by degrading to serial execution when
/// invoked from a worker thread.
///
/// Observability: the pool registers `exec.pool.threads` (gauge),
/// `exec.pool.tasks` (counter), `exec.pool.queue_depth` (gauge), and one
/// `exec.worker.<i>.tasks` counter per worker in the global MetricRegistry.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);

  /// Graceful shutdown: drains every already-submitted task, then joins.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task`. Must not be called after Shutdown() has started.
  void Submit(std::function<void()> task) LODVIZ_EXCLUDES(mu_);

  /// Stops accepting work, runs all queued tasks to completion, and joins
  /// the workers. Idempotent; called by the destructor.
  void Shutdown() LODVIZ_EXCLUDES(mu_);

  /// Pool size; stable across Shutdown().
  size_t num_threads() const { return num_threads_; }

  /// True iff the calling thread is a worker of ANY ThreadPool (lock-free
  /// thread-local check; used by SerialMode to detect nested parallelism).
  static bool InAnyPool();

 private:
  void WorkerLoop(size_t worker_index) LODVIZ_EXCLUDES(mu_);

  /// Submit() resolves obs gauges while holding mu_, so the pool mutex
  /// orders strictly before the metric registry's.
  mutable Mutex mu_ LODVIZ_ACQUIRED_BEFORE(obs::MetricRegistry::mu_);
  CondVar work_ready_;
  std::deque<std::function<void()>> queue_ LODVIZ_GUARDED_BY(mu_);
  bool shutting_down_ LODVIZ_GUARDED_BY(mu_) = false;
  /// Written only by the constructor and Shutdown(); Shutdown() must join
  /// outside the lock (workers take mu_ to pop work), and the join itself
  /// is the happens-before edge that makes the final clear() safe.
  // LINT-ALLOW(concurrency.guarded_by): ctor/Shutdown-only; join is the sync
  std::vector<std::thread> workers_;
  const size_t num_threads_;
};

}  // namespace lodviz::exec

#endif  // LODVIZ_EXEC_THREAD_POOL_H_
