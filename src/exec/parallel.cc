#include "exec/parallel.h"

#include <atomic>
#include <cstdlib>
#include <memory>
#include <thread>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace lodviz::exec {

namespace {

size_t DefaultThreads() {
  if (const char* env = std::getenv("LODVIZ_THREADS")) {
    char* end = nullptr;
    long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) return static_cast<size_t>(v);
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw ? hw : 1;
}

/// Thread-count config + lazily built pool. Function-local static so the
/// pool is constructed after (and destroyed before) the obs registry its
/// workers report into.
struct GlobalExec {
  /// SetThreads()/GlobalPool() construct and destroy the pool (whose ctor
  /// registers gauges and whose dtor takes ThreadPool::mu_) while holding
  /// mu, so it orders before both downstream mutexes.
  Mutex mu LODVIZ_ACQUIRED_BEFORE(exec::ThreadPool::mu_)
      LODVIZ_ACQUIRED_BEFORE(obs::MetricRegistry::mu_);
  size_t threads LODVIZ_GUARDED_BY(mu) = 0;  // 0 = uninitialized
  std::unique_ptr<ThreadPool> pool LODVIZ_GUARDED_BY(mu);

  static GlobalExec& Get() {
    // The pool's destructor sets a registry gauge, so the registry is
    // constructed first and therefore destroyed after this state.
    obs::MetricRegistry::Global();
    static GlobalExec state;
    return state;
  }
};

}  // namespace

size_t ThreadCount() {
  GlobalExec& g = GlobalExec::Get();
  MutexLock lock(&g.mu);
  if (g.threads == 0) g.threads = DefaultThreads();
  return g.threads;
}

void SetThreads(size_t n) {
  GlobalExec& g = GlobalExec::Get();
  MutexLock lock(&g.mu);
  g.pool.reset();  // joins workers; safe because no Parallel* is in flight
  g.threads = n ? n : DefaultThreads();
}

bool InWorkerThread() { return ThreadPool::InAnyPool(); }

bool SerialMode() { return InWorkerThread() || ThreadCount() == 1; }

ThreadPool& GlobalPool() {
  GlobalExec& g = GlobalExec::Get();
  MutexLock lock(&g.mu);
  if (g.threads == 0) g.threads = DefaultThreads();
  if (!g.pool) g.pool = std::make_unique<ThreadPool>(g.threads);
  return *g.pool;
}

void ParallelFor(size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t, size_t)>& fn) {
  if (end <= begin) return;
  if (grain == 0) grain = 1;
  const size_t n = end - begin;
  const size_t num_chunks = (n + grain - 1) / grain;
  if (num_chunks <= 1 || SerialMode()) {
    fn(begin, end);
    return;
  }
  ThreadPool& pool = GlobalPool();
  const uint64_t parent_span = obs::CurrentSpanId();
  const size_t num_tasks = std::min(num_chunks, pool.num_threads());

  // Workers claim chunks from a shared cursor; the caller blocks until the
  // last task retires. Chunk boundaries are a pure function of grain, so
  // which worker runs which chunk never affects results.
  std::atomic<size_t> next_chunk{0};
  Mutex done_mu;
  CondVar done_cv;
  size_t tasks_done = 0;
  for (size_t t = 0; t < num_tasks; ++t) {
    pool.Submit([&] {
      obs::SpanParentScope adopt(parent_span);
      for (;;) {
        size_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
        if (c >= num_chunks) break;
        size_t b = begin + c * grain;
        size_t e = std::min(end, b + grain);
        fn(b, e);
      }
      // Notify under the lock: the caller may destroy done_cv the moment
      // the predicate is satisfied.
      MutexLock lock(&done_mu);
      ++tasks_done;
      done_cv.NotifyOne();
    });
  }
  MutexLock lock(&done_mu);
  done_cv.Wait(&done_mu, [&] { return tasks_done == num_tasks; });
}

}  // namespace lodviz::exec
