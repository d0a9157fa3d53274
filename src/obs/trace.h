#ifndef LODVIZ_OBS_TRACE_H_
#define LODVIZ_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace lodviz::obs {

/// One finished span. Spans form a tree per thread: `parent_id` is the id
/// of the span that was open on the same thread when this one started
/// (0 for roots), and `depth` is the nesting level at that moment.
struct SpanRecord {
  std::string name;
  uint64_t id = 0;
  uint64_t parent_id = 0;
  uint32_t depth = 0;
  /// Small dense per-thread id (1, 2, …), not an OS thread id.
  uint64_t thread_id = 0;
  /// Monotonic timestamps (Stopwatch clock), ns since clock epoch.
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Process-wide collector of finished spans. Disabled by default: with
/// tracing off a span costs one relaxed atomic load in the constructor and
/// one branch in the destructor — cheap enough to leave LODVIZ_TRACE_SPAN
/// compiled into hot paths. When enabled, finished spans are appended to a
/// mutex-guarded buffer; export with ChromeTraceJson() (export.h) and open
/// the result in chrome://tracing or https://ui.perfetto.dev.
///
/// The buffer is bounded: once kMaxFinishedSpans spans are retained, new
/// ones are counted in dropped() instead of stored — a span inside a
/// per-row loop (e.g. SPARQL OPTIONAL evaluation) must not grow memory
/// without bound or produce traces no viewer can open.
class Tracer {
 public:
  /// ~250k complete events is comfortably within what chrome://tracing
  /// and Perfetto load; beyond it traces stop being explorable anyway.
  static constexpr size_t kMaxFinishedSpans = 1 << 18;

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  static Tracer& Global();

  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Copies the finished spans collected so far (completion order).
  std::vector<SpanRecord> Finished() const LODVIZ_EXCLUDES(mu_);

  /// Spans discarded because the buffer was full.
  uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  friend class ScopedSpan;

  void Append(SpanRecord record) LODVIZ_EXCLUDES(mu_);
  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> dropped_{0};
  /// Leaf mutex: Append/TakeFinished never acquire another lock while
  /// holding it, so spans can finish from any context without ordering
  /// constraints.
  mutable Mutex mu_;
  std::vector<SpanRecord> finished_ LODVIZ_GUARDED_BY(mu_);
};

/// RAII span: opens on construction (if tracing is enabled), records on
/// destruction. `name` must outlive the span — pass a string literal.
/// Use via LODVIZ_TRACE_SPAN rather than directly.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  bool active() const { return name_ != nullptr; }

 private:
  const char* name_ = nullptr;  // nullptr <=> tracing was off at entry
  uint64_t id_ = 0;
  uint64_t parent_id_ = 0;
  uint32_t depth_ = 0;
  int64_t start_ns_ = 0;
};

/// Dense id of the calling thread as used in SpanRecord::thread_id.
uint64_t TraceThreadId();

/// Id of the innermost span currently open on the calling thread, or 0 if
/// none (or tracing is off). Capture this before handing work to another
/// thread and re-establish it there with SpanParentScope so cross-thread
/// traces stay hierarchical.
uint64_t CurrentSpanId();

/// RAII adoption of a foreign span as the calling thread's current parent:
/// spans opened while the scope is alive get `parent_id` (typically
/// captured on the submitting thread via CurrentSpanId()) as their parent.
/// A zero parent_id is a no-op, so propagation code needs no branches.
/// Used by exec::ParallelFor workers; see src/exec/parallel.cc.
class SpanParentScope {
 public:
  explicit SpanParentScope(uint64_t parent_id);
  ~SpanParentScope();

  SpanParentScope(const SpanParentScope&) = delete;
  SpanParentScope& operator=(const SpanParentScope&) = delete;

 private:
  bool pushed_ = false;
};

}  // namespace lodviz::obs

#define LODVIZ_OBS_CONCAT_INNER(a, b) a##b
#define LODVIZ_OBS_CONCAT(a, b) LODVIZ_OBS_CONCAT_INNER(a, b)

/// Opens a hierarchical trace span covering the rest of the enclosing
/// scope: LODVIZ_TRACE_SPAN("sparql.execute");
#define LODVIZ_TRACE_SPAN(name)                                       \
  ::lodviz::obs::ScopedSpan LODVIZ_OBS_CONCAT(lodviz_trace_span_,     \
                                              __LINE__)(name)

#endif  // LODVIZ_OBS_TRACE_H_
