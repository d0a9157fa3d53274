#ifndef LODBENCH_TRACE_H_
#define LODBENCH_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "rdf/triple_source.h"

namespace lodbench {

/// Monotonic nanoseconds (std::chrono::steady_clock).
int64_t NowNs();

/// One recorded interval. `name` points at a string literal.
struct Span {
  const char* name = nullptr;
  uint32_t thread = 0;
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 = root
  uint64_t request = 0;  ///< 0 = not attributable to a client request
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory span recorder for the traced run. Spans go to per-thread
/// buffers (no lock on the record path) and are written out once, at the
/// end of the run. Each thread's innermost open span and current request
/// id are thread-local, so a span opened inside another on the same
/// thread gets it as parent, and every span opened under a RequestScope
/// carries that request's id. The run is cut into phases, each allowed a
/// number of spans (the constructor starts the first, StartPhase the
/// next); spans beyond a phase's allowance are counted as dropped.
///
/// Only one Tracer may be installed at a time (Install/Uninstall); spans
/// and scopes are no-ops while none is installed, which is the untraced
/// run.
class Tracer {
 public:
  explicit Tracer(size_t allowance);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void Install();
  void Uninstall();
  static Tracer* Installed();

  /// Gives the spans recorded from now on an allowance of their own. Call
  /// it while no thread records spans.
  void StartPhase(size_t allowance);
  /// Appends a finished span for the calling thread.
  void Record(Span span);
  /// A fresh span id for the calling thread (unique within this tracer).
  uint64_t NextId();

  [[nodiscard]] size_t recorded() const;
  [[nodiscard]] uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Writes every recorded span as JSON: a name table, the column order,
  /// one array per span (times in microseconds since `origin_ns`).
  bool WriteJson(const std::string& path, int64_t origin_ns) const;

 private:
  struct ThreadBuffer {
    uint32_t thread = 0;
    uint64_t next_id = 0;
    std::vector<Span> spans;
  };
  ThreadBuffer* BufferForThisThread();

  const uint64_t generation_;
  /// Record calls so far, kept or not, and the count at which the
  /// current phase's allowance runs out.
  std::atomic<uint64_t> attempts_{0};
  std::atomic<uint64_t> limit_{0};
  std::atomic<uint64_t> dropped_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;  // guarded by mu_
};

/// RAII span around one call into a layer. A no-op when no tracer is
/// installed or `name` is null (a step the sampler left out).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  Span span_;
  uint64_t saved_parent_ = 0;
};

/// Picks which steps of one thread get spans, so that a phase's spans stay
/// within its allowance yet cover the whole phase: at most one step per
/// `interval`, where the interval spreads the allowance evenly over the
/// phase's threads and seconds. When steps come slower than that, every
/// step is traced.
class SpanSampler {
 public:
  SpanSampler(double seconds, size_t threads, size_t spans_per_step,
              size_t allowance);
  /// True if the step starting now is to be traced.
  bool Take();

 private:
  int64_t interval_ns_;
  int64_t next_ns_ = 0;
};

/// Marks the calling thread as working on request `request_id` (> 0) for
/// the scope's lifetime.
class RequestScope {
 public:
  explicit RequestScope(uint64_t request_id);
  ~RequestScope();

  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

 private:
  uint64_t saved_;
};

/// Timing decorator over a TripleSource: forwards every call to `inner`
/// and accumulates call counts and times. It records no spans: a request
/// makes hundreds of scans, and the counters already say where their time
/// goes. Scan self time is the time inside
/// Scan/ScanRuns minus the time spent in the caller's callback, so it
/// includes waiting for any lock the inner source holds across the scan.
/// Statistics calls (Count, size, PredicateCount, PairCount) are timed as
/// one group. Thread-safe: counters live in cache-line-padded atomic
/// slots picked per thread.
class TimedSource : public lodviz::rdf::TripleSource {
 public:
  explicit TimedSource(const lodviz::rdf::TripleSource* inner);

  void Scan(const lodviz::rdf::TriplePattern& pattern,
            const ScanFn& fn) const override;
  void ScanRuns(const lodviz::rdf::TriplePattern& pattern,
                const ScanRunFn& fn) const override;
  [[nodiscard]] uint64_t Count(
      const lodviz::rdf::TriplePattern& pattern) const override;
  const lodviz::rdf::Dictionary& dict() const override {
    return inner_->dict();
  }
  [[nodiscard]] uint64_t size() const override;
  [[nodiscard]] uint64_t PredicateCount(lodviz::rdf::TermId p) const override;
  [[nodiscard]] uint64_t PairCount(lodviz::rdf::TermId s,
                                   lodviz::rdf::TermId p) const override;

  struct Totals {
    uint64_t scan_calls = 0;
    uint64_t triples = 0;
    uint64_t runs = 0;
    int64_t scan_ns = 0;      ///< wall time inside Scan/ScanRuns
    int64_t callback_ns = 0;  ///< part of scan_ns spent in callbacks
    uint64_t stats_calls = 0;
    int64_t stats_ns = 0;
    [[nodiscard]] int64_t scan_self_ns() const { return scan_ns - callback_ns; }
  };
  [[nodiscard]] Totals totals() const;

 private:
  static constexpr size_t kSlots = 32;
  struct alignas(64) Slot {
    std::atomic<uint64_t> scan_calls{0};
    std::atomic<uint64_t> triples{0};
    std::atomic<uint64_t> runs{0};
    std::atomic<int64_t> scan_ns{0};
    std::atomic<int64_t> callback_ns{0};
    std::atomic<uint64_t> stats_calls{0};
    std::atomic<int64_t> stats_ns{0};
  };
  Slot& SlotForThisThread() const;
  void AddScan(int64_t start_ns, int64_t callback_ns, uint64_t triples,
               uint64_t runs) const;
  void AddStats(int64_t start_ns) const;

  const lodviz::rdf::TripleSource* inner_;
  mutable std::array<Slot, kSlots> slots_;
};

}  // namespace lodbench

#endif  // LODBENCH_TRACE_H_
