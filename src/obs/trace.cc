#include "obs/trace.h"

#include <chrono>

#include "common/stopwatch.h"

namespace lodviz::obs {

namespace {

/// Open-span stack of the current thread; index = depth.
struct ActiveSpan {
  uint64_t id;
};

thread_local std::vector<ActiveSpan> tl_span_stack;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Stopwatch::Now().time_since_epoch())
      .count();
}

}  // namespace

uint64_t CurrentSpanId() {
  return tl_span_stack.empty() ? 0 : tl_span_stack.back().id;
}

SpanParentScope::SpanParentScope(uint64_t parent_id) {
  if (parent_id == 0) return;
  tl_span_stack.push_back({parent_id});
  pushed_ = true;
}

SpanParentScope::~SpanParentScope() {
  if (pushed_ && !tl_span_stack.empty()) tl_span_stack.pop_back();
}

uint64_t TraceThreadId() {
  static std::atomic<uint64_t> next{1};
  thread_local uint64_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

Tracer& Tracer::Global() {
  static Tracer tracer;
  return tracer;
}

std::vector<SpanRecord> Tracer::Finished() const {
  MutexLock lock(&mu_);
  return finished_;
}

void Tracer::Append(SpanRecord record) {
  MutexLock lock(&mu_);
  if (finished_.size() >= kMaxFinishedSpans) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  finished_.push_back(std::move(record));
}

ScopedSpan::ScopedSpan(const char* name) {
  Tracer& tracer = Tracer::Global();
  if (!tracer.enabled()) return;
  name_ = name;
  id_ = tracer.NextId();
  parent_id_ = tl_span_stack.empty() ? 0 : tl_span_stack.back().id;
  depth_ = static_cast<uint32_t>(tl_span_stack.size());
  tl_span_stack.push_back({id_});
  start_ns_ = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (name_ == nullptr) return;
  SpanRecord record;
  record.name = name_;
  record.id = id_;
  record.parent_id = parent_id_;
  record.depth = depth_;
  record.thread_id = TraceThreadId();
  record.start_ns = start_ns_;
  record.end_ns = NowNs();
  // Pop this span (and, defensively, anything opened after it that failed
  // to unwind — cannot happen with RAII scoping, but keeps the stack sane).
  while (!tl_span_stack.empty() && tl_span_stack.back().id != id_) {
    tl_span_stack.pop_back();
  }
  if (!tl_span_stack.empty()) tl_span_stack.pop_back();
  Tracer::Global().Append(std::move(record));
}

}  // namespace lodviz::obs
