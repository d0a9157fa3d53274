#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <thread>

namespace lodbench {

namespace {

std::atomic<Tracer*> g_installed{nullptr};
std::atomic<uint64_t> g_generation{0};
std::atomic<uint32_t> g_thread_counter{0};

/// Per-thread tracing context. `generation` ties `buffer` to the tracer
/// that created it, so a buffer pointer is never reused across tracers.
struct ThreadContext {
  uint64_t generation = 0;
  void* buffer = nullptr;
  uint64_t parent = 0;
  uint64_t request = 0;
  uint32_t thread = g_thread_counter.fetch_add(1, std::memory_order_relaxed);
};

ThreadContext& Context() {
  thread_local ThreadContext ctx;
  return ctx;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Tracer(size_t allowance)
    : generation_(g_generation.fetch_add(1, std::memory_order_relaxed) + 1),
      limit_(allowance) {}

Tracer::~Tracer() { Uninstall(); }

void Tracer::Install() { g_installed.store(this, std::memory_order_release); }

void Tracer::Uninstall() {
  Tracer* self = this;
  g_installed.compare_exchange_strong(self, nullptr,
                                      std::memory_order_acq_rel);
}

Tracer* Tracer::Installed() {
  return g_installed.load(std::memory_order_acquire);
}

Tracer::ThreadBuffer* Tracer::BufferForThisThread() {
  ThreadContext& ctx = Context();
  if (ctx.generation != generation_) {
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->thread = ctx.thread;
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::move(buffer));
    ctx.buffer = buffers_.back().get();
    ctx.generation = generation_;
  }
  return static_cast<ThreadBuffer*>(ctx.buffer);
}

uint64_t Tracer::NextId() {
  ThreadBuffer* buffer = BufferForThisThread();
  // Thread index in the high bits keeps ids unique without a shared
  // counter.
  return (static_cast<uint64_t>(buffer->thread) << 40) | ++buffer->next_id;
}

void Tracer::StartPhase(size_t allowance) {
  limit_.store(attempts_.load(std::memory_order_relaxed) + allowance,
               std::memory_order_relaxed);
}

void Tracer::Record(Span span) {
  if (attempts_.fetch_add(1, std::memory_order_relaxed) >=
      limit_.load(std::memory_order_relaxed)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  ThreadBuffer* buffer = BufferForThisThread();
  span.thread = buffer->thread;
  buffer->spans.push_back(span);
}

size_t Tracer::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& b : buffers_) n += b->spans.size();
  return n;
}

bool Tracer::WriteJson(const std::string& path, int64_t origin_ns) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, size_t> names;
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans) names.emplace(s.name, 0);
  }
  size_t next = 0;
  std::fprintf(f, "{\"names\":[");
  for (auto& [name, index] : names) {
    index = next;
    std::fprintf(f, "%s\"%s\"", next++ ? "," : "", name.c_str());
  }
  std::fprintf(f,
               "],\n\"columns\":[\"name\",\"thread\",\"id\",\"parent\","
               "\"request\",\"start_us\",\"end_us\"],\n\"dropped\":%llu,\n"
               "\"spans\":[",
               static_cast<unsigned long long>(dropped()));
  bool first = true;
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans) {
      std::fprintf(f, "%s\n[%zu,%u,%llu,%llu,%llu,%.3f,%.3f]",
                   first ? "" : ",", names[s.name], s.thread,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request),
                   static_cast<double>(s.start_ns - origin_ns) / 1e3,
                   static_cast<double>(s.end_ns - origin_ns) / 1e3);
      first = false;
    }
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(const char* name)
    : tracer_(name != nullptr ? Tracer::Installed() : nullptr) {
  if (tracer_ == nullptr) return;
  ThreadContext& ctx = Context();
  span_.name = name;
  span_.id = tracer_->NextId();
  span_.parent = ctx.parent;
  span_.request = ctx.request;
  saved_parent_ = ctx.parent;
  ctx.parent = span_.id;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end_ns = NowNs();
  Context().parent = saved_parent_;
  tracer_->Record(span_);
}

SpanSampler::SpanSampler(double seconds, size_t threads,
                         size_t spans_per_step, size_t allowance)
    : interval_ns_(static_cast<int64_t>(
          seconds * 1e9 * static_cast<double>(threads * spans_per_step) /
          static_cast<double>(std::max<size_t>(1, allowance)))) {}

bool SpanSampler::Take() {
  const int64_t now = NowNs();
  if (now < next_ns_) return false;
  next_ns_ = now + interval_ns_;
  return true;
}

RequestScope::RequestScope(uint64_t request_id) : saved_(Context().request) {
  Context().request = request_id;
}

RequestScope::~RequestScope() { Context().request = saved_; }

TimedSource::TimedSource(const lodviz::rdf::TripleSource* inner)
    : inner_(inner) {}

TimedSource::Slot& TimedSource::SlotForThisThread() const {
  thread_local const size_t index =
      std::hash<std::thread::id>()(std::this_thread::get_id()) % kSlots;
  return slots_[index];
}

void TimedSource::AddScan(int64_t start_ns, int64_t callback_ns,
                          uint64_t triples, uint64_t runs) const {
  Slot& slot = SlotForThisThread();
  slot.scan_calls.fetch_add(1, std::memory_order_relaxed);
  slot.triples.fetch_add(triples, std::memory_order_relaxed);
  slot.runs.fetch_add(runs, std::memory_order_relaxed);
  slot.scan_ns.fetch_add(NowNs() - start_ns, std::memory_order_relaxed);
  slot.callback_ns.fetch_add(callback_ns, std::memory_order_relaxed);
}

void TimedSource::AddStats(int64_t start_ns) const {
  Slot& slot = SlotForThisThread();
  slot.stats_calls.fetch_add(1, std::memory_order_relaxed);
  slot.stats_ns.fetch_add(NowNs() - start_ns, std::memory_order_relaxed);
}

void TimedSource::Scan(const lodviz::rdf::TriplePattern& pattern,
                       const ScanFn& fn) const {
  const int64_t start = NowNs();
  int64_t callback_ns = 0;
  uint64_t triples = 0;
  inner_->Scan(pattern, [&](const lodviz::rdf::Triple& t) {
    const int64_t t0 = NowNs();
    const bool more = fn(t);
    callback_ns += NowNs() - t0;
    ++triples;
    return more;
  });
  AddScan(start, callback_ns, triples, triples);
}

void TimedSource::ScanRuns(const lodviz::rdf::TriplePattern& pattern,
                           const ScanRunFn& fn) const {
  const int64_t start = NowNs();
  int64_t callback_ns = 0;
  uint64_t triples = 0;
  uint64_t runs = 0;
  inner_->ScanRuns(pattern,
                   [&](const lodviz::rdf::Triple* run, size_t n) {
                     const int64_t t0 = NowNs();
                     const bool more = fn(run, n);
                     callback_ns += NowNs() - t0;
                     triples += n;
                     ++runs;
                     return more;
                   });
  AddScan(start, callback_ns, triples, runs);
}

uint64_t TimedSource::Count(const lodviz::rdf::TriplePattern& pattern) const {
  const int64_t start = NowNs();
  const uint64_t n = inner_->Count(pattern);
  AddStats(start);
  return n;
}

uint64_t TimedSource::size() const {
  const int64_t start = NowNs();
  const uint64_t n = inner_->size();
  AddStats(start);
  return n;
}

uint64_t TimedSource::PredicateCount(lodviz::rdf::TermId p) const {
  const int64_t start = NowNs();
  const uint64_t n = inner_->PredicateCount(p);
  AddStats(start);
  return n;
}

uint64_t TimedSource::PairCount(lodviz::rdf::TermId s,
                                lodviz::rdf::TermId p) const {
  const int64_t start = NowNs();
  const uint64_t n = inner_->PairCount(s, p);
  AddStats(start);
  return n;
}

TimedSource::Totals TimedSource::totals() const {
  Totals t;
  for (const Slot& s : slots_) {
    t.scan_calls += s.scan_calls.load(std::memory_order_relaxed);
    t.triples += s.triples.load(std::memory_order_relaxed);
    t.runs += s.runs.load(std::memory_order_relaxed);
    t.scan_ns += s.scan_ns.load(std::memory_order_relaxed);
    t.callback_ns += s.callback_ns.load(std::memory_order_relaxed);
    t.stats_calls += s.stats_calls.load(std::memory_order_relaxed);
    t.stats_ns += s.stats_ns.load(std::memory_order_relaxed);
  }
  return t;
}

}  // namespace lodbench
