#ifndef LODVIZ_SERVE_FRONTEND_H_
#define LODVIZ_SERVE_FRONTEND_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "obs/metrics.h"
#include "rdf/triple_source.h"
#include "serve/plan_cache.h"
#include "sparql/engine.h"

namespace lodviz::serve {

/// Response body encodings the endpoint can produce (serialize.h).
enum class ResultFormat : uint8_t {
  kJson = 0,
  kTsv = 1,
};

/// Request outcome, expressed as the HTTP status the transport maps it
/// to. Load shedding deliberately gets its own distinct status (503) so
/// clients — and the shed counter asserted by tests — can tell "server
/// refused under load, retry later" apart from "your query is broken"
/// (400) and "your query was too expensive" (504).
enum class RequestStatus : int {
  kOk = 200,
  kBadRequest = 400,
  kInternalError = 500,
  kOverloaded = 503,
  kBudgetExceeded = 504,
};

/// One SPARQL protocol request, transport-independent: the HTTP server
/// (server.h) builds these from sockets; tests and the check-gate driver
/// call Frontend::Handle with them directly.
struct QueryRequest {
  std::string query;
  ResultFormat format = ResultFormat::kJson;
};

struct QueryResponse {
  RequestStatus status = RequestStatus::kOk;
  /// "application/sparql-results+json", "text/tab-separated-values", or
  /// "text/plain" for error bodies.
  std::string content_type;
  std::string body;
  /// Whether the plan came from the cache (exported to clients as the
  /// X-Plan-Cache header; lets the warm-vs-cold check assert its premise).
  bool plan_cache_hit = false;
  double latency_us = 0.0;
};

struct FrontendOptions {
  /// Admission control: requests already executing before a new one is
  /// admitted. At the limit the new request is shed with kOverloaded.
  /// 0 sheds everything (used by tests to pin the refusal path).
  size_t max_concurrent = 16;

  /// Plan cache entries (0 disables the cache).
  size_t plan_cache_capacity = 128;

  /// Per-query execution budget, threaded into the executor; a blown
  /// budget surfaces as kBudgetExceeded. Unlimited by default. The serving
  /// engine's other options keep their defaults.
  sparql::ExecBudget budget;
};

/// The serving layer's front door: parse → admission gate → plan-cache
/// lookup (fingerprint-keyed, canonical-bytes verified) → budgeted
/// execution → serialization, with every step counted in the obs
/// registry (serve.requests, serve.shed, serve.parse_errors,
/// serve.budget_exceeded, serve.request_us, plus the serve.plan_cache.*
/// family from PlanCache).
///
/// Thread-safety: Handle is safe to call from any number of threads
/// concurrently — the engine is immutable, the plan cache locks
/// internally, and the admission gate is one atomic. The frontend only
/// reads the TripleSource, which must stay alive and unmodified while
/// requests are in flight (same contract as QueryEngine itself).
class Frontend {
 public:
  Frontend(const rdf::TripleSource* source, FrontendOptions options);

  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;

  /// Serves one request start-to-finish on the calling thread.
  QueryResponse Handle(const QueryRequest& request);

  /// The engine requests execute on — the check-gate driver runs its
  /// direct (no front door) executions against this exact engine so the
  /// bit-identical assertion compares like with like.
  [[nodiscard]] const sparql::QueryEngine& engine() const { return engine_; }

  [[nodiscard]] const PlanCache& plan_cache() const { return cache_; }
  [[nodiscard]] const FrontendOptions& options() const { return options_; }

 private:
  const FrontendOptions options_;
  const sparql::QueryEngine engine_;
  PlanCache cache_;

  /// Requests currently executing; the admission gate.
  std::atomic<int64_t> in_flight_{0};

  /// Resolved once; incremented lock-free on the request path.
  obs::Counter& requests_;
  obs::Counter& shed_;
  obs::Counter& parse_errors_;
  obs::Counter& budget_exceeded_;
  obs::Histogram& request_us_;
  obs::Gauge& in_flight_gauge_;
};

}  // namespace lodviz::serve

#endif  // LODVIZ_SERVE_FRONTEND_H_
