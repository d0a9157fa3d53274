#include "serve/frontend.h"

#include <memory>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "serve/serialize.h"
#include "sparql/ast.h"
#include "sparql/fingerprint.h"
#include "sparql/parser.h"

namespace lodviz::serve {

namespace {

sparql::QueryEngine::Options EngineOptions(const FrontendOptions& o) {
  sparql::QueryEngine::Options e;
  e.budget = o.budget;
  return e;
}

const char* ContentTypeFor(ResultFormat format) {
  return format == ResultFormat::kJson ? "application/sparql-results+json"
                                       : "text/tab-separated-values";
}

QueryResponse ErrorResponse(RequestStatus status, std::string message) {
  QueryResponse r;
  r.status = status;
  r.content_type = "text/plain";
  r.body = std::move(message);
  if (r.body.empty() || r.body.back() != '\n') r.body.push_back('\n');
  return r;
}

RequestStatus StatusFor(const Status& s) {
  switch (s.code()) {
    case StatusCode::kParseError:
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
      return RequestStatus::kBadRequest;
    case StatusCode::kResourceExhausted:
      return RequestStatus::kBudgetExceeded;
    default:
      return RequestStatus::kInternalError;
  }
}

}  // namespace

Frontend::Frontend(const rdf::TripleSource* source, FrontendOptions options)
    : options_(options),
      engine_(source, EngineOptions(options)),
      cache_(options.plan_cache_capacity),
      requests_(obs::MetricRegistry::Global().GetCounter("serve.requests")),
      shed_(obs::MetricRegistry::Global().GetCounter("serve.shed")),
      parse_errors_(
          obs::MetricRegistry::Global().GetCounter("serve.parse_errors")),
      budget_exceeded_(
          obs::MetricRegistry::Global().GetCounter("serve.budget_exceeded")),
      request_us_(
          obs::MetricRegistry::Global().GetHistogram("serve.request_us")),
      in_flight_gauge_(
          obs::MetricRegistry::Global().GetGauge("serve.in_flight")) {}

QueryResponse Frontend::Handle(const QueryRequest& request) {
  requests_.Increment();
  Stopwatch sw;

  // Admission gate: reserve a slot before doing any work. fetch_add is
  // the reservation, so two racing requests can never both squeeze into
  // the last slot; an over-limit reservation is released immediately.
  const int64_t slot = in_flight_.fetch_add(1, std::memory_order_acq_rel);
  if (slot >= static_cast<int64_t>(options_.max_concurrent)) {
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    shed_.Increment();
    QueryResponse r = ErrorResponse(RequestStatus::kOverloaded,
                                    "server overloaded, try again later");
    r.latency_us = sw.ElapsedMicros();
    request_us_.RecordDouble(r.latency_us);
    return r;
  }
  in_flight_gauge_.Set(slot + 1);
  struct SlotRelease {
    std::atomic<int64_t>& in_flight;
    obs::Gauge& gauge;
    ~SlotRelease() {
      gauge.Set(in_flight.fetch_sub(1, std::memory_order_acq_rel) - 1);
    }
  } release{in_flight_, in_flight_gauge_};

  QueryResponse r;
  Result<sparql::Query> parsed = sparql::ParseQuery(request.query);
  if (!parsed.ok()) {
    parse_errors_.Increment();
    r = ErrorResponse(StatusFor(parsed.status()),
                      parsed.status().ToString());
  } else {
    const sparql::Query& query = parsed.ValueOrDie();
    if (query.form == sparql::QueryForm::kConstruct ||
        query.form == sparql::QueryForm::kDescribe) {
      // Graph forms plan internally per execution; the plan cache only
      // covers the SELECT/ASK hot path.
      Result<std::vector<rdf::ParsedTriple>> triples =
          engine_.ExecuteGraph(query);
      if (!triples.ok()) {
        r = ErrorResponse(StatusFor(triples.status()),
                          triples.status().ToString());
      } else {
        r.status = RequestStatus::kOk;
        r.content_type = ContentTypeFor(request.format);
        r.body = request.format == ResultFormat::kJson
                     ? TriplesJson(triples.ValueOrDie())
                     : TriplesTsv(triples.ValueOrDie());
      }
    } else {
      // SELECT/ASK: fingerprint-keyed plan cache, canonical-bytes
      // verified so a 64-bit collision can only cost a re-plan.
      std::string key = sparql::CanonicalQueryKey(query);
      const uint64_t fingerprint = sparql::Fnv1a64(key);
      std::shared_ptr<const sparql::QueryPlan> plan =
          cache_.Lookup(fingerprint, key);
      r.plan_cache_hit = plan != nullptr;
      if (plan == nullptr) {
        plan = cache_.Insert(fingerprint, std::move(key), engine_.Plan(query));
      }
      Result<sparql::ResultTable> table =
          engine_.ExecutePlanned(query, *plan, nullptr, request.query);
      if (!table.ok()) {
        r = ErrorResponse(StatusFor(table.status()),
                          table.status().ToString());
      } else {
        const bool is_ask = query.form == sparql::QueryForm::kAsk;
        r.status = RequestStatus::kOk;
        r.content_type = ContentTypeFor(request.format);
        r.body = request.format == ResultFormat::kJson
                     ? ResultTableJson(table.ValueOrDie(), is_ask)
                     : ResultTableTsv(table.ValueOrDie(), is_ask);
      }
    }
  }
  if (r.status == RequestStatus::kBudgetExceeded) {
    budget_exceeded_.Increment();
  }
  r.latency_us = sw.ElapsedMicros();
  request_us_.RecordDouble(r.latency_us);
  return r;
}

}  // namespace lodviz::serve
