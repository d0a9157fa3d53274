#ifndef LODVIZ_SPARQL_ENGINE_H_
#define LODVIZ_SPARQL_ENGINE_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "obs/profile.h"
#include "rdf/ntriples.h"
#include "rdf/triple_source.h"
#include "sparql/ast.h"
#include "sparql/executor.h"
#include "sparql/planner.h"
#include "sparql/result_table.h"

namespace lodviz::sparql {

/// Per-query execution statistics, returned through an out-parameter so
/// the engine keeps no mutable per-query state and a single QueryEngine is
/// safely shareable across threads.
struct QueryStats {
  /// Rows produced by BGP evaluation, including intermediate join results
  /// (cost introspection for E10).
  uint64_t intermediate_rows = 0;
  /// Rows (SELECT/ASK) or triples (CONSTRUCT/DESCRIBE) in the result.
  uint64_t rows_out = 0;
  /// Wall time of execution (parsing and planning excluded),
  /// microseconds.
  double latency_us = 0.0;
  /// Normalized-query fingerprint (sparql/fingerprint.h), the plan-cache
  /// key. Computed — along with `profile` — only when profiling is active
  /// or the slow-query journal admits the query; 0 otherwise, so the
  /// disabled path never pays the AST walk.
  uint64_t fingerprint = 0;
  /// Per-operator actuals mirroring the plan; `profile.profiled` is true
  /// only when profiling was active for this execution (Options::profile,
  /// or ExplainAnalyze).
  obs::QueryProfile profile;
};

/// Executes parsed queries against any rdf::TripleSource — the in-memory
/// store or a disk-resident one behind storage::DiskSourceAdapter — using
/// selectivity-ordered index nested-loop joins (volcano-style, fully
/// materialized per group) over slot-addressed binding rows; planning
/// lives in planner.h, the operator pipeline in executor.h.
///
/// Thread-safety: all methods are const and keep no per-query state, so
/// one engine may serve concurrent queries (TripleSource scans are safe to
/// run concurrently per the TripleSource contract).
class QueryEngine {
 public:
  /// The planner's options (join ordering) plus
  /// the execution-side ones; Plan() hands the PlannerOptions part to
  /// PlanQuery as is.
  struct Options : PlannerOptions {
    /// Per-query resource budget (executor.h). Unlimited by default; the
    /// serving layer sets it so one hostile or runaway query cannot hold
    /// an engine thread indefinitely. A blown budget surfaces as
    /// StatusCode::kResourceExhausted from Execute*/ExecutePlanned.
    ExecBudget budget;

    /// Record a per-operator obs::QueryProfile into QueryStats::profile on
    /// every execution (what ExplainAnalyze uses internally). Off by
    /// default: the disabled path costs one pointer test per operator.
    /// Results are identical either way; the parity suite's golden legs
    /// run profiled and unprofiled.
    bool profile = false;
  };

  explicit QueryEngine(const rdf::TripleSource* source)
      : QueryEngine(source, Options()) {}
  QueryEngine(const rdf::TripleSource* source, Options options);

  /// Parses and executes a SELECT/ASK query.
  Result<ResultTable> ExecuteString(std::string_view text,
                                    QueryStats* stats = nullptr) const;

  /// Executes an already-parsed SELECT/ASK query.
  Result<ResultTable> Execute(const Query& query,
                              QueryStats* stats = nullptr) const;

  /// Plans `query` with this engine's source statistics and options, the
  /// same way Execute does internally. QueryPlan is a self-contained value
  /// (copyable), so callers may keep it — the serving layer's plan cache
  /// (serve/plan_cache.h) stores these keyed by the query fingerprint.
  [[nodiscard]] QueryPlan Plan(const Query& query) const;

  /// Executes a SELECT/ASK query with a plan previously produced by Plan()
  /// for an identical query against this engine's source — the cache-hit
  /// path of the serving layer. Results are bit-identical to Execute():
  /// both run the same plan through the same executor; Execute merely
  /// plans first. Passing a plan built from a *different* query is
  /// undefined (slots would not line up). `text`, when provided, is the
  /// query's source text, kept for the slow-query journal.
  Result<ResultTable> ExecutePlanned(const Query& query,
                                     const QueryPlan& plan,
                                     QueryStats* stats = nullptr,
                                     std::string_view text = {}) const;

  /// Parses and executes a CONSTRUCT/DESCRIBE query, yielding triples.
  Result<std::vector<rdf::ParsedTriple>> ExecuteGraphString(
      std::string_view text, QueryStats* stats = nullptr) const;

  /// Executes an already-parsed CONSTRUCT/DESCRIBE query.
  Result<std::vector<rdf::ParsedTriple>> ExecuteGraph(
      const Query& query, QueryStats* stats = nullptr) const;

  /// Renders the logical plan (slot table, join order, per-pattern
  /// cardinality estimates) without executing — the explain hook used by
  /// explore sessions and the CLI.
  Result<std::string> ExplainString(std::string_view text) const;
  [[nodiscard]] std::string Explain(const Query& query) const;

  /// Executes the query with profiling on (regardless of Options::profile)
  /// and renders the operator tree with estimated vs actual cardinality,
  /// invocation counts and wall time per operator; misestimates of
  /// obs::kMisestimateFactor or worse are flagged inline. Works for every
  /// query form; the result itself is discarded.
  Result<std::string> ExplainAnalyzeString(std::string_view text) const;
  Result<std::string> ExplainAnalyze(const Query& query) const {
    return ExplainAnalyzeImpl(query, {});
  }

 private:
  Result<std::string> ExplainAnalyzeImpl(const Query& query,
                                         std::string_view text) const;
  Result<ResultTable> ExecuteImpl(const Query& query, QueryStats* stats,
                                  std::string_view text) const;
  Result<ResultTable> ExecutePlannedImpl(const Query& query,
                                         const QueryPlan& plan,
                                         QueryStats* stats,
                                         std::string_view text) const;
  Result<std::vector<rdf::ParsedTriple>> ExecuteGraphImpl(
      const Query& query, QueryStats* stats, std::string_view text) const;
  /// Evaluates `plan`'s WHERE from one all-unbound seed row: the step
  /// every query form shares. `*intermediate_rows` receives the rows the
  /// BGP steps produced; a blown budget discards the truncated solutions
  /// and returns kResourceExhausted.
  Result<std::vector<ColumnBatch>> Evaluate(const QueryPlan& plan,
                                            obs::OperatorProfile* prof,
                                            uint64_t* intermediate_rows) const;

  const rdf::TripleSource* source_;
  Options options_;
};

}  // namespace lodviz::sparql

#endif  // LODVIZ_SPARQL_ENGINE_H_
