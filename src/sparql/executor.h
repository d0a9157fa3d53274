#ifndef LODVIZ_SPARQL_EXECUTOR_H_
#define LODVIZ_SPARQL_EXECUTOR_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "rdf/dictionary.h"
#include "rdf/triple_source.h"
#include "sparql/column_batch.h"
#include "sparql/planner.h"

namespace lodviz::sparql {

/// Registry handles for the sparql hot counters, looked up once. Shared by
/// the executor (per-operator counters) and the engine facade (query and
/// latency counters).
struct SparqlMetrics {
  obs::Counter& queries;
  obs::Counter& intermediate_rows;
  obs::Counter& rows_out;
  obs::Counter& op_join_rows;
  obs::Counter& op_filter_dropped;
  obs::Counter& op_filter_errors;
  obs::Counter& op_optional_rows;
  obs::Counter& op_union_rows;
  obs::Counter& op_hash_joins;
  obs::Counter& op_hash_build_rows;
  obs::Histogram& execute_us;

  static SparqlMetrics& Get();
};

/// Per-query resource budget, threaded from the serving layer's admission
/// control (serve/frontend.h) into the executor. A budget bounds how much
/// a single hostile or runaway query can cost before the engine gives up
/// with StatusCode::kResourceExhausted; the default is unlimited, so every
/// pre-existing caller is unaffected.
///
/// Enforcement is best-effort at operator granularity: the executor checks
/// between BGP steps, union branches and optionals, and pool workers
/// re-check the wall clock every few hundred rows inside join chunks — a
/// query can therefore overshoot by roughly one operator's worth of work,
/// never by an unbounded amount.
struct ExecBudget {
  /// Wall-time budget for execution (planning excluded), microseconds.
  /// Negative = unlimited.
  int64_t time_budget_us = -1;

  /// Cap on rows materialized across all BGP steps (the same quantity
  /// QueryStats::intermediate_rows reports). 0 = unlimited.
  uint64_t max_intermediate_rows = 0;

  [[nodiscard]] bool unlimited() const {
    return time_budget_us < 0 && max_intermediate_rows == 0;
  }
};

/// Three-way comparison following lodviz's pragmatic SPARQL ordering:
/// numeric if both numeric, temporal if both temporal, else lexical form.
/// Used by FILTER relations, ORDER BY and MIN/MAX aggregates.
Result<int> CompareTerms(const rdf::Term& a, const rdf::Term& b);

/// SPARQL effective boolean value; errors on non-literals.
Result<bool> EffectiveBool(const rdf::Term& t);

/// Evaluates a compiled expression over one slot row (SPARQL error
/// semantics: unbound variables and type errors surface as Status).
Result<rdf::Term> EvalExpr(const CompiledExpr& e, const rdf::Dictionary& dict,
                           const rdf::TermId* row);

/// FILTER semantics: keep the row iff the expression evaluates to a true
/// EBV; evaluation errors reject the row (and bump the
/// `sparql.op.filter_errors` counter so silent per-row errors show up in
/// the metrics snapshot).
bool PassesFilter(const CompiledExpr& e, const rdf::Dictionary& dict,
                  const rdf::TermId* row);

/// Builds the obs::OperatorProfile tree mirroring `plan`: one node per
/// pattern step (op "scan"/"hash-join", the planner's label and estimate),
/// one "union"/"optional" group node per branch (recursively mirrored),
/// and one "filter" node per non-empty filter list: the filters pushed
/// below the optionals, then the rest. The executor walks plan and
/// skeleton in lockstep, so the layout here is load-bearing: children are
/// [steps...][unions...][pre-filter?][optionals...][filter?].
[[nodiscard]] obs::OperatorProfile BuildProfileSkeleton(const GroupPlan& plan);

/// Executes a compiled GroupPlan against a TripleSource, vectorized:
/// scan/extend, per-step index nested-loop or build-once hash joins (the
/// planner picks per PatternStep), unions, optionals and filters all
/// process ColumnBatch chunks over slot-addressed columns; filters
/// restrict batches via selection vectors without materializing rows, and
/// each OPTIONAL is one left-outer join over all of its parent rows. One
/// Executor per query execution (it accumulates the intermediate-row
/// statistic); the underlying source is only read.
///
/// Output order is part of the contract (DESIGN.md §4.9): the logical row
/// order (batches in order, active rows in order) is the nested-loop
/// delivery order whatever the join strategy or thread count, and the
/// checked-in golden answers under tests/golden/ pin it.
///
/// Profiling: pass a skeleton built by BuildProfileSkeleton(plan) to
/// record per-operator actual rows, invocations, and wall time into it.
/// Instrumentation is per operator, never per row, and with a null
/// profile each operator pays exactly one pointer test — execution
/// (plans, row order, results) is bit-identical either way, which the
/// parity suite pins under LODVIZ_PROFILE=1 (see scripts/check.sh). The
/// profile tree is written only from the thread driving EvalGroupBatches.
class Executor {
 public:
  Executor(const rdf::TripleSource* source, size_t width,
           obs::OperatorProfile* profile = nullptr,
           ExecBudget budget = ExecBudget())
      : source_(source), width_(width), profile_(profile), budget_(budget) {}

  /// Evaluates `plan` with `seeds` as the initial solutions (pass a single
  /// all-unbound row for a top-level group). `seeds` is only read; the
  /// caller keeps ownership.
  std::vector<ColumnBatch> EvalGroupBatches(const GroupPlan& plan,
                                            const std::vector<ColumnBatch>& seeds) {
    return EvalGroupBatches(plan, seeds, profile_);
  }

  /// Rows produced across all BGP steps, including intermediate join
  /// results (cost introspection for E10).
  [[nodiscard]] uint64_t intermediate_rows() const {
    return intermediate_rows_;
  }

  /// True once the execution crossed its ExecBudget. The caller (the
  /// engine) must discard the — deliberately truncated — batches
  /// EvalGroupBatches returned and surface StatusCode::kResourceExhausted
  /// instead.
  [[nodiscard]] bool budget_exhausted() const {
    return exhausted_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<ColumnBatch> EvalGroupBatches(const GroupPlan& plan,
                                            const std::vector<ColumnBatch>& seeds,
                                            obs::OperatorProfile* prof);
  std::vector<ColumnBatch> EvalBgpBatches(const std::vector<PatternStep>& steps,
                                          const std::vector<ColumnBatch>& seeds,
                                          obs::OperatorProfile* prof);
  /// OPTIONAL as an order-preserving left-outer join: evaluates `opt` once
  /// over all `parents` (each stamped with its ordinal in
  /// opt.ordinal_slot), then emits, parent by parent, its matches in
  /// evaluation order or the parent itself when it has none — exactly the
  /// rows and order of evaluating the group on each parent alone.
  std::vector<ColumnBatch> LeftOuterJoinBatches(
      const GroupPlan& opt, const std::vector<ColumnBatch>& parents,
      obs::OperatorProfile* prof);
  /// Segment-at-a-time FILTER: installs a selection vector on every batch
  /// (specialized numeric comparisons where the plan allows, the generic
  /// per-row evaluator elsewhere — the specialized paths keep PassesFilter's
  /// per-row semantics and error accounting). `filter_prof` is the
  /// filter list's own profile node.
  void FilterBatches(const FilterList& filters,
                     std::vector<ColumnBatch>* batches,
                     obs::OperatorProfile* filter_prof);

  /// Driving-thread budget check between operators: tests both the wall
  /// clock and the intermediate-row cap, latches `exhausted_`, and returns
  /// whether execution should stop.
  bool CheckBudget();

  /// Worker-side wall-clock recheck, called every few hundred rows from
  /// inside ParallelReduce chunks. Reads are const and the flag is atomic,
  /// so concurrent chunk workers race benignly to set it.
  bool TimeExpired();

  const rdf::TripleSource* source_;
  size_t width_;
  obs::OperatorProfile* profile_;
  ExecBudget budget_;
  Stopwatch budget_sw_;
  uint64_t intermediate_rows_ = 0;
  /// Latched by CheckBudget/TimeExpired (driving thread or any pool
  /// worker), read by all of them; atomic, not mutex-guarded, because
  /// a stale read merely delays the stop by one check interval.
  std::atomic<bool> exhausted_{false};
};

}  // namespace lodviz::sparql

#endif  // LODVIZ_SPARQL_EXECUTOR_H_
