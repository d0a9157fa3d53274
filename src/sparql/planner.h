#ifndef LODVIZ_SPARQL_PLANNER_H_
#define LODVIZ_SPARQL_PLANNER_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "rdf/dictionary.h"
#include "rdf/triple.h"
#include "rdf/triple_source.h"
#include "sparql/ast.h"

namespace lodviz::sparql {

/// Index of a query variable in a slot row: the executor represents every
/// (partial) solution as a dense `width`-wide array of TermIds, one slot
/// per variable, with rdf::kInvalidTermId meaning "unbound". Slots replace
/// the per-row string-keyed hash maps of the original engine.
using SlotId = uint32_t;
inline constexpr SlotId kNoSlot = UINT32_MAX;

/// An ast::Expr compiled for slot-row evaluation: the same tree shape with
/// every variable name resolved to its SlotId at plan time, so execution
/// never touches strings. Constant sub-expressions (no variables anywhere
/// beneath) are folded into a single kLiteral node at plan time, and every
/// literal carries its decoded numeric/temporal value so per-row filter
/// evaluation never re-parses a constant.
struct CompiledExpr {
  Expr::Kind kind = Expr::Kind::kLiteral;
  rdf::Term literal;       // kLiteral
  SlotId slot = kNoSlot;   // kVar
  BinOp bin_op{};          // kBinary
  UnOp un_op{};            // kUnary
  FuncOp func{};           // kFunc
  std::vector<CompiledExpr> args;

  /// Plan-time decode of `literal` (kLiteral only): the same cache entry
  /// the dictionary keeps for interned terms, computed here because filter
  /// constants need not be in the dictionary.
  rdf::DecodedValue lit_decoded;
};

/// One triple pattern scheduled for execution: the executor probes the
/// index once per solution produced so far (index nested-loop join). Each
/// position is either a slot (variable) or a constant already resolved to
/// its dictionary id.
struct PatternStep {
  SlotId s_slot = kNoSlot;
  SlotId p_slot = kNoSlot;
  SlotId o_slot = kNoSlot;
  rdf::TermId s_id = rdf::kInvalidTermId;
  rdf::TermId p_id = rdf::kInvalidTermId;
  rdf::TermId o_id = rdf::kInvalidTermId;

  /// A constant term absent from the dictionary: the step (and therefore
  /// the whole conjunction) matches nothing.
  bool dead = false;

  /// Planner cardinality estimate at this point of the join order
  /// (EstimateCardinality over the source's statistics); surfaced by
  /// explain.
  double est_rows = 0.0;

  /// est_rows came from an aggregated index (exact count), not a
  /// heuristic: constants-only patterns of shape {}, {p}, {s,p}.
  /// Patterns involving variables bound by earlier steps are always
  /// estimates. Explain renders exact counts with an [exact] marker.
  bool est_exact = false;

  /// Human-readable pattern text for explain output.
  std::string label;
};

/// A FILTER expression specialized for segment-at-a-time evaluation in the
/// batch executor: `?var <cmp> numeric-constant` (either operand order,
/// normalized so the spec always reads `slot <op> rhs`). At runtime a row
/// whose slot value decodes as numeric compares directly against `rhs` —
/// the same double comparison the generic evaluator's SlimVal fast path
/// performs, so results and error accounting stay bit-identical; rows that
/// do not decode fall back to the generic per-row evaluator. Computed once
/// at plan time; `specialized == false` means the whole expression always
/// takes the generic path. Never affects planning decisions or the plan
/// rendering.
struct BatchFilterSpec {
  bool specialized = false;
  SlotId slot = kNoSlot;
  BinOp op = BinOp::kEq;  // normalized: variable on the left
  double rhs = 0.0;
};

/// Inspects a compiled filter for the var-vs-numeric-constant shape the
/// segment evaluator handles; flips the comparison when the variable is
/// on the right so the spec is always `slot <op> rhs`.
[[nodiscard]] BatchFilterSpec SpecializeFilterForBatch(const CompiledExpr& e);

/// A list of compiled FILTER expressions, applied as one conjunction.
struct FilterList {
  std::vector<CompiledExpr> exprs;
  /// Parallel to `exprs`: the batch executor's plan-time specialization
  /// of each expression.
  std::vector<BatchFilterSpec> specs;

  [[nodiscard]] bool empty() const { return exprs.empty(); }
  [[nodiscard]] size_t size() const { return exprs.size(); }
};

/// A group graph pattern compiled against one TripleSource, in execution
/// order: triple steps, union branches, the filters pushed below the
/// optionals, the optionals, then the remaining filters.
struct GroupPlan {
  std::vector<PatternStep> steps;
  std::vector<GroupPlan> union_branches;
  /// FILTERs of a group with optionals whose every variable is certainly
  /// bound by `steps` and `union_branches` (var-free filters included).
  /// An OPTIONAL never rebinds such a variable and filtering keeps row
  /// order, so running them before the optionals is exact — and the
  /// optionals then extend only the surviving rows.
  FilterList pre_filters;
  std::vector<GroupPlan> optionals;
  FilterList filters;
  /// Set on an optional group: the hidden slot the left-outer join writes
  /// each parent row's ordinal into (see QueryPlan::num_slots). kNoSlot
  /// elsewhere.
  SlotId ordinal_slot = kNoSlot;
};

/// A compiled query: slot table + operator tree. Produced by PlanQuery;
/// consumed by the Executor and (rendered) by explore/explain.
struct QueryPlan {
  /// Width of every binding row: the variable slots, then one hidden
  /// ordinal slot per optional group (GroupPlan::ordinal_slot). Hidden
  /// slots have no name, so no projection, template or GROUP BY can reach
  /// them.
  size_t num_slots = 0;

  /// SlotId -> variable name, for the variable slots [0, slot_names.size()).
  std::vector<std::string> slot_names;

  /// Variables appearing in triple-pattern positions of the WHERE clause,
  /// in first-appearance order (the projection for `SELECT *`).
  std::vector<std::string> visible_vars;

  GroupPlan root;

  /// Slot of `var`; kNoSlot if the variable occurs nowhere in the query
  /// (a projected-but-never-bound column).
  [[nodiscard]] SlotId SlotOf(const std::string& var) const {
    auto it = slots.find(var);
    return it == slots.end() ? kNoSlot : it->second;
  }

  /// Multi-line rendering of the plan (slots, join order, per-pattern
  /// cardinality estimates) for explore/explain.
  [[nodiscard]] std::string ToString() const;

  /// Variable name -> slot (name resolution happens only at plan time).
  std::unordered_map<std::string, SlotId> slots;
};

struct PlannerOptions {
  /// Greedy selectivity-based join ordering; disable to execute basic
  /// graph patterns in textual order (used by the E10 bench and the
  /// order-independence property test).
  bool optimize_join_order = true;
};

/// Compiles `query` against `source`: resolves variable names to slots and
/// constants to dictionary ids, and fixes the join order with the greedy
/// selectivity heuristic. The plan depends only on the query and the
/// source's data statistics (PredicateCount/size via the shared
/// EstimateCardinality), so two sources holding the same data — e.g. the
/// in-memory store and its disk mirror — produce identical plans, which is
/// what makes execution bit-identical across backends.
QueryPlan PlanQuery(const Query& query, const rdf::TripleSource& source,
                    const PlannerOptions& options);

}  // namespace lodviz::sparql

#endif  // LODVIZ_SPARQL_PLANNER_H_
