#include "sparql/planner.h"

#include <algorithm>
#include <limits>
#include <set>

#include "obs/trace.h"
#include "sparql/executor.h"

namespace lodviz::sparql {

namespace {

using rdf::kInvalidTermId;
using rdf::TermId;

/// True when every node of the compiled subtree is a literal (no variable
/// and therefore no slot/row dependency anywhere beneath).
bool IsConstExpr(const CompiledExpr& e) {
  if (e.kind == Expr::Kind::kVar) return false;
  if (e.kind == Expr::Kind::kLiteral) return true;
  // BOUND() takes a variable; any other function of constants is constant.
  for (const CompiledExpr& a : e.args) {
    if (!IsConstExpr(a)) return false;
  }
  return true;
}

/// True when every variable `e` reads is in `bound` (vacuously for a
/// var-free expression).
bool ReadsOnly(const Expr& e, const std::set<std::string>& bound) {
  if (e.kind == Expr::Kind::kVar && bound.count(e.var) == 0) return false;
  for (const ExprPtr& a : e.args) {
    if (!ReadsOnly(*a, bound)) return false;
  }
  return true;
}

class PlannerImpl {
 public:
  PlannerImpl(const rdf::TripleSource& source, const PlannerOptions& options,
              QueryPlan* plan)
      : source_(source), options_(options), plan_(plan) {}

  void Run(const Query& query) {
    // Pass 1: intern triple-pattern variables of the WHERE clause in
    // first-appearance order. Their slots, less the blank nodes', form the
    // `SELECT *` projection, matching the original engine's CollectVars
    // column order.
    CollectPatternVars(query.where);
    for (const std::string& name : plan_->slot_names) {
      if (!IsBlankNodeVar(name)) plan_->visible_vars.push_back(name);
    }

    // Pass 2: every other place a variable can occur gets a (later) slot.
    for (const std::string& v : query.select_vars) InternVar(v);
    for (const Aggregate& a : query.aggregates) {
      if (!a.var.empty()) InternVar(a.var);
    }
    for (const std::string& v : query.group_by) InternVar(v);
    for (const OrderKey& k : query.order_by) InternVar(k.var);
    for (const TriplePatternAst& t : query.construct_template) {
      InternTripleVars(t);
    }
    for (const NodeOrVar& n : query.describe_targets) {
      if (IsVar(n)) InternVar(AsVar(n).name);
    }

    // Pass 3: compile the operator tree (filters may intern more slots).
    PlanGroup(query.where, {}, &plan_->root);
    plan_->num_slots = plan_->slot_names.size();

    // Pass 4: one hidden ordinal slot per optional group, after every
    // variable slot.
    AssignOrdinalSlots(&plan_->root);
  }

 private:
  SlotId InternVar(const std::string& name) {
    auto [it, inserted] = plan_->slots.emplace(
        name, static_cast<SlotId>(plan_->slot_names.size()));
    if (inserted) plan_->slot_names.push_back(name);
    return it->second;
  }

  void InternTripleVars(const TriplePatternAst& t) {
    if (IsVar(t.s)) InternVar(AsVar(t.s).name);
    if (IsVar(t.p)) InternVar(AsVar(t.p).name);
    if (IsVar(t.o)) InternVar(AsVar(t.o).name);
  }

  void AssignOrdinalSlots(GroupPlan* g) {
    for (GroupPlan& u : g->union_branches) AssignOrdinalSlots(&u);
    for (GroupPlan& o : g->optionals) {
      o.ordinal_slot = static_cast<SlotId>(plan_->num_slots++);
      AssignOrdinalSlots(&o);
    }
  }

  void CollectPatternVars(const GraphPattern& group) {
    for (const TriplePatternAst& t : group.triples) InternTripleVars(t);
    for (const GraphPattern& u : group.union_branches) CollectPatternVars(u);
    for (const GraphPattern& o : group.optionals) CollectPatternVars(o);
  }

  /// Estimated result size of scanning `ast` with the variables in `bound`
  /// already bound. Constants resolve to dictionary ids and reach the
  /// source's EstimateCardinality, which answers {}, {p} and {s,p} shapes
  /// exactly from aggregated indexes; a constant missing from the
  /// dictionary makes the pattern free (it kills the conjunction
  /// immediately, exactly). Variables bound by earlier steps have no
  /// single id to look up, so their positions stay wildcards for the
  /// lookup and apply the legacy per-position shrink factors on top —
  /// and force `exact = false`. Both halves are pure functions of the
  /// source statistics, so every backend estimates (and plans) alike.
  rdf::TripleSource::CardinalityEstimate EstimateCost(
      const TriplePatternAst& ast, const std::set<std::string>& bound) const {
    rdf::TriplePattern pat;
    bool s_standin = false, p_standin = false, o_standin = false;
    auto fill = [&](const NodeOrVar& n, TermId* slot, bool* standin) {
      if (IsVar(n)) {
        *slot = kInvalidTermId;
        *standin = bound.count(AsVar(n).name) > 0;
        return true;
      }
      *slot = source_.dict().Lookup(AsTerm(n));
      return *slot != kInvalidTermId;
    };
    if (!fill(ast.s, &pat.s, &s_standin) || !fill(ast.p, &pat.p, &p_standin) ||
        !fill(ast.o, &pat.o, &o_standin)) {
      return {0.0, true};
    }
    rdf::TripleSource::CardinalityEstimate ce =
        source_.EstimateCardinality(pat);
    const double total = static_cast<double>(source_.size());
    if (s_standin) {
      ce.rows /= std::max(1.0, total / 100.0);
      ce.exact = false;
    }
    if (p_standin) {
      ce.rows /= std::max(1.0, total / 1000.0);
      ce.exact = false;
    }
    if (o_standin) {
      ce.rows /= std::max(1.0, total / 1000.0);
      ce.exact = false;
    }
    return ce;
  }

  PatternStep CompileStep(const TriplePatternAst& ast) {
    PatternStep st;
    auto fill = [&](const NodeOrVar& n, SlotId* slot, TermId* id,
                    std::string* label) {
      if (IsVar(n)) {
        *slot = InternVar(AsVar(n).name);
        *label += "?" + AsVar(n).name;
      } else {
        *id = source_.dict().Lookup(AsTerm(n));
        if (*id == kInvalidTermId) st.dead = true;
        *label += AsTerm(n).ToNTriples();
      }
    };
    fill(ast.s, &st.s_slot, &st.s_id, &st.label);
    st.label += " ";
    fill(ast.p, &st.p_slot, &st.p_id, &st.label);
    st.label += " ";
    fill(ast.o, &st.o_slot, &st.o_id, &st.label);
    return st;
  }

  CompiledExpr CompileExpr(const Expr& e) {
    CompiledExpr c;
    c.kind = e.kind;
    c.literal = e.literal;
    c.bin_op = e.bin_op;
    c.un_op = e.un_op;
    c.func = e.func;
    if (e.kind == Expr::Kind::kVar) c.slot = InternVar(e.var);
    if (e.kind == Expr::Kind::kLiteral) c.lit_decoded = rdf::DecodeTerm(c.literal);
    c.args.reserve(e.args.size());
    for (const ExprPtr& a : e.args) c.args.push_back(CompileExpr(*a));

    // Constant folding: a variable-free subtree evaluates to the same term
    // for every row, so evaluate it once now. A constant that *errors*
    // (e.g. 1/0) is left unfolded — re-evaluating per row reproduces the
    // SPARQL error semantics (the filter rejects every row) exactly.
    if (c.kind != Expr::Kind::kLiteral && IsConstExpr(c)) {
      Result<rdf::Term> folded = EvalExpr(c, source_.dict(), nullptr);
      if (folded.ok()) {
        CompiledExpr lit;
        lit.kind = Expr::Kind::kLiteral;
        lit.literal = std::move(folded).ValueOrDie();
        lit.lit_decoded = rdf::DecodeTerm(lit.literal);
        return lit;
      }
    }
    return c;
  }

  /// Compiles one group. `bound` is the set of variables certainly
  /// bound by the enclosing context (the static image of the dynamic
  /// engine's seed-binding keys). Returns the variables certainly bound in
  /// every solution the group emits: input vars + own triple vars + the
  /// intersection across union branches; optionals contribute nothing
  /// (they may not match).
  std::set<std::string> PlanGroup(const GraphPattern& group,
                                  std::set<std::string> bound,
                                  GroupPlan* out) {
    LODVIZ_TRACE_SPAN("sparql.plan");

    // Replay the greedy selectivity loop statically: repeatedly take the
    // cheapest remaining pattern under the evolving bound set (first
    // minimum wins, as in the dynamic loop), or keep textual order when
    // join optimization is off.
    std::vector<const TriplePatternAst*> remaining;
    remaining.reserve(group.triples.size());
    for (const TriplePatternAst& t : group.triples) remaining.push_back(&t);
    while (!remaining.empty()) {
      size_t pick = 0;
      if (options_.optimize_join_order) {
        double best = std::numeric_limits<double>::infinity();
        for (size_t i = 0; i < remaining.size(); ++i) {
          double cost = EstimateCost(*remaining[i], bound).rows;
          if (cost < best) {
            best = cost;
            pick = i;
          }
        }
      }
      const TriplePatternAst& ast = *remaining[pick];
      remaining.erase(remaining.begin() + pick);
      PatternStep st = CompileStep(ast);
      const rdf::TripleSource::CardinalityEstimate ce =
          EstimateCost(ast, bound);
      st.est_rows = ce.rows;
      st.est_exact = ce.exact;
      out->steps.push_back(std::move(st));
      auto note = [&](const NodeOrVar& n) {
        if (IsVar(n)) bound.insert(AsVar(n).name);
      };
      note(ast.s);
      note(ast.p);
      note(ast.o);
    }

    if (!group.union_branches.empty()) {
      std::set<std::string> certain;
      bool first = true;
      for (const GraphPattern& branch : group.union_branches) {
        std::set<std::string> branch_certain =
            PlanGroup(branch, bound, &out->union_branches.emplace_back());
        if (first) {
          certain = std::move(branch_certain);
          first = false;
        } else {
          std::set<std::string> inter;
          for (const std::string& v : certain) {
            if (branch_certain.count(v)) inter.insert(v);
          }
          certain = std::move(inter);
        }
      }
      bound = std::move(certain);
    }

    for (const GraphPattern& opt : group.optionals) {
      PlanGroup(opt, bound, &out->optionals.emplace_back());
    }

    // A filter reading only certainly-bound variables goes below the
    // optionals; one reading an optional (or otherwise maybe-unbound)
    // variable stays after them.
    for (const ExprPtr& f : group.filters) {
      FilterList& list = !group.optionals.empty() && ReadsOnly(*f, bound)
                             ? out->pre_filters
                             : out->filters;
      list.exprs.push_back(CompileExpr(*f));
      list.specs.push_back(SpecializeFilterForBatch(list.exprs.back()));
    }
    return bound;
  }

  const rdf::TripleSource& source_;
  const PlannerOptions& options_;
  QueryPlan* plan_;
};

void AppendGroup(const GroupPlan& g, int depth, std::string* out) {
  std::string indent(static_cast<size_t>(depth) * 2, ' ');
  auto append_filters = [&](const FilterList& f) {
    if (f.empty()) return;
    *out += indent + "filter x" + std::to_string(f.size()) + "\n";
  };
  for (const PatternStep& st : g.steps) {
    *out += indent + "scan " + st.label + "  est_rows=" +
            std::to_string(st.est_rows) + (st.est_exact ? " [exact]" : "");
    if (st.dead) *out += "  [dead: constant not in dictionary]";
    *out += "\n";
  }
  for (const GroupPlan& u : g.union_branches) {
    *out += indent + "union branch:\n";
    AppendGroup(u, depth + 1, out);
  }
  append_filters(g.pre_filters);
  for (const GroupPlan& o : g.optionals) {
    *out += indent + "optional:\n";
    AppendGroup(o, depth + 1, out);
  }
  append_filters(g.filters);
}

}  // namespace

BatchFilterSpec SpecializeFilterForBatch(const CompiledExpr& e) {
  BatchFilterSpec spec;
  if (e.kind != Expr::Kind::kBinary || e.args.size() != 2) return spec;
  switch (e.bin_op) {
    case BinOp::kEq:
    case BinOp::kNe:
    case BinOp::kLt:
    case BinOp::kLe:
    case BinOp::kGt:
    case BinOp::kGe:
      break;
    default:
      return spec;
  }
  const CompiledExpr* var = nullptr;
  const CompiledExpr* lit = nullptr;
  bool var_left = true;
  if (e.args[0].kind == Expr::Kind::kVar &&
      e.args[1].kind == Expr::Kind::kLiteral) {
    var = &e.args[0];
    lit = &e.args[1];
  } else if (e.args[0].kind == Expr::Kind::kLiteral &&
             e.args[1].kind == Expr::Kind::kVar) {
    var = &e.args[1];
    lit = &e.args[0];
    var_left = false;
  } else {
    return spec;
  }
  if (var->slot == kNoSlot) return spec;
  // Only a plan-time-decoded numeric constant qualifies: this restricts
  // the fast path to exactly the shape where the generic evaluator takes
  // the both-sides-numeric SlimCompare branch, which is what lets the segment
  // evaluator skip per-row error handling without changing semantics.
  if (lit->lit_decoded.kind != rdf::DecodedValue::Kind::kNum) return spec;
  spec.specialized = true;
  spec.slot = var->slot;
  spec.rhs = lit->lit_decoded.num;
  if (var_left) {
    spec.op = e.bin_op;
  } else {
    // Mirror the comparison so the spec always reads `slot <op> rhs`.
    switch (e.bin_op) {
      case BinOp::kLt:
        spec.op = BinOp::kGt;
        break;
      case BinOp::kLe:
        spec.op = BinOp::kGe;
        break;
      case BinOp::kGt:
        spec.op = BinOp::kLt;
        break;
      case BinOp::kGe:
        spec.op = BinOp::kLe;
        break;
      default:
        spec.op = e.bin_op;  // = and != are symmetric
        break;
    }
  }
  return spec;
}

std::string QueryPlan::ToString() const {
  std::string out = "plan: " + std::to_string(num_slots) + " slots [";
  for (size_t i = 0; i < slot_names.size(); ++i) {
    if (i) out += " ";
    out += "?" + slot_names[i];
  }
  out += "]";
  if (num_slots > slot_names.size()) {
    out += " +" + std::to_string(num_slots - slot_names.size()) +
           " optional ordinal";
  }
  out += "\n";
  AppendGroup(root, 1, &out);
  return out;
}

QueryPlan PlanQuery(const Query& query, const rdf::TripleSource& source,
                    const PlannerOptions& options) {
  QueryPlan plan;
  PlannerImpl(source, options, &plan).Run(query);
  return plan;
}

}  // namespace lodviz::sparql
