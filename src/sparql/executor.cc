#include "sparql/executor.h"

#include <algorithm>
#include <unordered_map>

#include "exec/parallel.h"
#include "obs/trace.h"
#include "rdf/vocab.h"

namespace lodviz::sparql {

using rdf::kInvalidTermId;
using rdf::Term;
using rdf::TermId;

SparqlMetrics& SparqlMetrics::Get() {
  obs::MetricRegistry& r = obs::MetricRegistry::Global();
  static SparqlMetrics m{r.GetCounter("sparql.queries"),
                         r.GetCounter("sparql.intermediate_rows"),
                         r.GetCounter("sparql.rows_out"),
                         r.GetCounter("sparql.op.join_rows"),
                         r.GetCounter("sparql.op.filter_dropped"),
                         r.GetCounter("sparql.op.filter_errors"),
                         r.GetCounter("sparql.op.optional_rows"),
                         r.GetCounter("sparql.op.union_rows"),
                         r.GetCounter("sparql.op.hash_joins"),
                         r.GetCounter("sparql.op.hash_build_rows"),
                         r.GetHistogram("sparql.execute_us")};
  return m;
}

namespace {

Term BoolTerm(bool b) { return Term::BoolLiteral(b); }

/// A value flowing through expression evaluation without materializing a
/// string-carrying Term per row. Bound variables and plan-time constants
/// are references to already-interned terms plus their decoded cache entry
/// (kRef); computed numerics and booleans stay machine values (kNum,
/// kBool); only the string-producing functions (STR/LANG/DATATYPE) build a
/// fresh Term (kOwned).
struct SlimVal {
  enum class Kind : uint8_t { kRef, kNum, kBool, kOwned };
  Kind kind = Kind::kRef;
  const Term* term = nullptr;              // kRef
  const rdf::DecodedValue* dec = nullptr;  // kRef
  TermId id = kInvalidTermId;              // kRef: 0 for plan constants
  double num = 0.0;                        // kNum
  bool b = false;                          // kBool
  Term owned;                              // kOwned

  static SlimVal Ref(const Term* t, const rdf::DecodedValue* d, TermId i) {
    SlimVal v;
    v.kind = Kind::kRef;
    v.term = t;
    v.dec = d;
    v.id = i;
    return v;
  }
  static SlimVal Num(double x) {
    SlimVal v;
    v.kind = Kind::kNum;
    v.num = x;
    return v;
  }
  static SlimVal Bool(bool x) {
    SlimVal v;
    v.kind = Kind::kBool;
    v.b = x;
    return v;
  }
  static SlimVal Owned(Term t) {
    SlimVal v;
    v.kind = Kind::kOwned;
    v.owned = std::move(t);
    return v;
  }
};

/// Term view of `v`. Only computed values (kNum/kBool) build a Term, into
/// `*scratch`; references are returned as-is, so the common paths stay
/// allocation-free.
const Term* SlimTermPtr(const SlimVal& v, Term* scratch) {
  switch (v.kind) {
    case SlimVal::Kind::kRef:
      return v.term;
    case SlimVal::Kind::kOwned:
      return &v.owned;
    case SlimVal::Kind::kNum:
      *scratch = Term::DoubleLiteral(v.num);
      return scratch;
    case SlimVal::Kind::kBool:
      *scratch = BoolTerm(v.b);
      return scratch;
  }
  return scratch;
}

bool SlimIsNumeric(const SlimVal& v) {
  switch (v.kind) {
    case SlimVal::Kind::kNum:
      return true;
    case SlimVal::Kind::kBool:
      return false;
    case SlimVal::Kind::kRef:
      // kNum in the cache implies IsNumericLiteral; kNone does not imply
      // the opposite (unparseable typed numerics decode to kNone).
      return v.dec->kind == rdf::DecodedValue::Kind::kNum ||
             v.term->IsNumericLiteral();
    case SlimVal::Kind::kOwned:
      return v.owned.IsNumericLiteral();
  }
  return false;
}

bool SlimIsTemporal(const SlimVal& v) {
  switch (v.kind) {
    case SlimVal::Kind::kRef:
      return v.dec->kind == rdf::DecodedValue::Kind::kTime ||
             v.term->IsTemporalLiteral();
    case SlimVal::Kind::kOwned:
      return v.owned.IsTemporalLiteral();
    default:
      return false;
  }
}

/// AsDouble with the decoded fast path; everything the cache could not
/// decode takes the exact Term slow path (including its errors).
Result<double> SlimNum(const SlimVal& v) {
  switch (v.kind) {
    case SlimVal::Kind::kNum:
      return v.num;
    case SlimVal::Kind::kRef:
      if (v.dec->kind == rdf::DecodedValue::Kind::kNum) return v.dec->num;
      return v.term->AsDouble();
    case SlimVal::Kind::kOwned:
      return v.owned.AsDouble();
    case SlimVal::Kind::kBool:
      return BoolTerm(v.b).AsDouble();
  }
  return Status::Internal("unhandled slim kind");
}

Result<int64_t> SlimEpoch(const SlimVal& v) {
  if (v.kind == SlimVal::Kind::kRef &&
      v.dec->kind == rdf::DecodedValue::Kind::kTime) {
    return v.dec->epoch;
  }
  Term scratch;
  return SlimTermPtr(v, &scratch)->AsEpochSeconds();
}

/// SPARQL effective boolean value (mirrors EffectiveBool on Terms).
Result<bool> SlimBool(const SlimVal& v) {
  switch (v.kind) {
    case SlimVal::Kind::kBool:
      return v.b;
    case SlimVal::Kind::kNum:
      return v.num != 0.0;
    case SlimVal::Kind::kRef:
      switch (v.dec->kind) {
        case rdf::DecodedValue::Kind::kBool:
          return v.dec->b;
        case rdf::DecodedValue::Kind::kNum:
          return v.dec->num != 0.0;
        case rdf::DecodedValue::Kind::kTime:
          return true;  // a parsed temporal literal has a non-empty lexical
        case rdf::DecodedValue::Kind::kNone:
          return EffectiveBool(*v.term);
      }
      return EffectiveBool(*v.term);
    case SlimVal::Kind::kOwned:
      return EffectiveBool(v.owned);
  }
  return Status::Internal("unhandled slim kind");
}

/// Three-way comparison with the semantics of CompareTerms, taking the
/// decoded fast path wherever the cache has a value.
Result<int> SlimCompare(const SlimVal& a, const SlimVal& b) {
  if (SlimIsNumeric(a) && SlimIsNumeric(b)) {
    LODVIZ_ASSIGN_OR_RETURN(double x, SlimNum(a));
    LODVIZ_ASSIGN_OR_RETURN(double y, SlimNum(b));
    if (x < y) return -1;
    if (x > y) return 1;
    return 0;
  }
  if (SlimIsTemporal(a) && SlimIsTemporal(b)) {
    LODVIZ_ASSIGN_OR_RETURN(int64_t x, SlimEpoch(a));
    LODVIZ_ASSIGN_OR_RETURN(int64_t y, SlimEpoch(b));
    if (x < y) return -1;
    if (x > y) return 1;
    return 0;
  }
  Term sa, sb;
  int c = SlimTermPtr(a, &sa)->lexical.compare(SlimTermPtr(b, &sb)->lexical);
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

/// Structural term equality (the non-numeric branch of = and !=). Two
/// valid dictionary ids compare directly: interning is injective, so equal
/// ids mean equal terms and vice versa within one dictionary.
bool SlimTermEq(const SlimVal& a, const SlimVal& b) {
  if (a.kind == SlimVal::Kind::kRef && b.kind == SlimVal::Kind::kRef &&
      a.id != kInvalidTermId && b.id != kInvalidTermId) {
    return a.id == b.id;
  }
  if (a.kind == SlimVal::Kind::kBool && b.kind == SlimVal::Kind::kBool) {
    return a.b == b.b;
  }
  Term sa, sb;
  return *SlimTermPtr(a, &sa) == *SlimTermPtr(b, &sb);
}

Result<SlimVal> EvalSlim(const CompiledExpr& e, const rdf::Dictionary& dict,
                         const TermId* row);

Result<SlimVal> EvalSlimBinary(const CompiledExpr& e,
                               const rdf::Dictionary& dict,
                               const TermId* row) {
  if (e.bin_op == BinOp::kAnd || e.bin_op == BinOp::kOr) {
    LODVIZ_ASSIGN_OR_RETURN(SlimVal lhs, EvalSlim(e.args[0], dict, row));
    LODVIZ_ASSIGN_OR_RETURN(bool l, SlimBool(lhs));
    if (e.bin_op == BinOp::kAnd && !l) return SlimVal::Bool(false);
    if (e.bin_op == BinOp::kOr && l) return SlimVal::Bool(true);
    LODVIZ_ASSIGN_OR_RETURN(SlimVal rhs, EvalSlim(e.args[1], dict, row));
    LODVIZ_ASSIGN_OR_RETURN(bool r, SlimBool(rhs));
    return SlimVal::Bool(r);
  }

  LODVIZ_ASSIGN_OR_RETURN(SlimVal lhs, EvalSlim(e.args[0], dict, row));
  LODVIZ_ASSIGN_OR_RETURN(SlimVal rhs, EvalSlim(e.args[1], dict, row));

  switch (e.bin_op) {
    case BinOp::kEq:
    case BinOp::kNe: {
      bool eq;
      if (SlimIsNumeric(lhs) && SlimIsNumeric(rhs)) {
        LODVIZ_ASSIGN_OR_RETURN(int c, SlimCompare(lhs, rhs));
        eq = c == 0;
      } else {
        eq = SlimTermEq(lhs, rhs);
      }
      return SlimVal::Bool(e.bin_op == BinOp::kEq ? eq : !eq);
    }
    case BinOp::kLt:
    case BinOp::kLe:
    case BinOp::kGt:
    case BinOp::kGe: {
      LODVIZ_ASSIGN_OR_RETURN(int c, SlimCompare(lhs, rhs));
      switch (e.bin_op) {
        case BinOp::kLt:
          return SlimVal::Bool(c < 0);
        case BinOp::kLe:
          return SlimVal::Bool(c <= 0);
        case BinOp::kGt:
          return SlimVal::Bool(c > 0);
        default:
          return SlimVal::Bool(c >= 0);
      }
    }
    case BinOp::kAdd:
    case BinOp::kSub:
    case BinOp::kMul:
    case BinOp::kDiv: {
      LODVIZ_ASSIGN_OR_RETURN(double x, SlimNum(lhs));
      LODVIZ_ASSIGN_OR_RETURN(double y, SlimNum(rhs));
      switch (e.bin_op) {
        case BinOp::kAdd:
          return SlimVal::Num(x + y);
        case BinOp::kSub:
          return SlimVal::Num(x - y);
        case BinOp::kMul:
          return SlimVal::Num(x * y);
        default:
          if (y == 0.0) return Status::InvalidArgument("division by zero");
          return SlimVal::Num(x / y);
      }
    }
    default:
      return Status::Internal("unhandled binary op");
  }
}

Result<SlimVal> EvalSlimFunc(const CompiledExpr& e, const rdf::Dictionary& dict,
                             const TermId* row) {
  auto arg = [&](size_t i) -> Result<SlimVal> {
    return EvalSlim(e.args[i], dict, row);
  };
  switch (e.func) {
    case FuncOp::kBound: {
      if (e.args.size() != 1 || e.args[0].kind != Expr::Kind::kVar) {
        return Status::InvalidArgument("BOUND needs a variable");
      }
      SlotId slot = e.args[0].slot;
      return SlimVal::Bool(slot != kNoSlot && row[slot] != kInvalidTermId);
    }
    case FuncOp::kIsIri: {
      LODVIZ_ASSIGN_OR_RETURN(SlimVal t, arg(0));
      Term scratch;
      return SlimVal::Bool(SlimTermPtr(t, &scratch)->is_iri());
    }
    case FuncOp::kIsLiteral: {
      LODVIZ_ASSIGN_OR_RETURN(SlimVal t, arg(0));
      Term scratch;
      return SlimVal::Bool(SlimTermPtr(t, &scratch)->is_literal());
    }
    case FuncOp::kIsBlank: {
      LODVIZ_ASSIGN_OR_RETURN(SlimVal t, arg(0));
      Term scratch;
      return SlimVal::Bool(SlimTermPtr(t, &scratch)->is_blank());
    }
    case FuncOp::kStr: {
      LODVIZ_ASSIGN_OR_RETURN(SlimVal t, arg(0));
      Term scratch;
      return SlimVal::Owned(Term::Literal(SlimTermPtr(t, &scratch)->lexical));
    }
    case FuncOp::kContains: {
      LODVIZ_ASSIGN_OR_RETURN(SlimVal a, arg(0));
      LODVIZ_ASSIGN_OR_RETURN(SlimVal b, arg(1));
      Term sa, sb;
      return SlimVal::Bool(SlimTermPtr(a, &sa)->lexical.find(
                               SlimTermPtr(b, &sb)->lexical) !=
                           std::string::npos);
    }
    case FuncOp::kStrStarts: {
      LODVIZ_ASSIGN_OR_RETURN(SlimVal a, arg(0));
      LODVIZ_ASSIGN_OR_RETURN(SlimVal b, arg(1));
      Term sa, sb;
      return SlimVal::Bool(SlimTermPtr(a, &sa)->lexical.rfind(
                               SlimTermPtr(b, &sb)->lexical, 0) == 0);
    }
    case FuncOp::kLang: {
      LODVIZ_ASSIGN_OR_RETURN(SlimVal t, arg(0));
      Term scratch;
      return SlimVal::Owned(Term::Literal(SlimTermPtr(t, &scratch)->language));
    }
    case FuncOp::kDatatype: {
      LODVIZ_ASSIGN_OR_RETURN(SlimVal t, arg(0));
      Term scratch;
      const Term* tp = SlimTermPtr(t, &scratch);
      if (!tp->is_literal()) {
        return Status::InvalidArgument("DATATYPE of non-literal");
      }
      return SlimVal::Owned(Term::Iri(
          tp->datatype.empty() ? rdf::vocab::kXsdString : tp->datatype));
    }
  }
  return Status::Internal("unhandled function");
}

Result<SlimVal> EvalSlim(const CompiledExpr& e, const rdf::Dictionary& dict,
                         const TermId* row) {
  switch (e.kind) {
    case Expr::Kind::kLiteral:
      return SlimVal::Ref(&e.literal, &e.lit_decoded, kInvalidTermId);
    case Expr::Kind::kVar: {
      if (e.slot == kNoSlot || row[e.slot] == kInvalidTermId) {
        return Status::NotFound("unbound variable");
      }
      const TermId id = row[e.slot];
      return SlimVal::Ref(&dict.term(id), &dict.decoded(id), id);
    }
    case Expr::Kind::kBinary:
      return EvalSlimBinary(e, dict, row);
    case Expr::Kind::kUnary: {
      LODVIZ_ASSIGN_OR_RETURN(SlimVal t, EvalSlim(e.args[0], dict, row));
      if (e.un_op == UnOp::kNot) {
        LODVIZ_ASSIGN_OR_RETURN(bool b, SlimBool(t));
        return SlimVal::Bool(!b);
      }
      LODVIZ_ASSIGN_OR_RETURN(double v, SlimNum(t));
      return SlimVal::Num(-v);
    }
    case Expr::Kind::kFunc:
      return EvalSlimFunc(e, dict, row);
  }
  return Status::Internal("unhandled expr kind");
}

}  // namespace

Result<bool> EffectiveBool(const Term& t) {
  if (!t.is_literal()) {
    return Status::InvalidArgument("EBV of non-literal");
  }
  if (t.datatype == rdf::vocab::kXsdBoolean) return t.lexical == "true";
  if (t.IsNumericLiteral()) {
    LODVIZ_ASSIGN_OR_RETURN(double v, t.AsDouble());
    return v != 0.0;
  }
  return !t.lexical.empty();
}

Result<int> CompareTerms(const Term& a, const Term& b) {
  if (a.IsNumericLiteral() && b.IsNumericLiteral()) {
    LODVIZ_ASSIGN_OR_RETURN(double x, a.AsDouble());
    LODVIZ_ASSIGN_OR_RETURN(double y, b.AsDouble());
    if (x < y) return -1;
    if (x > y) return 1;
    return 0;
  }
  if (a.IsTemporalLiteral() && b.IsTemporalLiteral()) {
    LODVIZ_ASSIGN_OR_RETURN(int64_t x, a.AsEpochSeconds());
    LODVIZ_ASSIGN_OR_RETURN(int64_t y, b.AsEpochSeconds());
    if (x < y) return -1;
    if (x > y) return 1;
    return 0;
  }
  int c = a.lexical.compare(b.lexical);
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

Result<Term> EvalExpr(const CompiledExpr& e, const rdf::Dictionary& dict,
                      const TermId* row) {
  LODVIZ_ASSIGN_OR_RETURN(SlimVal v, EvalSlim(e, dict, row));
  switch (v.kind) {
    case SlimVal::Kind::kRef:
      return *v.term;
    case SlimVal::Kind::kOwned:
      return std::move(v.owned);
    case SlimVal::Kind::kNum:
      return Term::DoubleLiteral(v.num);
    case SlimVal::Kind::kBool:
      return BoolTerm(v.b);
  }
  return Status::Internal("unhandled slim kind");
}

bool PassesFilter(const CompiledExpr& e, const rdf::Dictionary& dict,
                  const TermId* row) {
  Result<SlimVal> v = EvalSlim(e, dict, row);
  if (!v.ok()) {
    SparqlMetrics::Get().op_filter_errors.Increment();
    return false;
  }
  Result<bool> b = SlimBool(v.ValueOrDie());
  if (!b.ok()) {
    SparqlMetrics::Get().op_filter_errors.Increment();
    return false;
  }
  return b.ValueOrDie();
}

namespace {

/// Hash-join key: the runtime TermIds at the pattern's statically-bound
/// join slots; kInvalidTermId at every other position.
struct JoinKey {
  TermId a = kInvalidTermId;
  TermId b = kInvalidTermId;
  TermId c = kInvalidTermId;
  bool operator==(const JoinKey& o) const {
    return a == o.a && b == o.b && c == o.c;
  }
};

struct JoinKeyHash {
  size_t operator()(const JoinKey& k) const {
    uint64_t h = static_cast<uint64_t>(k.a) * 0x9E3779B97F4A7C15ULL;
    h ^= static_cast<uint64_t>(k.b) + 0x9E3779B97F4A7C15ULL + (h << 6) +
         (h >> 2);
    h ^= static_cast<uint64_t>(k.c) + 0x9E3779B97F4A7C15ULL + (h << 6) +
         (h >> 2);
    return static_cast<size_t>(h);
  }
};

using JoinTable =
    std::unordered_map<JoinKey, std::vector<rdf::Triple>, JoinKeyHash>;

/// Build side of a hash-join step: one scan with the join slots wildcarded
/// (only plan constants stay fixed), bucketed on the key positions. Every
/// bucket is then sorted back into NLJ probe delivery order: the index a
/// probe would pick is a function of which positions are bound (SPO when
/// the s position is, else POS when p is, else SPO for o-only — both
/// backends agree, see DESIGN.md §4.5), and a sorted bucket filtered by the
/// runtime bindings stays in that order. This is what keeps hash-join
/// output bit-identical to NLJ output.
JoinTable BuildJoinTable(const rdf::TripleSource& source,
                         const PatternStep& st) {
  SparqlMetrics::Get().op_hash_joins.Increment();
  rdf::TriplePattern build_pat(
      st.s_slot == kNoSlot ? st.s_id : kInvalidTermId,
      st.p_slot == kNoSlot ? st.p_id : kInvalidTermId,
      st.o_slot == kNoSlot ? st.o_id : kInvalidTermId);
  JoinTable table;
  uint64_t build_rows = 0;
  source.Scan(build_pat, [&](const rdf::Triple& t) {
    ++build_rows;
    JoinKey k{st.s_bound ? t.s : kInvalidTermId,
              st.p_bound ? t.p : kInvalidTermId,
              st.o_bound ? t.o : kInvalidTermId};
    table[k].push_back(t);
    return true;
  });
  SparqlMetrics::Get().op_hash_build_rows.Increment(build_rows);

  const bool s_fixed = st.s_slot == kNoSlot || st.s_bound;
  const bool p_fixed = st.p_slot == kNoSlot || st.p_bound;
  for (auto& [key, bucket] : table) {
    if (s_fixed || !p_fixed) {
      std::sort(bucket.begin(), bucket.end(), rdf::OrderSpo());
    } else {
      std::sort(bucket.begin(), bucket.end(), rdf::OrderPos());
    }
  }
  return table;
}

}  // namespace

obs::OperatorProfile BuildProfileSkeleton(const GroupPlan& plan) {
  obs::OperatorProfile node;
  node.op = "group";
  node.children.reserve(plan.steps.size() + plan.union_branches.size() +
                        (plan.pre_filters.empty() ? 0 : 1) +
                        plan.optionals.size() +
                        (plan.filters.empty() ? 0 : 1));
  auto add_filter = [&](const FilterList& filters) {
    if (filters.empty()) return;
    obs::OperatorProfile& filter = node.children.emplace_back();
    filter.op = "filter";
    filter.label = "x" + std::to_string(filters.size());
  };
  for (const PatternStep& st : plan.steps) {
    obs::OperatorProfile& step = node.children.emplace_back();
    step.op = st.strategy == JoinStrategy::kHash ? "hash-join" : "scan";
    step.label = st.label;
    step.est_rows = st.est_rows;
  }
  for (const GroupPlan& u : plan.union_branches) {
    obs::OperatorProfile& branch =
        node.children.emplace_back(BuildProfileSkeleton(u));
    branch.op = "union";
  }
  add_filter(plan.pre_filters);
  for (const GroupPlan& o : plan.optionals) {
    obs::OperatorProfile& opt =
        node.children.emplace_back(BuildProfileSkeleton(o));
    opt.op = "optional";
  }
  add_filter(plan.filters);
  return node;
}

bool Executor::CheckBudget() {
  if (exhausted_.load(std::memory_order_relaxed)) return true;
  if (budget_.max_intermediate_rows != 0 &&
      intermediate_rows_ > budget_.max_intermediate_rows) {
    exhausted_.store(true, std::memory_order_relaxed);
    return true;
  }
  return TimeExpired();
}

bool Executor::TimeExpired() {
  if (budget_.time_budget_us < 0) return false;
  if (exhausted_.load(std::memory_order_relaxed)) return true;
  if (budget_sw_.ElapsedMicros() >
      static_cast<double>(budget_.time_budget_us)) {
    exhausted_.store(true, std::memory_order_relaxed);
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Vectorized execution. Output is bit-identical across join strategies and
// thread counts: same logical rows in the same order, same plans, same
// metric deltas. Every structural choice below — chunk grains, chunk
// concatenation order, per-bucket sorting, filter error accounting — exists
// to preserve that; see DESIGN.md §4.9 before changing any of it.
// ---------------------------------------------------------------------------

namespace {

/// Applies a normalized BatchFilterSpec comparison the way SlimCompare
/// would: three-way result first, then the operator on it. The detour
/// through `c` is deliberate — SlimCompare maps NaN operands to c == 0, so
/// kLe/kGe/kEq hold for NaN exactly as in the generic evaluator, where a
/// direct `x <= rhs` would not.
bool NumPasses(double x, BinOp op, double rhs) {
  const int c = x < rhs ? -1 : (x > rhs ? 1 : 0);
  switch (op) {
    case BinOp::kEq:
      return c == 0;
    case BinOp::kNe:
      return c != 0;
    case BinOp::kLt:
      return c < 0;
    case BinOp::kLe:
      return c <= 0;
    case BinOp::kGt:
      return c > 0;
    default:
      return c >= 0;  // kGe; other ops never specialize
  }
}

/// Packs output rows into ColumnBatches of at most kBatchRows, appended to
/// a caller-owned list. One sink per ParallelReduce chunk, so chunk
/// outputs concatenate in chunk order.
class BatchSink {
 public:
  BatchSink(size_t width, std::vector<ColumnBatch>* out)
      : width_(width), out_(out) {}

  void AppendRow(const TermId* row) { Open()->AppendRow(row); }

  /// AppendRun split across batch boundaries: each slice advances the
  /// per-column value pointers by the rows already written.
  void AppendRun(const TermId* sol, size_t n,
                 const ColumnBatch::RunColumn* var, size_t num_var) {
    size_t off = 0;
    while (n > 0) {
      ColumnBatch* cur = Open();
      const size_t m = std::min(n, kBatchRows - cur->rows());
      ColumnBatch::RunColumn adj[3];
      for (size_t j = 0; j < num_var; ++j) {
        adj[j] = {var[j].slot, var[j].values + off};
      }
      cur->AppendRun(sol, m, adj, num_var);
      off += m;
      n -= m;
    }
  }

 private:
  ColumnBatch* Open() {
    if (!open_ || out_->back().rows() >= kBatchRows) {
      out_->emplace_back(width_);
      open_ = true;
    }
    return &out_->back();
  }

  size_t width_;
  std::vector<ColumnBatch>* out_;
  bool open_ = false;
};

/// Extends one solution by its match list: binds the pattern variables,
/// rejects matches that conflict with an existing binding, and appends the
/// survivors column-wise in one run. The accept condition is computed per
/// position up front (the solution fixes what each pattern position must
/// do), so the per-match loop is a handful of integer compares;
/// carried-over columns then append as a run — O(1) while constant —
/// instead of a per-row width_-wide copy.
class RunExtender {
 public:
  explicit RunExtender(const PatternStep& st) : st_(st) {}

  void Extend(BatchSink& sink, const TermId* sol, const rdf::Triple* matches,
              size_t n) {
    if (n == 0) return;
    const SlotId slots[3] = {st_.s_slot, st_.p_slot, st_.o_slot};
    // Per-position action for this solution: kSkip (constant position),
    // kCheckSol (slot already bound — match value must agree), kBind
    // (first unbound occurrence — emits a column), kCheckPrev (repeated
    // unbound slot — must agree with the earlier position's value), which
    // covers the duplicate-slot case (?x ?p ?x).
    enum : uint8_t { kSkip, kCheckSol, kBind, kCheckPrev };
    uint8_t act[3];
    uint8_t prev_pos[3] = {0, 0, 0};
    SlotId bind_slots[3];
    uint8_t bind_pos[3];
    size_t num_bind = 0;
    for (int i = 0; i < 3; ++i) {
      const SlotId s = slots[i];
      if (s == kNoSlot) {
        act[i] = kSkip;
        continue;
      }
      if (sol[s] != kInvalidTermId) {
        act[i] = kCheckSol;
        continue;
      }
      int prev = -1;
      for (int j = 0; j < i; ++j) {
        if (slots[j] == s) {
          prev = j;
          break;
        }
      }
      if (prev >= 0) {
        act[i] = kCheckPrev;
        prev_pos[i] = static_cast<uint8_t>(prev);
        continue;
      }
      act[i] = kBind;
      bind_slots[num_bind] = s;
      bind_pos[num_bind] = static_cast<uint8_t>(i);
      ++num_bind;
    }

    for (size_t k = 0; k < num_bind; ++k) vals_[k].clear();
    size_t accepted = 0;
    for (size_t m = 0; m < n; ++m) {
      const TermId v[3] = {matches[m].s, matches[m].p, matches[m].o};
      bool ok = true;
      for (int i = 0; i < 3 && ok; ++i) {
        if (act[i] == kCheckSol) {
          ok = v[i] == sol[slots[i]];
        } else if (act[i] == kCheckPrev) {
          ok = v[i] == v[prev_pos[i]];
        }
      }
      if (!ok) continue;
      for (size_t k = 0; k < num_bind; ++k) vals_[k].push_back(v[bind_pos[k]]);
      ++accepted;
    }
    if (accepted == 0) return;
    ColumnBatch::RunColumn var[3];
    for (size_t k = 0; k < num_bind; ++k) {
      var[k] = {bind_slots[k], vals_[k].data()};
    }
    sink.AppendRun(sol, accepted, var, num_bind);
  }

 private:
  const PatternStep& st_;
  std::vector<TermId> vals_[3];  // reused across Extend calls within a chunk
};

}  // namespace

std::vector<ColumnBatch> Executor::EvalBgpBatches(
    const std::vector<PatternStep>& steps,
    const std::vector<ColumnBatch>& seeds, obs::OperatorProfile* prof) {
  if (steps.empty()) return seeds;
  LODVIZ_TRACE_SPAN("sparql.bgp");
  const bool timed = budget_.time_budget_us >= 0;

  const std::vector<ColumnBatch>* input = &seeds;
  std::vector<ColumnBatch> current;
  size_t step_index = 0;
  for (const PatternStep& st : steps) {
    const BatchListView view(*input);
    obs::OperatorProfile* step_prof =
        prof == nullptr ? nullptr : &prof->children[step_index];
    obs::OperatorTimer timer(step_prof, view.total());
    ++step_index;
    std::vector<ColumnBatch> next;
    if (!st.dead && view.total() > 0) {
      const bool hash = st.strategy == JoinStrategy::kHash;
      const JoinTable table =
          hash ? BuildJoinTable(*source_, st) : JoinTable();

      // Solutions extend independently over logical rows (grain 8) and
      // per-chunk outputs concatenate in chunk order, so the logical row
      // order of `next` is the serial loop's order by construction. Batch
      // boundaries may differ across thread counts; row order never does.
      next = exec::ParallelReduce<std::vector<ColumnBatch>>(
          0, view.total(), 8,
          [&](size_t cb, size_t ce) {
            std::vector<ColumnBatch> out;
            if (timed && TimeExpired()) return out;
            BatchSink sink(width_, &out);
            RunExtender extender(st);
            std::vector<TermId> sol(width_);
            // Index nested-loop probe for one gathered solution. The
            // per-solution index walk is the NLJ fallback by design; the
            // source hands matches back as whole runs (index-resident for
            // the memory store, one decoded leaf per run on disk) and each
            // run extends into the column batch without an intermediate
            // copy — Extend is callable once per run per solution.
            auto nlj_probe = [&]() {
              rdf::TriplePattern pat(
                  st.s_slot == kNoSlot ? st.s_id : sol[st.s_slot],
                  st.p_slot == kNoSlot ? st.p_id : sol[st.p_slot],
                  st.o_slot == kNoSlot ? st.o_id : sol[st.o_slot]);
              source_->ScanRuns(pat, [&](const rdf::Triple* run, size_t n) {
                extender.Extend(sink, sol.data(), run, n);
                return true;
              });
            };
            view.ForEachRow(cb, ce, [&](const ColumnBatch& b, uint32_t r) {
              b.GatherRow(r, sol.data());
              if (!hash) {
                nlj_probe();
                return;
              }
              // The planner's "certainly bound" is static: a key slot can
              // still be unbound at runtime (seeds from an outer group),
              // where NLJ semantics treat it as a wildcard. Fall back to
              // the index probe for such rows.
              if ((st.s_bound && sol[st.s_slot] == kInvalidTermId) ||
                  (st.p_bound && sol[st.p_slot] == kInvalidTermId) ||
                  (st.o_bound && sol[st.o_slot] == kInvalidTermId)) {
                nlj_probe();
                return;
              }
              JoinKey k{st.s_bound ? sol[st.s_slot] : kInvalidTermId,
                        st.p_bound ? sol[st.p_slot] : kInvalidTermId,
                        st.o_bound ? sol[st.o_slot] : kInvalidTermId};
              auto it = table.find(k);
              if (it == table.end()) return;
              extender.Extend(sink, sol.data(), it->second.data(),
                              it->second.size());
            });
            return out;
          },
          [](std::vector<ColumnBatch>& acc, std::vector<ColumnBatch>&& rhs) {
            for (ColumnBatch& b : rhs) acc.push_back(std::move(b));
          });
    }
    const size_t produced = TotalActiveRows(next);
    intermediate_rows_ += produced;
    SparqlMetrics::Get().op_join_rows.Increment(produced);
    if (step_prof != nullptr) step_prof->batches += next.size();
    timer.Finish(produced);
    current = std::move(next);
    input = &current;
    if (produced == 0) break;
    if (CheckBudget()) return {};
  }
  return current;
}

std::vector<ColumnBatch> Executor::EvalGroupBatches(
    const GroupPlan& plan, const std::vector<ColumnBatch>& seeds,
    obs::OperatorProfile* prof) {
  std::vector<ColumnBatch> solutions = EvalBgpBatches(plan.steps, seeds, prof);

  // Child-node layout mirrors BuildProfileSkeleton:
  // [steps...][unions...][pre-filter?][optionals...][filter?].
  size_t child_index = plan.steps.size();
  auto next_prof = [&]() -> obs::OperatorProfile* {
    return prof == nullptr ? nullptr : &prof->children[child_index++];
  };

  if (!plan.union_branches.empty()) {
    std::vector<ColumnBatch> unioned;
    for (const GroupPlan& branch : plan.union_branches) {
      if (CheckBudget()) return {};
      obs::OperatorProfile* branch_prof = next_prof();
      obs::OperatorTimer timer(branch_prof);
      std::vector<ColumnBatch> rows = EvalGroupBatches(branch, solutions,
                                                       branch_prof);
      timer.Finish(TotalActiveRows(rows));
      // Branch outputs concatenate at batch granularity (batches may carry
      // selections from branch filters); logical row order is branch order
      // then row order within the branch.
      for (ColumnBatch& b : rows) {
        if (b.active() > 0) unioned.push_back(std::move(b));
      }
    }
    solutions = std::move(unioned);
    SparqlMetrics::Get().op_union_rows.Increment(TotalActiveRows(solutions));
  }

  if (!plan.pre_filters.empty()) {
    obs::OperatorProfile* filter_prof = next_prof();
    if (TotalActiveRows(solutions) > 0) {
      FilterBatches(plan.pre_filters, &solutions, filter_prof);
    }
  }

  for (const GroupPlan& opt : plan.optionals) {
    obs::OperatorProfile* opt_prof = next_prof();
    if (TotalActiveRows(solutions) == 0) continue;
    obs::OperatorTimer timer(opt_prof);
    solutions = LeftOuterJoinBatches(opt, solutions, opt_prof);
    if (CheckBudget()) return {};
    const size_t rows = TotalActiveRows(solutions);
    timer.Finish(rows);
    SparqlMetrics::Get().op_optional_rows.Increment(rows);
  }

  if (!plan.filters.empty() && TotalActiveRows(solutions) > 0) {
    FilterBatches(plan.filters, &solutions, next_prof());
  }
  return solutions;
}

std::vector<ColumnBatch> Executor::LeftOuterJoinBatches(
    const GroupPlan& opt, const std::vector<ColumnBatch>& parents,
    obs::OperatorProfile* prof) {
  const SlotId ord = opt.ordinal_slot;
  const BatchListView parent_view(parents);
  const size_t n = parent_view.total();
  // Ordinals are 1-based: 0 is kInvalidTermId, "unbound".
  LODVIZ_CHECK(n < UINT32_MAX);
  LODVIZ_DCHECK(ord < width_);

  // Stamp every parent with its ordinal in the hidden slot and evaluate the
  // optional group once over all of them.
  std::vector<ColumnBatch> seeds;
  {
    BatchSink sink(width_, &seeds);
    std::vector<TermId> row(width_);
    TermId ordinal = 0;
    parent_view.ForEachRow(0, n, [&](const ColumnBatch& b, uint32_t phys) {
      b.GatherRow(phys, row.data());
      row[ord] = ++ordinal;
      sink.AppendRow(row.data());
    });
  }
  const std::vector<ColumnBatch> matches = EvalGroupBatches(opt, seeds, prof);
  if (budget_exhausted()) return {};

  // Stable counting sort of the matches by ordinal. Every operator keeps a
  // parent's rows in order, but a UNION in the group emits all parents'
  // first-branch rows before any second-branch row; sorting restores
  // exactly the parent-at-a-time order. first[i]..first[i + 1] then indexes
  // the matches of ordinal i in `sorted`.
  const BatchListView match_view(matches);
  std::vector<size_t> first(n + 2, 0);
  match_view.ForEachRow(0, match_view.total(),
                        [&](const ColumnBatch& b, uint32_t phys) {
                          ++first[b.at(phys, ord) + 1];
                        });
  for (size_t i = 1; i < first.size(); ++i) first[i] += first[i - 1];
  std::vector<std::pair<const ColumnBatch*, uint32_t>> sorted(
      match_view.total());
  std::vector<size_t> fill(first.begin(), first.end() - 1);
  match_view.ForEachRow(0, match_view.total(),
                        [&](const ColumnBatch& b, uint32_t phys) {
                          sorted[fill[b.at(phys, ord)]++] = {&b, phys};
                        });

  // Merge: each parent emits its matches (hidden slot cleared), or itself
  // unextended when it has none.
  std::vector<ColumnBatch> out;
  BatchSink sink(width_, &out);
  std::vector<TermId> row(width_);
  size_t ordinal = 0;
  parent_view.ForEachRow(0, n, [&](const ColumnBatch& b, uint32_t phys) {
    ++ordinal;
    if (first[ordinal] == first[ordinal + 1]) {
      b.GatherRow(phys, row.data());
      sink.AppendRow(row.data());
      return;
    }
    for (size_t k = first[ordinal]; k < first[ordinal + 1]; ++k) {
      sorted[k].first->GatherRow(sorted[k].second, row.data());
      row[ord] = kInvalidTermId;
      sink.AppendRow(row.data());
    }
  });
  return out;
}

void Executor::FilterBatches(const FilterList& filters,
                             std::vector<ColumnBatch>* batches,
                             obs::OperatorProfile* filter_prof) {
  const size_t before = TotalActiveRows(*batches);
  obs::OperatorTimer timer(filter_prof, before);
  const rdf::Dictionary& dict = source_->dict();
  const bool timed = budget_.time_budget_us >= 0;
  const size_t nf = filters.size();

  for (ColumnBatch& b : *batches) {
    if (b.active() == 0) continue;
    // Per-batch pre-pass: a specialized filter over a constant segment has
    // one outcome for the whole batch. A batch-wide fail still cannot
    // short-circuit earlier generic filters — their per-row error counting
    // must accrue for every row they see — so outcomes stay per-filter and
    // the row loop walks them in order.
    enum : uint8_t { kPerRowSpec, kPerRowGeneric, kBatchPass, kBatchFail };
    std::vector<uint8_t> state(nf);
    for (size_t fi = 0; fi < nf; ++fi) {
      const BatchFilterSpec& spec = filters.specs[fi];
      if (!spec.specialized) {
        state[fi] = kPerRowGeneric;
        continue;
      }
      const ColumnSegment& col = b.col(spec.slot);
      if (!col.constant()) {
        state[fi] = kPerRowSpec;
        continue;
      }
      const TermId id = col.constant_value();
      if (id == kInvalidTermId) {
        // Unbound for the whole batch: the generic evaluator errors (and
        // counts) per row.
        state[fi] = kPerRowGeneric;
        continue;
      }
      const rdf::DecodedValue& dv = dict.decoded(id);
      if (dv.kind != rdf::DecodedValue::Kind::kNum) {
        state[fi] = kPerRowGeneric;
        continue;
      }
      state[fi] = NumPasses(dv.num, spec.op, spec.rhs) ? kBatchPass
                                                       : kBatchFail;
    }

    // Selection build: chunks of active rows (grain 64) evaluate
    // independently and concatenate ascending, so the resulting selection
    // is ascending physical indices — a subset of any selection already
    // installed.
    std::vector<uint32_t> sel = exec::ParallelReduce<std::vector<uint32_t>>(
        0, b.active(), 64,
        [&](size_t cb, size_t ce) {
          std::vector<uint32_t> keep;
          if (timed && TimeExpired()) return keep;
          std::vector<TermId> row(width_);
          for (size_t i = cb; i < ce; ++i) {
            const uint32_t phys = b.ActiveRow(i);
            bool pass = true;
            bool gathered = false;
            for (size_t fi = 0; fi < nf && pass; ++fi) {
              switch (state[fi]) {
                case kBatchPass:
                  break;
                case kBatchFail:
                  pass = false;
                  break;
                case kPerRowSpec: {
                  const BatchFilterSpec& spec = filters.specs[fi];
                  const TermId id = b.at(phys, spec.slot);
                  if (id != kInvalidTermId) {
                    const rdf::DecodedValue& dv = dict.decoded(id);
                    if (dv.kind == rdf::DecodedValue::Kind::kNum) {
                      pass = NumPasses(dv.num, spec.op, spec.rhs);
                      break;
                    }
                  }
                  // Unbound or non-numeric at runtime: the generic
                  // evaluator decides, including the error counters.
                  if (!gathered) {
                    b.GatherRow(phys, row.data());
                    gathered = true;
                  }
                  pass = PassesFilter(filters.exprs[fi], dict, row.data());
                  break;
                }
                default: {  // kPerRowGeneric
                  if (!gathered) {
                    b.GatherRow(phys, row.data());
                    gathered = true;
                  }
                  pass = PassesFilter(filters.exprs[fi], dict, row.data());
                  break;
                }
              }
            }
            if (pass) keep.push_back(phys);
          }
          return keep;
        },
        [](std::vector<uint32_t>& acc, std::vector<uint32_t>&& rhs) {
          acc.insert(acc.end(), rhs.begin(), rhs.end());
        });
    b.SetSelection(std::move(sel));
  }

  const size_t after = TotalActiveRows(*batches);
  SparqlMetrics::Get().op_filter_dropped.Increment(before - after);
  if (filter_prof != nullptr) filter_prof->batches += batches->size();
  timer.Finish(after);
}

}  // namespace lodviz::sparql
