#include "sparql/engine.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "rdf/dictionary.h"

#include "common/stopwatch.h"
#include "obs/query_log.h"
#include "obs/trace.h"
#include "sparql/executor.h"
#include "sparql/fingerprint.h"
#include "sparql/parser.h"
#include "sparql/planner.h"

namespace lodviz::sparql {

namespace {

using rdf::kInvalidTermId;
using rdf::Term;
using rdf::TermId;

Result<Query> ParseTraced(std::string_view text) {
  LODVIZ_TRACE_SPAN("sparql.parse");
  return ParseQuery(text);
}

/// Row width for executor tables: at least one slot so a zero-variable
/// query (e.g. ASK with only constants) can still represent its single
/// empty seed solution.
size_t RowWidth(const QueryPlan& plan) {
  return std::max<size_t>(1, plan.num_slots);
}

/// One solution row of a batch list: (batch index, physical row). The
/// engine tail works on vectors of these — ORDER BY, DISTINCT and
/// OFFSET/LIMIT permute/prune references and only the survivors
/// materialize Terms (late materialization).
struct RowRef {
  uint32_t batch;
  uint32_t phys;
};

/// Slot value of a referenced solution row; kInvalidTermId for kNoSlot
/// (projected-but-never-bound columns) and unbound slots alike, which is
/// exactly the "unbound" notion the result layer uses.
TermId SlotAt(const std::vector<ColumnBatch>& solutions, RowRef r,
              SlotId slot) {
  return slot == kNoSlot ? kInvalidTermId : solutions[r.batch].at(r.phys, slot);
}

ResultCell CellAt(const rdf::Dictionary& dict,
                  const std::vector<ColumnBatch>& solutions, RowRef r,
                  SlotId slot) {
  ResultCell cell;
  const TermId id = SlotAt(solutions, r, slot);
  if (id == kInvalidTermId) {
    cell.bound = false;
  } else {
    cell.term = dict.term(id);
  }
  return cell;
}

/// Flattens the batch list into one RowRef per active row, in logical
/// order.
std::vector<RowRef> CollectRefs(const std::vector<ColumnBatch>& solutions) {
  std::vector<RowRef> refs;
  refs.reserve(TotalActiveRows(solutions));
  for (size_t bi = 0; bi < solutions.size(); ++bi) {
    const ColumnBatch& b = solutions[bi];
    for (size_t i = 0; i < b.active(); ++i) {
      refs.push_back({static_cast<uint32_t>(bi), b.ActiveRow(i)});
    }
  }
  return refs;
}

/// FNV-1a over a TermId vector, word at a time — the GROUP BY / DISTINCT
/// hash key. TermIds are interned, so id-vector equality is term-tuple
/// equality and no string ever enters the key.
struct TermVecHash {
  size_t operator()(const std::vector<TermId>& v) const {
    uint64_t h = 0xCBF29CE484222325ULL;  // FNV offset basis
    for (TermId t : v) {
      h ^= static_cast<uint64_t>(t);
      h *= 0x100000001B3ULL;  // FNV prime
    }
    return static_cast<size_t>(h);
  }
};

/// Three-way ORDER BY comparison over two bound terms. Total and
/// deterministic: terms compare by value class first (numeric < temporal
/// < boolean < everything else), then by decoded value within the class,
/// and terms in the last class — plain/lang/undecodable literals, IRIs,
/// blanks, and NaN numerics — compare by their N-Triples spelling, so
/// "error" terms sort after all comparable values instead of mapping a
/// comparison failure to "equal". The previous comparator did the latter
/// (`cv = c.ok() ? value : 0`), which is asymmetric when only one pairing
/// errors and breaks the strict weak ordering std::stable_sort requires
/// (undefined behavior); it also compared mixed numeric/lexical pairs
/// lexically, making `5 ~ "abc" ~ 3` intransitive. Value-equal terms with
/// different spellings (`30` vs `"+30"^^xsd:integer`) stay equivalent so
/// secondary sort keys still apply.
int CompareCellsForOrder(const Term& a, const Term& b) {
  // 0 = numeric, 1 = temporal, 2 = boolean, 3 = lexical/error.
  auto cls = [](const rdf::DecodedValue& v) {
    switch (v.kind) {
      case rdf::DecodedValue::Kind::kNum:
        // NaN compares false both ways; keep it out of the numeric class
        // or it would be "equivalent" to every number at once.
        return std::isnan(v.num) ? 3 : 0;
      case rdf::DecodedValue::Kind::kTime:
        return 1;
      case rdf::DecodedValue::Kind::kBool:
        return 2;
      case rdf::DecodedValue::Kind::kNone:
        return 3;
    }
    return 3;
  };
  const rdf::DecodedValue da = rdf::DecodeTerm(a);
  const rdf::DecodedValue db = rdf::DecodeTerm(b);
  const int ca = cls(da);
  const int cb = cls(db);
  if (ca != cb) return ca < cb ? -1 : 1;
  switch (ca) {
    case 0:
      if (da.num < db.num) return -1;
      if (da.num > db.num) return 1;
      return 0;
    case 1:
      if (da.epoch < db.epoch) return -1;
      if (da.epoch > db.epoch) return 1;
      return 0;
    case 2:
      if (da.b != db.b) return da.b ? 1 : -1;
      return 0;
    default: {
      const std::string sa = a.ToNTriples();
      const std::string sb = b.ToNTriples();
      if (sa != sb) return sa < sb ? -1 : 1;
      return 0;
    }
  }
}

/// An ORDER BY key resolved to an output column.
struct OrderColumn {
  size_t column;
  bool ascending;
};

/// Resolves the ORDER BY keys to output columns, first match wins. A key
/// naming no output column is dropped: it would compare every pair as
/// equal.
std::vector<OrderColumn> OrderColumns(const Query& query,
                                      const std::vector<std::string>& columns) {
  std::vector<OrderColumn> keys;
  for (const OrderKey& k : query.order_by) {
    for (size_t c = 0; c < columns.size(); ++c) {
      if (columns[c] == k.var) {
        keys.push_back({c, k.ascending});
        break;
      }
    }
  }
  return keys;
}

/// One ORDER BY key over two cells, null meaning unbound: negative when
/// `a` sorts first, positive when `b` does. Unbound sorts before every
/// bound term ascending and after them descending.
int CompareOrderKey(const Term* a, const Term* b, bool ascending) {
  int c;
  if (a == nullptr || b == nullptr) {
    c = (a == nullptr ? 0 : 1) - (b == nullptr ? 0 : 1);
  } else {
    c = CompareCellsForOrder(*a, *b);
  }
  return ascending ? c : -c;
}

/// [begin, end) of the OFFSET/LIMIT window over `n` ordered rows.
std::pair<size_t, size_t> SliceWindow(const Query& query, size_t n) {
  const size_t begin =
      std::min(n, static_cast<size_t>(std::max<int64_t>(0, query.offset)));
  size_t end = n;
  if (query.limit >= 0) {
    end = std::min(end, begin + static_cast<size_t>(query.limit));
  }
  return {begin, end};
}

/// Everything one execution records, whatever its form. Constructing it
/// counts the query, starts the clock and (with profiling on) builds the
/// plan's profile skeleton; destroying it, on every exit path — answer,
/// blown budget or error — records latency, output and intermediate rows,
/// publishes the profile into the caller's QueryStats and journals the
/// query when it crosses the slow-query threshold. With profiling off and
/// the journal disabled (or the query fast) the destructor returns after
/// two cheap tests; in particular the fingerprint's AST walk is never paid.
class ExecFold {
 public:
  ExecFold(const Query& query, const QueryPlan& plan, bool profiling,
           std::string_view text, QueryStats* stats)
      : metrics_(SparqlMetrics::Get()),
        query_(query),
        text_(text),
        stats_(stats),
        profiling_(profiling) {
    metrics_.queries.Increment();
    if (profiling_) skeleton_ = BuildProfileSkeleton(plan.root);
  }

  ExecFold(const ExecFold&) = delete;
  ExecFold& operator=(const ExecFold&) = delete;

  ~ExecFold() {
    const double us = sw_.ElapsedMicros();
    metrics_.intermediate_rows.Increment(intermediate_rows);
    metrics_.rows_out.Increment(rows_out);
    metrics_.execute_us.RecordDouble(us);
    if (stats_ != nullptr) {
      stats_->intermediate_rows = intermediate_rows;
      stats_->rows_out = rows_out;
      stats_->latency_us = us;
    }
    obs::QueryLog& journal = obs::QueryLog::Global();
    const bool journaled = journal.ShouldRecord(us);
    if (!profiling_ && !journaled) return;

    obs::QueryProfile profile;
    profile.fingerprint = QueryFingerprint(query_);
    profile.total_ns = static_cast<int64_t>(us * 1e3);
    profile.rows_out = rows_out;
    profile.intermediate_rows = intermediate_rows;
    profile.profiled = profiling_;
    if (profiling_) profile.root = std::move(skeleton_);
    if (stats_ != nullptr) {
      stats_->fingerprint = profile.fingerprint;
      if (journaled) {
        stats_->profile = profile;
      } else {
        stats_->profile = std::move(profile);
      }
    }
    if (journaled) {
      obs::QueryLogEntry entry;
      entry.fingerprint = profile.fingerprint;
      entry.query = std::string(text_);
      entry.latency_us = us;
      entry.rows_out = rows_out;
      entry.intermediate_rows = intermediate_rows;
      entry.profile = std::move(profile);
      journal.Record(std::move(entry));
    }
  }

  /// The profile tree to record into; null when profiling is off.
  obs::OperatorProfile* profile() {
    return profiling_ ? &skeleton_ : nullptr;
  }

  /// Set by the execution before it returns; the answer itself may
  /// already have been moved into the returned Result when the destructor
  /// runs.
  uint64_t rows_out = 0;
  uint64_t intermediate_rows = 0;

 private:
  SparqlMetrics& metrics_;
  const Query& query_;
  std::string_view text_;
  QueryStats* stats_;
  bool profiling_;
  obs::OperatorProfile skeleton_;
  Stopwatch sw_;
};

}  // namespace

QueryEngine::QueryEngine(const rdf::TripleSource* source, Options options)
    : source_(source), options_(options) {}

Result<ResultTable> QueryEngine::ExecuteString(std::string_view text,
                                               QueryStats* stats) const {
  LODVIZ_ASSIGN_OR_RETURN(Query q, ParseTraced(text));
  return ExecuteImpl(q, stats, text);
}

Result<std::vector<rdf::ParsedTriple>> QueryEngine::ExecuteGraphString(
    std::string_view text, QueryStats* stats) const {
  LODVIZ_ASSIGN_OR_RETURN(Query q, ParseTraced(text));
  return ExecuteGraphImpl(q, stats, text);
}

Result<ResultTable> QueryEngine::Execute(const Query& query,
                                         QueryStats* stats) const {
  return ExecuteImpl(query, stats, {});
}

Result<std::vector<rdf::ParsedTriple>> QueryEngine::ExecuteGraph(
    const Query& query, QueryStats* stats) const {
  return ExecuteGraphImpl(query, stats, {});
}

QueryPlan QueryEngine::Plan(const Query& query) const {
  return PlanQuery(query, *source_, options_);
}

Result<ResultTable> QueryEngine::ExecutePlanned(const Query& query,
                                                const QueryPlan& plan,
                                                QueryStats* stats,
                                                std::string_view text) const {
  if (query.form == QueryForm::kConstruct ||
      query.form == QueryForm::kDescribe) {
    return Status::InvalidArgument(
        "use ExecuteGraph for CONSTRUCT/DESCRIBE queries");
  }
  return ExecutePlannedImpl(query, plan, stats, text);
}

std::string QueryEngine::Explain(const Query& query) const {
  return Plan(query).ToString();
}

Result<std::string> QueryEngine::ExplainString(std::string_view text) const {
  LODVIZ_ASSIGN_OR_RETURN(Query q, ParseTraced(text));
  return Explain(q);
}

Result<std::vector<ColumnBatch>> QueryEngine::Evaluate(
    const QueryPlan& plan, obs::OperatorProfile* prof,
    uint64_t* intermediate_rows) const {
  const size_t width = RowWidth(plan);
  Executor executor(source_, width, prof, options_.budget);
  obs::OperatorTimer timer(prof);
  std::vector<ColumnBatch> seeds(1, ColumnBatch(width));
  const std::vector<TermId> empty_row(width, kInvalidTermId);
  seeds[0].AppendRow(empty_row.data());
  std::vector<ColumnBatch> solutions =
      executor.EvalGroupBatches(plan.root, seeds);
  timer.Finish(TotalActiveRows(solutions));
  *intermediate_rows = executor.intermediate_rows();
  // A blown budget leaves a deliberately truncated solution table; discard
  // it (the caller's ExecFold still records latency and journals the
  // query).
  if (executor.budget_exhausted()) {
    return Status::ResourceExhausted("query exceeded its execution budget");
  }
  return solutions;
}

Result<std::vector<rdf::ParsedTriple>> QueryEngine::ExecuteGraphImpl(
    const Query& query, QueryStats* stats, std::string_view text) const {
  if (query.form != QueryForm::kConstruct &&
      query.form != QueryForm::kDescribe) {
    return Status::InvalidArgument(
        "ExecuteGraph expects a CONSTRUCT or DESCRIBE query");
  }
  const QueryPlan plan = Plan(query);
  LODVIZ_TRACE_SPAN("sparql.execute");
  ExecFold fold(query, plan, options_.profile, text, stats);
  const rdf::Dictionary& dict = source_->dict();
  std::vector<rdf::ParsedTriple> out;
  std::set<std::string> seen;
  auto emit = [&](Term s, Term p, Term o) {
    std::string key =
        s.ToNTriples() + "\x01" + p.ToNTriples() + "\x01" + o.ToNTriples();
    if (seen.insert(std::move(key)).second) {
      out.push_back({std::move(s), std::move(p), std::move(o)});
    }
  };

  if (query.form == QueryForm::kConstruct) {
    LODVIZ_ASSIGN_OR_RETURN(
        std::vector<ColumnBatch> solutions,
        Evaluate(plan, fold.profile(), &fold.intermediate_rows));
    // Resolve template positions to slots once, not per solution.
    struct TemplateStep {
      SlotId s_slot, p_slot, o_slot;
      Term s_const, p_const, o_const;
    };
    std::vector<TemplateStep> compiled;
    for (const TriplePatternAst& tmpl : query.construct_template) {
      TemplateStep ts{kNoSlot, kNoSlot, kNoSlot, {}, {}, {}};
      auto fill = [&](const NodeOrVar& n, SlotId* slot, Term* c) {
        if (IsVar(n)) {
          *slot = plan.SlotOf(AsVar(n).name);
        } else {
          *c = AsTerm(n);
        }
      };
      fill(tmpl.s, &ts.s_slot, &ts.s_const);
      fill(tmpl.p, &ts.p_slot, &ts.p_const);
      fill(tmpl.o, &ts.o_slot, &ts.o_const);
      compiled.push_back(std::move(ts));
    }
    const BatchListView view(solutions);
    // Pre-size for the dedup-free upper bound (solutions x templates);
    // push_back never reallocates below.
    out.reserve(view.total() * compiled.size());
    view.ForEachRow(0, view.total(), [&](const ColumnBatch& b,
                                         uint32_t phys) {
      for (const TemplateStep& ts : compiled) {
        auto resolve = [&](SlotId slot, const Term& c, Term* t) {
          if (slot == kNoSlot) {
            *t = c;
            return true;
          }
          const TermId id = b.at(phys, slot);
          if (id == kInvalidTermId) return false;
          *t = dict.term(id);
          return true;
        };
        Term s, p, o;
        if (!resolve(ts.s_slot, ts.s_const, &s) ||
            !resolve(ts.p_slot, ts.p_const, &p) ||
            !resolve(ts.o_slot, ts.o_const, &o)) {
          continue;  // unbound variable: skip this template instance
        }
        if (s.is_literal() || !p.is_iri()) continue;  // invalid RDF
        emit(std::move(s), std::move(p), std::move(o));
      }
    });
    fold.rows_out = out.size();
    return out;
  }

  // DESCRIBE: collect the resources to describe.
  std::vector<TermId> resources;
  std::vector<SlotId> target_slots;
  bool has_var_target = false;
  for (const NodeOrVar& target : query.describe_targets) {
    if (IsVar(target)) {
      has_var_target = true;
      target_slots.push_back(plan.SlotOf(AsVar(target).name));
    } else {
      TermId id = dict.Lookup(AsTerm(target));
      if (id != kInvalidTermId) resources.push_back(id);
    }
  }
  // DESCRIBE of constants alone evaluates no WHERE.
  if (has_var_target) {
    LODVIZ_ASSIGN_OR_RETURN(
        std::vector<ColumnBatch> solutions,
        Evaluate(plan, fold.profile(), &fold.intermediate_rows));
    const BatchListView view(solutions);
    resources.reserve(resources.size() +
                      view.total() * target_slots.size());
    view.ForEachRow(0, view.total(), [&](const ColumnBatch& b,
                                         uint32_t phys) {
      for (SlotId slot : target_slots) {
        if (slot == kNoSlot) continue;
        const TermId id = b.at(phys, slot);
        if (id != kInvalidTermId) resources.push_back(id);
      }
    });
  }
  std::sort(resources.begin(), resources.end());
  resources.erase(std::unique(resources.begin(), resources.end()),
                  resources.end());

  // Emit every triple where the resource is subject or object.
  for (TermId r : resources) {
    source_->Scan({r, kInvalidTermId, kInvalidTermId},
                  [&](const rdf::Triple& t) {
                    emit(dict.term(t.s), dict.term(t.p), dict.term(t.o));
                    return true;
                  });
    source_->Scan({kInvalidTermId, kInvalidTermId, r},
                  [&](const rdf::Triple& t) {
                    emit(dict.term(t.s), dict.term(t.p), dict.term(t.o));
                    return true;
                  });
  }
  fold.rows_out = out.size();
  return out;
}

Result<ResultTable> QueryEngine::ExecuteImpl(const Query& query,
                                             QueryStats* stats,
                                             std::string_view text) const {
  if (query.form == QueryForm::kConstruct ||
      query.form == QueryForm::kDescribe) {
    return Status::InvalidArgument(
        "use ExecuteGraph for CONSTRUCT/DESCRIBE queries");
  }
  return ExecutePlannedImpl(query, Plan(query), stats, text);
}

Result<ResultTable> QueryEngine::ExecutePlannedImpl(
    const Query& query, const QueryPlan& plan, QueryStats* stats,
    std::string_view text) const {
  LODVIZ_TRACE_SPAN("sparql.execute");
  ExecFold fold(query, plan, options_.profile, text, stats);
  LODVIZ_ASSIGN_OR_RETURN(
      std::vector<ColumnBatch> solutions,
      Evaluate(plan, fold.profile(), &fold.intermediate_rows));
  const rdf::Dictionary& dict = source_->dict();

  if (query.form == QueryForm::kAsk) {
    ResultTable table;
    table.ask_result = TotalActiveRows(solutions) > 0;
    return table;
  }

  // Determine output columns.
  std::vector<std::string> columns = query.select_vars;
  if (columns.empty() && query.aggregates.empty()) {
    columns = plan.visible_vars;
  }
  std::vector<SlotId> column_slots;
  column_slots.reserve(columns.size());
  for (const std::string& v : columns) column_slots.push_back(plan.SlotOf(v));

  // ---- Aggregation path ----
  if (!query.aggregates.empty()) {
    std::vector<std::string> out_columns = query.group_by;
    for (const Aggregate& a : query.aggregates) out_columns.push_back(a.alias);

    std::vector<SlotId> group_slots;
    group_slots.reserve(query.group_by.size());
    for (const std::string& v : query.group_by) {
      group_slots.push_back(plan.SlotOf(v));
    }

    // Group solution rows by the group-by key (slot values; unbound = 0),
    // reading the key straight off the batch columns. The map is FNV-hashed
    // (formerly a std::map over TermId vectors, a tree comparing whole keys
    // per step); keys are sorted once afterwards so group output order —
    // ascending TermId-vector order, pinned by the determinism test — is
    // unchanged.
    std::unordered_map<std::vector<TermId>, std::vector<RowRef>, TermVecHash>
        groups;
    std::vector<TermId> key;
    for (size_t bi = 0; bi < solutions.size(); ++bi) {
      const ColumnBatch& b = solutions[bi];
      for (size_t i = 0; i < b.active(); ++i) {
        const RowRef ref{static_cast<uint32_t>(bi), b.ActiveRow(i)};
        key.clear();
        for (SlotId slot : group_slots) {
          key.push_back(SlotAt(solutions, ref, slot));
        }
        groups[key].push_back(ref);
      }
    }
    if (groups.empty() && query.group_by.empty()) {
      groups[{}] = {};  // aggregates over zero rows still yield one row
    }
    std::vector<const std::vector<TermId>*> group_keys;
    group_keys.reserve(groups.size());
    for (const auto& kv : groups) group_keys.push_back(&kv.first);
    std::sort(group_keys.begin(), group_keys.end(),
              [](const std::vector<TermId>* a, const std::vector<TermId>* b) {
                return *a < *b;
              });

    std::vector<std::vector<ResultCell>> rows;
    rows.reserve(groups.size());
    for (const std::vector<TermId>* group_key : group_keys) {
      const std::vector<RowRef>& members = groups.find(*group_key)->second;
      std::vector<ResultCell> row;
      if (!members.empty()) {
        for (SlotId slot : group_slots) {
          row.push_back(CellAt(dict, solutions, members.front(), slot));
        }
      } else {
        for (size_t i = 0; i < group_slots.size(); ++i) {
          row.push_back(ResultCell{{}, false});
        }
      }
      for (const Aggregate& agg : query.aggregates) {
        if (agg.fn == Aggregate::Fn::kCount && agg.var.empty()) {
          row.push_back(ResultCell{
              Term::IntLiteral(static_cast<int64_t>(members.size()))});
          continue;
        }
        // Collect the argument's dictionary ids (bound only). DISTINCT
        // dedups on the id: interning is injective, so id equality is term
        // equality.
        SlotId arg_slot = plan.SlotOf(agg.var);
        std::vector<TermId> values;
        std::set<TermId> distinct_seen;
        for (const RowRef member : members) {
          const TermId id = SlotAt(solutions, member, arg_slot);
          if (id == kInvalidTermId) continue;
          if (agg.distinct && !distinct_seen.insert(id).second) continue;
          values.push_back(id);
        }
        switch (agg.fn) {
          case Aggregate::Fn::kCount:
            row.push_back(ResultCell{
                Term::IntLiteral(static_cast<int64_t>(values.size()))});
            break;
          case Aggregate::Fn::kSum:
          case Aggregate::Fn::kAvg: {
            double sum = 0;
            uint64_t n = 0;
            for (const TermId id : values) {
              Result<double> v = TermNumber(dict, id);
              if (v.ok()) {
                sum += v.ValueOrDie();
                ++n;
              }
            }
            double result = agg.fn == Aggregate::Fn::kSum
                                ? sum
                                : (n ? sum / static_cast<double>(n) : 0.0);
            row.push_back(ResultCell{Term::DoubleLiteral(result)});
            break;
          }
          case Aggregate::Fn::kMin:
          case Aggregate::Fn::kMax: {
            if (values.empty()) {
              row.push_back(ResultCell{{}, false});
              break;
            }
            TermId best = values.front();
            for (const TermId id : values) {
              Result<int> c = CompareTermIds(dict, id, best);
              if (c.ok() &&
                  ((agg.fn == Aggregate::Fn::kMin && c.ValueOrDie() < 0) ||
                   (agg.fn == Aggregate::Fn::kMax && c.ValueOrDie() > 0))) {
                best = id;
              }
            }
            row.push_back(ResultCell{dict.term(best)});
            break;
          }
        }
      }
      rows.push_back(std::move(row));
    }

    // ORDER BY over the output columns — group keys and aggregate aliases
    // — with the plain path's key comparison. Then OFFSET/LIMIT.
    const std::vector<OrderColumn> order = OrderColumns(query, out_columns);
    if (!order.empty()) {
      std::stable_sort(rows.begin(), rows.end(),
                       [&](const std::vector<ResultCell>& a,
                           const std::vector<ResultCell>& b) {
                         for (const OrderColumn& k : order) {
                           const ResultCell& x = a[k.column];
                           const ResultCell& y = b[k.column];
                           const int c =
                               CompareOrderKey(x.bound ? &x.term : nullptr,
                                               y.bound ? &y.term : nullptr,
                                               k.ascending);
                           if (c != 0) return c < 0;
                         }
                         return false;
                       });
    }
    const auto [begin, end] = SliceWindow(query, rows.size());
    ResultTable table(out_columns);
    table.Reserve(end - begin);
    for (size_t i = begin; i < end; ++i) table.AddRow(std::move(rows[i]));
    fold.rows_out = table.num_rows();
    return table;
  }

  // ---- Plain projection path (late materialization) ----
  // ORDER BY, DISTINCT and OFFSET/LIMIT permute and prune RowRefs over the
  // batch list; only the rows that survive every modifier materialize
  // Terms.
  std::vector<RowRef> refs = CollectRefs(solutions);

  // ORDER BY over the projected columns.
  const std::vector<OrderColumn> order = OrderColumns(query, columns);
  if (!order.empty()) {
    std::stable_sort(
        refs.begin(), refs.end(), [&](const RowRef a, const RowRef b) {
          for (const OrderColumn& k : order) {
            const TermId ia = SlotAt(solutions, a, column_slots[k.column]);
            const TermId ib = SlotAt(solutions, b, column_slots[k.column]);
            if (ia == ib) continue;  // same id: identical term
            const int c = CompareOrderKey(
                ia == kInvalidTermId ? nullptr : &dict.term(ia),
                ib == kInvalidTermId ? nullptr : &dict.term(ib), k.ascending);
            if (c != 0) return c < 0;
          }
          return false;
        });
  }

  // DISTINCT: first occurrence wins, keyed on the projected TermId tuple
  // (FNV-hashed). Equivalent to the former serialized-string key because
  // interning is injective — equal ids iff equal terms — and unbound cells
  // are uniformly kInvalidTermId.
  if (query.distinct) {
    std::unordered_set<std::vector<TermId>, TermVecHash> seen;
    std::vector<RowRef> kept;
    std::vector<TermId> key;
    for (const RowRef r : refs) {
      key.clear();
      for (SlotId slot : column_slots) key.push_back(SlotAt(solutions, r, slot));
      if (seen.insert(key).second) kept.push_back(r);
    }
    refs = std::move(kept);
  }

  // OFFSET / LIMIT: slice the reference list before materializing.
  if (query.offset > 0 || query.limit >= 0) {
    const auto [begin, end] = SliceWindow(query, refs.size());
    refs.assign(refs.begin() + static_cast<ptrdiff_t>(begin),
                refs.begin() + static_cast<ptrdiff_t>(end));
  }

  ResultTable table(columns);
  table.Reserve(refs.size());
  for (const RowRef r : refs) {
    std::vector<ResultCell> row;
    row.reserve(columns.size());
    for (SlotId slot : column_slots) {
      row.push_back(CellAt(dict, solutions, r, slot));
    }
    table.AddRow(std::move(row));
  }

  fold.rows_out = table.num_rows();
  return table;
}

Result<std::string> QueryEngine::ExplainAnalyzeImpl(
    const Query& query, std::string_view text) const {
  Options opts = options_;
  opts.profile = true;
  QueryEngine profiled(source_, opts);
  QueryStats stats;
  // Threads `text` through so a journal-admitted run keeps the query text.
  if (query.form == QueryForm::kConstruct ||
      query.form == QueryForm::kDescribe) {
    LODVIZ_ASSIGN_OR_RETURN(std::vector<rdf::ParsedTriple> discarded,
                            profiled.ExecuteGraphImpl(query, &stats, text));
    (void)discarded;
  } else {
    LODVIZ_ASSIGN_OR_RETURN(ResultTable discarded,
                            profiled.ExecuteImpl(query, &stats, text));
    (void)discarded;
  }

  char line[160];
  std::snprintf(line, sizeof(line),
                "explain analyze  fingerprint=0x%016llx\n",
                static_cast<unsigned long long>(stats.fingerprint));
  std::string out = line;
  out += obs::ProfileTreeString(stats.profile.root);
  std::snprintf(
      line, sizeof(line),
      "total: rows_out=%llu  intermediate_rows=%llu  time=%.1fus\n",
      static_cast<unsigned long long>(stats.rows_out),
      static_cast<unsigned long long>(stats.intermediate_rows),
      stats.latency_us);
  out += line;
  return out;
}

Result<std::string> QueryEngine::ExplainAnalyzeString(
    std::string_view text) const {
  LODVIZ_ASSIGN_OR_RETURN(Query q, ParseTraced(text));
  return ExplainAnalyzeImpl(q, text);
}

}  // namespace lodviz::sparql
