#ifndef LODVIZ_SPARQL_AST_H_
#define LODVIZ_SPARQL_AST_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "rdf/term.h"

namespace lodviz::sparql {

/// A SPARQL variable (without the leading '?').
struct Var {
  std::string name;

  bool operator==(const Var& other) const { return name == other.name; }
};

/// A blank node `_:label` in a pattern binds like a variable. Its name is
/// "_:label", which no `?var` can spell, and `SELECT *` does not project it.
inline std::string BlankNodeVarName(const std::string& label) {
  return "_:" + label;
}
inline bool IsBlankNodeVar(const std::string& name) {
  return name.size() > 2 && name[0] == '_' && name[1] == ':';
}

/// One position of a triple pattern: a constant term or a variable.
using NodeOrVar = std::variant<rdf::Term, Var>;

inline bool IsVar(const NodeOrVar& n) { return std::holds_alternative<Var>(n); }
inline const Var& AsVar(const NodeOrVar& n) { return std::get<Var>(n); }
inline const rdf::Term& AsTerm(const NodeOrVar& n) {
  return std::get<rdf::Term>(n);
}

/// A triple pattern in the WHERE clause.
struct TriplePatternAst {
  NodeOrVar s;
  NodeOrVar p;
  NodeOrVar o;
};

// ---- FILTER expressions ----

enum class BinOp {
  kAnd, kOr,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAdd, kSub, kMul, kDiv,
};

enum class UnOp { kNot, kNeg };

enum class FuncOp {
  kBound,      ///< BOUND(?v)
  kIsIri,      ///< isIRI(?v)
  kIsLiteral,  ///< isLITERAL(?v)
  kIsBlank,    ///< isBLANK(?v)
  kStr,        ///< STR(?v): lexical form
  kContains,   ///< CONTAINS(str, str)
  kStrStarts,  ///< STRSTARTS(str, str)
  kLang,       ///< LANG(?v)
  kDatatype,   ///< DATATYPE(?v)
};

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// A FILTER expression tree node.
struct Expr {
  enum class Kind { kLiteral, kVar, kBinary, kUnary, kFunc };

  Kind kind = Kind::kLiteral;
  rdf::Term literal;        // kLiteral
  std::string var;          // kVar
  BinOp bin_op{};           // kBinary
  UnOp un_op{};             // kUnary
  FuncOp func{};            // kFunc
  std::vector<ExprPtr> args;

  static ExprPtr Literal(rdf::Term t) {
    auto e = std::make_unique<Expr>();
    e->kind = Kind::kLiteral;
    e->literal = std::move(t);
    return e;
  }
  static ExprPtr Variable(std::string name) {
    auto e = std::make_unique<Expr>();
    e->kind = Kind::kVar;
    e->var = std::move(name);
    return e;
  }
  static ExprPtr Binary(BinOp op, ExprPtr lhs, ExprPtr rhs) {
    auto e = std::make_unique<Expr>();
    e->kind = Kind::kBinary;
    e->bin_op = op;
    e->args.push_back(std::move(lhs));
    e->args.push_back(std::move(rhs));
    return e;
  }
  static ExprPtr Unary(UnOp op, ExprPtr arg) {
    auto e = std::make_unique<Expr>();
    e->kind = Kind::kUnary;
    e->un_op = op;
    e->args.push_back(std::move(arg));
    return e;
  }
  static ExprPtr Func(FuncOp op, std::vector<ExprPtr> args) {
    auto e = std::make_unique<Expr>();
    e->kind = Kind::kFunc;
    e->func = op;
    e->args = std::move(args);
    return e;
  }
};

// ---- Graph patterns ----

/// A group graph pattern: basic patterns + filters + OPTIONAL groups +
/// UNION alternatives. If `union_branches` is non-empty the group's
/// solutions are the union of the branches' solutions joined with the
/// group's own triples.
struct GraphPattern {
  std::vector<TriplePatternAst> triples;
  std::vector<ExprPtr> filters;
  std::vector<GraphPattern> optionals;
  std::vector<GraphPattern> union_branches;
};

// ---- Query ----

enum class QueryForm { kSelect, kAsk, kConstruct, kDescribe };

struct Aggregate {
  enum class Fn { kCount, kSum, kAvg, kMin, kMax };
  Fn fn = Fn::kCount;
  bool distinct = false;
  std::string var;    ///< argument variable; empty means COUNT(*)
  std::string alias;  ///< output column name (from AS, or synthesized)
};

struct OrderKey {
  std::string var;
  bool ascending = true;
};

/// A parsed SPARQL query (SELECT or ASK subset).
struct Query {
  QueryForm form = QueryForm::kSelect;
  bool distinct = false;
  /// Projected variables; empty means '*' (all in-scope variables).
  std::vector<std::string> select_vars;
  std::vector<Aggregate> aggregates;
  /// CONSTRUCT template (kConstruct only).
  std::vector<TriplePatternAst> construct_template;
  /// DESCRIBE target: a variable or a constant IRI (kDescribe only).
  std::vector<NodeOrVar> describe_targets;
  GraphPattern where;
  std::vector<std::string> group_by;
  std::vector<OrderKey> order_by;
  int64_t limit = -1;
  int64_t offset = 0;
  std::unordered_map<std::string, std::string> prefixes;
};

}  // namespace lodviz::sparql

#endif  // LODVIZ_SPARQL_AST_H_
