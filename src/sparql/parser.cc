#include "sparql/parser.h"

#include <charconv>
#include <utility>

#include "rdf/vocab.h"
#include "sparql/lexer.h"

namespace lodviz::sparql {

namespace {

/// Recursive-descent parser over the token stream.
class Parser {
 public:
  /// Combined cap on expression, unary-chain, and group nesting. Server
  /// input is untrusted: without a cap, `((((...))))` or `{{{{...}}}}`
  /// recurses once per level and overflows the stack (and the planner /
  /// fingerprint visitors would recurse just as deep downstream). ~7
  /// frames per expression level keeps the worst case well under 1 MiB of
  /// stack while leaving room for any human-written query.
  static constexpr int kMaxNestingDepth = 128;

  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Query> Parse() {
    Query q;
    while (PeekKeyword("PREFIX")) {
      LODVIZ_RETURN_NOT_OK(ParsePrefix(&q));
    }
    if (AcceptKeyword("SELECT")) {
      q.form = QueryForm::kSelect;
      LODVIZ_RETURN_NOT_OK(ParseSelectClause(&q));
    } else if (AcceptKeyword("ASK")) {
      q.form = QueryForm::kAsk;
    } else if (AcceptKeyword("CONSTRUCT")) {
      q.form = QueryForm::kConstruct;
      LODVIZ_RETURN_NOT_OK(Expect("{"));
      LODVIZ_ASSIGN_OR_RETURN(GraphPattern tmpl, ParseGroup(&q));
      if (!tmpl.filters.empty() || !tmpl.optionals.empty() ||
          !tmpl.union_branches.empty()) {
        return Err("CONSTRUCT template must contain only triples");
      }
      // A template blank node would mint a fresh node per solution.
      for (const TriplePatternAst& t : tmpl.triples) {
        for (const NodeOrVar* n : {&t.s, &t.p, &t.o}) {
          if (IsVar(*n) && IsBlankNodeVar(AsVar(*n).name)) {
            return Err("blank node in a CONSTRUCT template");
          }
        }
      }
      q.construct_template = std::move(tmpl.triples);
    } else if (AcceptKeyword("DESCRIBE")) {
      q.form = QueryForm::kDescribe;
      while (true) {
        if (Peek().kind == TokenKind::kVar) {
          q.describe_targets.push_back(Var{Next().text});
          continue;
        }
        if (Peek().kind == TokenKind::kIriRef) {
          q.describe_targets.push_back(rdf::Term::Iri(Next().text));
          continue;
        }
        if (Peek().kind == TokenKind::kPname) {
          LODVIZ_ASSIGN_OR_RETURN(std::string iri, ExpandPname(&q, Next().text));
          q.describe_targets.push_back(rdf::Term::Iri(std::move(iri)));
          continue;
        }
        break;
      }
      if (q.describe_targets.empty()) {
        return Err("DESCRIBE needs at least one target");
      }
      // DESCRIBE <iri> without a WHERE clause is complete.
      bool has_where = PeekKeyword("WHERE") ||
                       (Peek().kind == TokenKind::kPunct && Peek().text == "{");
      if (!has_where) {
        if (Peek().kind != TokenKind::kEof) {
          return Err("trailing tokens after DESCRIBE");
        }
        return q;
      }
    } else {
      return Err("expected SELECT, ASK, CONSTRUCT or DESCRIBE");
    }
    AcceptKeyword("WHERE");  // optional before '{'
    LODVIZ_RETURN_NOT_OK(Expect("{"));
    LODVIZ_ASSIGN_OR_RETURN(q.where, ParseGroup(&q));

    // Solution modifiers.
    while (true) {
      if (AcceptKeyword("GROUP")) {
        if (!AcceptKeyword("BY")) return Err("expected BY after GROUP");
        while (Peek().kind == TokenKind::kVar) {
          q.group_by.push_back(Next().text);
        }
        if (q.group_by.empty()) return Err("GROUP BY needs variables");
        continue;
      }
      if (AcceptKeyword("ORDER")) {
        if (!AcceptKeyword("BY")) return Err("expected BY after ORDER");
        bool any = false;
        while (true) {
          OrderKey key;
          if (AcceptKeyword("ASC") || AcceptKeyword("DESC")) {
            key.ascending = tokens_[pos_ - 1].text == "ASC";
            LODVIZ_RETURN_NOT_OK(Expect("("));
            if (Peek().kind != TokenKind::kVar) return Err("expected variable");
            key.var = Next().text;
            LODVIZ_RETURN_NOT_OK(Expect(")"));
          } else if (Peek().kind == TokenKind::kVar) {
            key.var = Next().text;
          } else {
            break;
          }
          q.order_by.push_back(key);
          any = true;
        }
        if (!any) return Err("ORDER BY needs keys");
        continue;
      }
      if (AcceptKeyword("LIMIT")) {
        LODVIZ_ASSIGN_OR_RETURN(q.limit, ParseBound("LIMIT"));
        continue;
      }
      if (AcceptKeyword("OFFSET")) {
        LODVIZ_ASSIGN_OR_RETURN(q.offset, ParseBound("OFFSET"));
        continue;
      }
      break;
    }
    if (Peek().kind != TokenKind::kEof) {
      return Err("trailing tokens after query");
    }
    return q;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Next() { return tokens_[pos_++]; }

  bool PeekKeyword(std::string_view kw) const {
    return Peek().kind == TokenKind::kKeyword && Peek().text == kw;
  }
  bool AcceptKeyword(std::string_view kw) {
    if (PeekKeyword(kw)) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool AcceptPunct(std::string_view p) {
    if (Peek().kind == TokenKind::kPunct && Peek().text == p) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status Expect(std::string_view p) {
    if (!AcceptPunct(p)) {
      return Status::ParseError("expected '" + std::string(p) + "' near '" +
                                Peek().text + "' (offset " +
                                std::to_string(Peek().offset) + ")");
    }
    return Status::OK();
  }
  Status Err(std::string msg) const {
    return Status::ParseError(msg + " near '" + Peek().text + "' (offset " +
                              std::to_string(Peek().offset) + ")");
  }

  /// Checked LIMIT/OFFSET numeral parse. The lexer's number token admits a
  /// sign and a decimal point, and untrusted input can carry arbitrarily
  /// many digits — `std::stoll` would throw std::out_of_range straight
  /// through the Status-based API and kill the process. from_chars never
  /// throws; anything unconsumed (a '.'), a negative value, or overflow is
  /// a ParseError.
  Result<int64_t> ParseBound(const char* clause) {
    if (Peek().kind != TokenKind::kNumber) return Err("expected number");
    const std::string& text = Peek().text;
    int64_t value = 0;
    auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec == std::errc::result_out_of_range) {
      return Err(std::string(clause) + " value out of range");
    }
    if (ec != std::errc() || end != text.data() + text.size()) {
      return Err(std::string(clause) + " needs an integer");
    }
    if (value < 0) {
      return Err(std::string(clause) + " must be non-negative");
    }
    ++pos_;
    return value;
  }

  /// RAII nesting guard shared by every recursive production. Construct,
  /// then check status() before recursing further.
  class DepthGuard {
   public:
    explicit DepthGuard(Parser* p) : p_(p) { ++p_->depth_; }
    ~DepthGuard() { --p_->depth_; }
    DepthGuard(const DepthGuard&) = delete;
    DepthGuard& operator=(const DepthGuard&) = delete;
    [[nodiscard]] Status status() const {
      if (p_->depth_ > kMaxNestingDepth) {
        return Status::ParseError("query nesting too deep (limit " +
                                  std::to_string(kMaxNestingDepth) + ")");
      }
      return Status::OK();
    }

   private:
    Parser* p_;
  };

  Status ParsePrefix(Query* q) {
    ++pos_;  // PREFIX
    if (Peek().kind != TokenKind::kPname) return Err("expected prefix name");
    std::string pname = Next().text;
    if (pname.empty() || pname.back() != ':') {
      // pname token holds "p:" or "p:rest" — prefix decls must be "p:".
      size_t colon = pname.find(':');
      if (colon == std::string::npos || colon + 1 != pname.size()) {
        return Err("PREFIX name must end with ':'");
      }
    }
    if (Peek().kind != TokenKind::kIriRef) return Err("expected IRI");
    q->prefixes[pname.substr(0, pname.size() - 1)] = Next().text;
    return Status::OK();
  }

  Status ParseSelectClause(Query* q) {
    if (AcceptKeyword("DISTINCT")) q->distinct = true;
    if (AcceptPunct("*")) return Status::OK();
    bool any = false;
    while (true) {
      if (Peek().kind == TokenKind::kVar) {
        q->select_vars.push_back(Next().text);
        any = true;
        continue;
      }
      if (AcceptPunct("(")) {
        LODVIZ_ASSIGN_OR_RETURN(Aggregate agg, ParseAggregate());
        q->aggregates.push_back(std::move(agg));
        any = true;
        continue;
      }
      // Bare aggregate without (expr AS ?alias) wrapper: COUNT(...)
      if (Peek().kind == TokenKind::kKeyword && IsAggregateKeyword(Peek().text)) {
        LODVIZ_ASSIGN_OR_RETURN(Aggregate agg, ParseAggregateCall());
        agg.alias = DefaultAlias(agg);
        q->aggregates.push_back(std::move(agg));
        any = true;
        continue;
      }
      break;
    }
    if (!any) return Err("SELECT needs projection");
    return Status::OK();
  }

  static bool IsAggregateKeyword(const std::string& kw) {
    return kw == "COUNT" || kw == "SUM" || kw == "AVG" || kw == "MIN" ||
           kw == "MAX";
  }

  static std::string DefaultAlias(const Aggregate& agg) {
    switch (agg.fn) {
      case Aggregate::Fn::kCount:
        return "count";
      case Aggregate::Fn::kSum:
        return "sum";
      case Aggregate::Fn::kAvg:
        return "avg";
      case Aggregate::Fn::kMin:
        return "min";
      case Aggregate::Fn::kMax:
        return "max";
    }
    return "agg";
  }

  /// Parses "AGG(...) AS ?alias)" after the opening '(' was consumed.
  Result<Aggregate> ParseAggregate() {
    LODVIZ_ASSIGN_OR_RETURN(Aggregate agg, ParseAggregateCall());
    if (!AcceptKeyword("AS")) return Err("expected AS in aggregate");
    if (Peek().kind != TokenKind::kVar) return Err("expected alias variable");
    agg.alias = Next().text;
    LODVIZ_RETURN_NOT_OK(Expect(")"));
    return agg;
  }

  /// Parses "COUNT(DISTINCT ?v)" / "SUM(?v)" / "COUNT(*)".
  Result<Aggregate> ParseAggregateCall() {
    Aggregate agg;
    const std::string& kw = Peek().text;
    if (kw == "COUNT") agg.fn = Aggregate::Fn::kCount;
    else if (kw == "SUM") agg.fn = Aggregate::Fn::kSum;
    else if (kw == "AVG") agg.fn = Aggregate::Fn::kAvg;
    else if (kw == "MIN") agg.fn = Aggregate::Fn::kMin;
    else if (kw == "MAX") agg.fn = Aggregate::Fn::kMax;
    else return Err("expected aggregate function");
    ++pos_;
    LODVIZ_RETURN_NOT_OK(Expect("("));
    if (AcceptKeyword("DISTINCT")) agg.distinct = true;
    if (AcceptPunct("*")) {
      if (agg.fn != Aggregate::Fn::kCount) return Err("* only valid in COUNT");
    } else {
      if (Peek().kind != TokenKind::kVar) return Err("expected variable");
      agg.var = Next().text;
    }
    LODVIZ_RETURN_NOT_OK(Expect(")"));
    return agg;
  }

  /// Parses the body of a group after '{'. Consumes the closing '}'.
  Result<GraphPattern> ParseGroup(Query* q) {
    DepthGuard depth(this);
    LODVIZ_RETURN_NOT_OK(depth.status());
    GraphPattern group;
    while (true) {
      if (AcceptPunct("}")) break;
      if (AcceptKeyword("FILTER")) {
        LODVIZ_RETURN_NOT_OK(Expect("("));
        LODVIZ_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr(q));
        LODVIZ_RETURN_NOT_OK(Expect(")"));
        group.filters.push_back(std::move(e));
        continue;
      }
      if (AcceptKeyword("OPTIONAL")) {
        LODVIZ_RETURN_NOT_OK(Expect("{"));
        LODVIZ_ASSIGN_OR_RETURN(GraphPattern opt, ParseGroup(q));
        group.optionals.push_back(std::move(opt));
        continue;
      }
      if (AcceptPunct("{")) {
        // {A} UNION {B} [UNION {C} ...]
        LODVIZ_ASSIGN_OR_RETURN(GraphPattern first, ParseGroup(q));
        group.union_branches.push_back(std::move(first));
        while (AcceptKeyword("UNION")) {
          LODVIZ_RETURN_NOT_OK(Expect("{"));
          LODVIZ_ASSIGN_OR_RETURN(GraphPattern branch, ParseGroup(q));
          group.union_branches.push_back(std::move(branch));
        }
        if (group.union_branches.size() == 1) {
          // A plain nested group: fold its contents into the parent.
          GraphPattern inner = std::move(group.union_branches.back());
          group.union_branches.pop_back();
          for (auto& t : inner.triples) group.triples.push_back(std::move(t));
          for (auto& f : inner.filters) group.filters.push_back(std::move(f));
          for (auto& o : inner.optionals) {
            group.optionals.push_back(std::move(o));
          }
          for (auto& u : inner.union_branches) {
            group.union_branches.push_back(std::move(u));
          }
        }
        continue;
      }
      // Triple block with ';' and ',' abbreviations.
      LODVIZ_ASSIGN_OR_RETURN(NodeOrVar s, ParseNode(q, /*allow_literal=*/false));
      while (true) {
        LODVIZ_ASSIGN_OR_RETURN(NodeOrVar p, ParseVerb(q));
        while (true) {
          LODVIZ_ASSIGN_OR_RETURN(NodeOrVar o, ParseNode(q, true));
          group.triples.push_back({s, p, o});
          if (!AcceptPunct(",")) break;
        }
        if (!AcceptPunct(";")) break;
        if (Peek().kind == TokenKind::kPunct && Peek().text == ".") break;
      }
      AcceptPunct(".");  // terminator optional before '}'
    }
    return group;
  }

  Result<NodeOrVar> ParseVerb(Query* q) {
    if (Peek().kind == TokenKind::kA) {
      ++pos_;
      return NodeOrVar(rdf::Term::Iri(rdf::vocab::kRdfType));
    }
    if (Peek().kind == TokenKind::kBlankNode) {
      return Err("blank node as a predicate");
    }
    return ParseNode(q, /*allow_literal=*/false);
  }

  Result<NodeOrVar> ParseNode(Query* q, bool allow_literal) {
    const Token& tok = Peek();
    switch (tok.kind) {
      case TokenKind::kVar:
        return NodeOrVar(Var{Next().text});
      case TokenKind::kBlankNode:
        return NodeOrVar(Var{BlankNodeVarName(Next().text)});
      case TokenKind::kIriRef:
        return NodeOrVar(rdf::Term::Iri(Next().text));
      case TokenKind::kPname: {
        LODVIZ_ASSIGN_OR_RETURN(std::string iri, ExpandPname(q, Next().text));
        return NodeOrVar(rdf::Term::Iri(std::move(iri)));
      }
      case TokenKind::kString: {
        if (!allow_literal) return Err("literal not allowed here");
        std::string value = Next().text;
        if (Peek().kind == TokenKind::kLangTag) {
          return NodeOrVar(rdf::Term::LangLiteral(value, Next().text));
        }
        if (Peek().kind == TokenKind::kPunct && Peek().text == "^^") {
          ++pos_;
          if (Peek().kind == TokenKind::kIriRef) {
            return NodeOrVar(rdf::Term::Literal(value, Next().text));
          }
          if (Peek().kind == TokenKind::kPname) {
            LODVIZ_ASSIGN_OR_RETURN(std::string dt, ExpandPname(q, Next().text));
            return NodeOrVar(rdf::Term::Literal(value, std::move(dt)));
          }
          return Err("expected datatype IRI after ^^");
        }
        return NodeOrVar(rdf::Term::Literal(std::move(value)));
      }
      case TokenKind::kNumber: {
        if (!allow_literal) return Err("literal not allowed here");
        std::string text = Next().text;
        const char* dt = text.find('.') != std::string::npos
                             ? rdf::vocab::kXsdDecimal
                             : rdf::vocab::kXsdInteger;
        return NodeOrVar(rdf::Term::Literal(std::move(text), dt));
      }
      case TokenKind::kKeyword:
        if (tok.text == "TRUE" || tok.text == "FALSE") {
          if (!allow_literal) return Err("literal not allowed here");
          return NodeOrVar(rdf::Term::BoolLiteral(Next().text == "TRUE"));
        }
        return Err("unexpected keyword in pattern");
      default:
        return Err("expected term or variable");
    }
  }

  Result<std::string> ExpandPname(Query* q, const std::string& pname) {
    size_t colon = pname.find(':');
    if (colon == std::string::npos) {
      return Status::ParseError("malformed prefixed name '" + pname + "'");
    }
    std::string prefix = pname.substr(0, colon);
    auto it = q->prefixes.find(prefix);
    if (it == q->prefixes.end()) {
      return Status::ParseError("unknown prefix '" + prefix + ":'");
    }
    return it->second + pname.substr(colon + 1);
  }

  // ---- expressions (precedence climbing) ----

  Result<ExprPtr> ParseExpr(Query* q) {
    DepthGuard depth(this);
    LODVIZ_RETURN_NOT_OK(depth.status());
    return ParseOr(q);
  }

  Result<ExprPtr> ParseOr(Query* q) {
    LODVIZ_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd(q));
    while (AcceptPunct("||")) {
      LODVIZ_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd(q));
      lhs = Expr::Binary(BinOp::kOr, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseAnd(Query* q) {
    LODVIZ_ASSIGN_OR_RETURN(ExprPtr lhs, ParseCompare(q));
    while (AcceptPunct("&&")) {
      LODVIZ_ASSIGN_OR_RETURN(ExprPtr rhs, ParseCompare(q));
      lhs = Expr::Binary(BinOp::kAnd, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseCompare(Query* q) {
    LODVIZ_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive(q));
    static constexpr std::pair<const char*, BinOp> kOps[] = {
        {"<=", BinOp::kLe}, {">=", BinOp::kGe}, {"!=", BinOp::kNe},
        {"=", BinOp::kEq},  {"<", BinOp::kLt},  {">", BinOp::kGt}};
    for (const auto& [text, op] : kOps) {
      if (AcceptPunct(text)) {
        LODVIZ_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive(q));
        return Expr::Binary(op, std::move(lhs), std::move(rhs));
      }
    }
    return lhs;
  }

  Result<ExprPtr> ParseAdditive(Query* q) {
    LODVIZ_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative(q));
    while (true) {
      if (AcceptPunct("+")) {
        LODVIZ_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative(q));
        lhs = Expr::Binary(BinOp::kAdd, std::move(lhs), std::move(rhs));
      } else if (AcceptPunct("-")) {
        LODVIZ_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative(q));
        lhs = Expr::Binary(BinOp::kSub, std::move(lhs), std::move(rhs));
      } else {
        break;
      }
    }
    return lhs;
  }

  Result<ExprPtr> ParseMultiplicative(Query* q) {
    LODVIZ_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary(q));
    while (true) {
      if (AcceptPunct("*")) {
        LODVIZ_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary(q));
        lhs = Expr::Binary(BinOp::kMul, std::move(lhs), std::move(rhs));
      } else if (AcceptPunct("/")) {
        LODVIZ_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary(q));
        lhs = Expr::Binary(BinOp::kDiv, std::move(lhs), std::move(rhs));
      } else {
        break;
      }
    }
    return lhs;
  }

  Result<ExprPtr> ParseUnary(Query* q) {
    // Guarded separately from ParseExpr: `!!!!...x` and `----x` recurse
    // here without ever re-entering ParseExpr.
    DepthGuard depth(this);
    LODVIZ_RETURN_NOT_OK(depth.status());
    if (AcceptPunct("!")) {
      LODVIZ_ASSIGN_OR_RETURN(ExprPtr arg, ParseUnary(q));
      return Expr::Unary(UnOp::kNot, std::move(arg));
    }
    if (AcceptPunct("-")) {
      LODVIZ_ASSIGN_OR_RETURN(ExprPtr arg, ParseUnary(q));
      return Expr::Unary(UnOp::kNeg, std::move(arg));
    }
    return ParsePrimary(q);
  }

  Result<ExprPtr> ParsePrimary(Query* q) {
    const Token& tok = Peek();
    if (tok.kind == TokenKind::kPunct && tok.text == "(") {
      ++pos_;
      LODVIZ_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr(q));
      LODVIZ_RETURN_NOT_OK(Expect(")"));
      return e;
    }
    if (tok.kind == TokenKind::kKeyword) {
      static constexpr std::pair<const char*, FuncOp> kFuncs[] = {
          {"BOUND", FuncOp::kBound},       {"ISIRI", FuncOp::kIsIri},
          {"ISLITERAL", FuncOp::kIsLiteral}, {"ISBLANK", FuncOp::kIsBlank},
          {"STR", FuncOp::kStr},           {"CONTAINS", FuncOp::kContains},
          {"STRSTARTS", FuncOp::kStrStarts}, {"LANG", FuncOp::kLang},
          {"DATATYPE", FuncOp::kDatatype}};
      for (const auto& [name, op] : kFuncs) {
        if (tok.text == name) {
          ++pos_;
          LODVIZ_RETURN_NOT_OK(Expect("("));
          std::vector<ExprPtr> args;
          if (!AcceptPunct(")")) {
            while (true) {
              LODVIZ_ASSIGN_OR_RETURN(ExprPtr a, ParseExpr(q));
              args.push_back(std::move(a));
              if (!AcceptPunct(",")) break;
            }
            LODVIZ_RETURN_NOT_OK(Expect(")"));
          }
          return Expr::Func(op, std::move(args));
        }
      }
      if (tok.text == "TRUE" || tok.text == "FALSE") {
        ++pos_;
        return Expr::Literal(rdf::Term::BoolLiteral(tok.text == "TRUE"));
      }
      return Err("unexpected keyword in expression");
    }
    if (tok.kind == TokenKind::kVar) {
      return Expr::Variable(Next().text);
    }
    if (tok.kind == TokenKind::kBlankNode) {
      return Err("blank node in an expression");
    }
    // Constants share the node parser.
    LODVIZ_ASSIGN_OR_RETURN(NodeOrVar n, ParseNode(q, /*allow_literal=*/true));
    return Expr::Literal(AsTerm(n));
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  /// Current recursion depth across groups and expressions (DepthGuard).
  int depth_ = 0;
};

}  // namespace

Result<Query> ParseQuery(std::string_view text) {
  LODVIZ_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(std::move(tokens));
  return parser.Parse();
}

}  // namespace lodviz::sparql
