#include "sparql/fingerprint.h"

#include <cstring>
#include <string>
#include <unordered_map>

#include "rdf/dictionary.h"

namespace lodviz::sparql {

namespace {

/// Canonical byte-stream builder. Every value is fed through a typed
/// Tag* method so adjacent fields cannot alias (e.g. the var index 1
/// followed by literal "2" never collides with var 12): each tag byte
/// separates fields, and integers always contribute exactly 8 bytes.
/// The emitted bytes ARE the canonical serialization — the fingerprint is
/// Fnv1a64 over them, and the plan cache keeps them verbatim as the
/// exact-match verifier behind the 64-bit key.
class Hasher {
 public:
  void Byte(uint8_t b) { out_.push_back(static_cast<char>(b)); }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<uint8_t>(v >> (i * 8)));
  }
  void Tag(char c) { Byte(static_cast<uint8_t>(c)); }
  void Str(const std::string& s) {
    U64(s.size());
    for (char c : s) Byte(static_cast<uint8_t>(c));
  }
  void F64(double d) {
    // +0.0 and -0.0 compare equal but differ in bits; canonicalize so the
    // two spellings of zero fingerprint identically.
    if (d == 0.0) d = 0.0;
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    U64(bits);
  }
  [[nodiscard]] std::string&& TakeBytes() { return std::move(out_); }

 private:
  std::string out_;
};

class FingerprintVisitor {
 public:
  explicit FingerprintVisitor(Hasher* h) : h_(h) {}

  void VisitQuery(const Query& q) {
    h_->Tag('Q');
    h_->Byte(static_cast<uint8_t>(q.form));
    h_->Byte(q.distinct ? 1 : 0);
    h_->Tag('S');
    h_->U64(q.select_vars.size());
    for (const std::string& v : q.select_vars) Variable(v);
    h_->Tag('A');
    h_->U64(q.aggregates.size());
    for (const Aggregate& a : q.aggregates) {
      h_->Byte(static_cast<uint8_t>(a.fn));
      h_->Byte(a.distinct ? 1 : 0);
      if (a.var.empty()) {
        h_->Tag('*');
      } else {
        Variable(a.var);
      }
      // The alias names an output column: part of the query's meaning
      // (consumers address columns by it), so it hashes verbatim.
      h_->Str(a.alias);
    }
    h_->Tag('C');
    h_->U64(q.construct_template.size());
    for (const TriplePatternAst& t : q.construct_template) Pattern(t);
    h_->Tag('D');
    h_->U64(q.describe_targets.size());
    for (const NodeOrVar& n : q.describe_targets) Node(n);
    h_->Tag('W');
    Group(q.where);
    h_->Tag('G');
    h_->U64(q.group_by.size());
    for (const std::string& v : q.group_by) Variable(v);
    h_->Tag('O');
    h_->U64(q.order_by.size());
    for (const OrderKey& k : q.order_by) {
      Variable(k.var);
      h_->Byte(k.ascending ? 1 : 0);
    }
    h_->Tag('L');
    h_->U64(static_cast<uint64_t>(q.limit));
    h_->U64(static_cast<uint64_t>(q.offset));
  }

 private:
  /// Canonical variable id: dense index in first-appearance order of this
  /// traversal. Renaming variables consistently cannot change the ids. A
  /// blank node has its own tag: `SELECT *` projects `?x` but not `_:x`.
  void Variable(const std::string& name) {
    auto [it, inserted] = var_ids_.emplace(name, var_ids_.size());
    h_->Tag(IsBlankNodeVar(name) ? 'w' : 'v');
    h_->U64(it->second);
  }

  void Literal(const rdf::Term& t) {
    if (t.is_iri()) {
      h_->Tag('i');
      h_->Str(t.lexical);
      return;
    }
    if (t.is_blank()) {
      h_->Tag('b');
      h_->Str(t.lexical);
      return;
    }
    // Literal spelling canonicalization: decodable values hash their
    // decoded form, so `30`, `"30"^^xsd:integer` and `"+30"^^xsd:integer`
    // agree; everything else hashes lexical + language + datatype.
    const rdf::DecodedValue dec = rdf::DecodeTerm(t);
    switch (dec.kind) {
      case rdf::DecodedValue::Kind::kNum:
        h_->Tag('n');
        h_->F64(dec.num);
        return;
      case rdf::DecodedValue::Kind::kTime:
        h_->Tag('t');
        h_->U64(static_cast<uint64_t>(dec.epoch));
        return;
      case rdf::DecodedValue::Kind::kBool:
        h_->Tag('B');
        h_->Byte(dec.b ? 1 : 0);
        return;
      case rdf::DecodedValue::Kind::kNone:
        break;
    }
    h_->Tag('l');
    h_->Str(t.lexical);
    h_->Str(t.language);
    h_->Str(t.datatype);
  }

  void Node(const NodeOrVar& n) {
    if (IsVar(n)) {
      Variable(AsVar(n).name);
    } else {
      Literal(AsTerm(n));
    }
  }

  void Pattern(const TriplePatternAst& t) {
    h_->Tag('p');
    Node(t.s);
    Node(t.p);
    Node(t.o);
  }

  void Expression(const Expr& e) {
    h_->Tag('e');
    h_->Byte(static_cast<uint8_t>(e.kind));
    switch (e.kind) {
      case Expr::Kind::kLiteral:
        Literal(e.literal);
        break;
      case Expr::Kind::kVar:
        Variable(e.var);
        break;
      case Expr::Kind::kBinary:
        h_->Byte(static_cast<uint8_t>(e.bin_op));
        break;
      case Expr::Kind::kUnary:
        h_->Byte(static_cast<uint8_t>(e.un_op));
        break;
      case Expr::Kind::kFunc:
        h_->Byte(static_cast<uint8_t>(e.func));
        break;
    }
    h_->U64(e.args.size());
    for (const ExprPtr& a : e.args) Expression(*a);
  }

  void Group(const GraphPattern& g) {
    h_->Tag('{');
    h_->U64(g.triples.size());
    for (const TriplePatternAst& t : g.triples) Pattern(t);
    h_->U64(g.filters.size());
    for (const ExprPtr& f : g.filters) Expression(*f);
    h_->U64(g.optionals.size());
    for (const GraphPattern& o : g.optionals) Group(o);
    h_->U64(g.union_branches.size());
    for (const GraphPattern& u : g.union_branches) Group(u);
    h_->Tag('}');
  }

  Hasher* h_;
  std::unordered_map<std::string, uint64_t> var_ids_;
};

}  // namespace

uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t h = 0xCBF29CE484222325ULL;  // FNV offset basis
  for (char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001B3ULL;  // FNV prime
  }
  return h;
}

std::string CanonicalQueryKey(const Query& query) {
  Hasher h;
  FingerprintVisitor(&h).VisitQuery(query);
  return h.TakeBytes();
}

uint64_t QueryFingerprint(const Query& query) {
  return Fnv1a64(CanonicalQueryKey(query));
}

}  // namespace lodviz::sparql
