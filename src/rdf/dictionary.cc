#include "rdf/dictionary.h"

#include <limits>

#include "common/check.h"
#include "rdf/vocab.h"

namespace lodviz::rdf {

DecodedValue DecodeTerm(const Term& term) {
  DecodedValue d;
  if (!term.is_literal()) return d;
  if (term.datatype == vocab::kXsdBoolean) {
    d.kind = DecodedValue::Kind::kBool;
    d.b = term.lexical == "true";
    return d;
  }
  if (term.IsNumericLiteral()) {
    Result<double> v = term.AsDouble();
    if (v.ok()) {
      d.kind = DecodedValue::Kind::kNum;
      d.num = v.ValueOrDie();
    }
    return d;
  }
  if (term.IsTemporalLiteral()) {
    Result<int64_t> v = term.AsEpochSeconds();
    if (v.ok()) {
      d.kind = DecodedValue::Kind::kTime;
      d.epoch = v.ValueOrDie();
    }
    return d;
  }
  return d;
}

Dictionary::Dictionary() {
  terms_.emplace_back();  // sentinel for kInvalidTermId
  decoded_.emplace_back();
}

std::string Dictionary::MakeKey(const Term& term) {
  std::string key;
  key.reserve(term.lexical.size() + term.datatype.size() +
              term.language.size() + 4);
  key += static_cast<char>('0' + static_cast<int>(term.kind));
  key += term.lexical;
  key += '\x01';
  key += term.datatype;
  key += '\x01';
  key += term.language;
  return key;
}

TermId Dictionary::Intern(const Term& term) {
  std::string key = MakeKey(term);
  auto it = index_.find(key);
  if (it != index_.end()) return it->second;
  // The disk indexes pack TermIds as 32-bit halves of Key128 (hi =
  // (s << 32) | p); an id past 2^32 would silently corrupt index order,
  // so dictionary growth past the id space fails loudly here instead.
  LODVIZ_CHECK(terms_.size() <= std::numeric_limits<TermId>::max())
      << "dictionary overflow: term id space (32-bit) exhausted at "
      << terms_.size() << " terms";
  TermId id = static_cast<TermId>(terms_.size());
  terms_.push_back(term);
  decoded_.push_back(DecodeTerm(term));
  index_.emplace(std::move(key), id);
  return id;
}

TermId Dictionary::Lookup(const Term& term) const {
  auto it = index_.find(MakeKey(term));
  if (it == index_.end()) return kInvalidTermId;
  return it->second;
}

Result<double> Dictionary::ScalarValue(TermId id) const {
  const DecodedValue& d = decoded(id);
  if (d.kind == DecodedValue::Kind::kTime) return static_cast<double>(d.epoch);
  if (d.kind == DecodedValue::Kind::kNone && term(id).IsTemporalLiteral()) {
    return term(id).AsEpochSeconds().status();
  }
  return NumberValue(id);
}

size_t Dictionary::MemoryUsage() const {
  size_t bytes = terms_.capacity() * sizeof(Term) +
                 decoded_.capacity() * sizeof(DecodedValue);
  for (const Term& t : terms_) {
    bytes += t.lexical.capacity() + t.datatype.capacity() + t.language.capacity();
  }
  // unordered_map overhead: key strings + node + bucket pointers (approx).
  bytes += index_.size() * (sizeof(void*) * 4 + sizeof(TermId));
  for (const auto& [k, v] : index_) bytes += k.capacity();
  return bytes;
}

}  // namespace lodviz::rdf
