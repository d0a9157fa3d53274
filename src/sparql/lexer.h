#ifndef LODVIZ_SPARQL_LEXER_H_
#define LODVIZ_SPARQL_LEXER_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace lodviz::sparql {

enum class TokenKind {
  kKeyword,   ///< SELECT, WHERE, FILTER, ... (upper-cased in `text`)
  kVar,       ///< ?name (text holds the name without '?')
  kIriRef,    ///< <...> (text holds the IRI)
  kPname,     ///< prefix:local (text holds the full form)
  kBlankNode, ///< _:label (text holds the label)
  kString,    ///< "..." or '...' (text holds the unescaped value)
  kLangTag,   ///< @en
  kNumber,    ///< integer or decimal literal (text holds the lexical form)
  kA,         ///< the keyword 'a' (rdf:type shorthand)
  kPunct,     ///< one of { } ( ) . ; , * = != < <= > >= && || ! + - / ^^
  kEof,
};

struct Token {
  TokenKind kind = TokenKind::kEof;
  std::string text;
  size_t offset = 0;  ///< byte offset in the input (for error messages)
};

/// Tokenizes a SPARQL query string. Keywords are recognized
/// case-insensitively and normalized to upper case.
Result<std::vector<Token>> Tokenize(std::string_view input);

}  // namespace lodviz::sparql

#endif  // LODVIZ_SPARQL_LEXER_H_
