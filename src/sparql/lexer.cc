#include "sparql/lexer.h"

#include <cctype>
#include <unordered_set>

#include "common/string_util.h"
#include "rdf/term.h"

namespace lodviz::sparql {

namespace {

const std::unordered_set<std::string>& Keywords() {
  static const std::unordered_set<std::string> kKeywords = {
      "PREFIX", "SELECT", "ASK",    "CONSTRUCT", "DESCRIBE",
      "DISTINCT", "WHERE",  "FILTER",
      "OPTIONAL", "UNION", "ORDER", "BY",       "ASC",    "DESC",
      "LIMIT",  "OFFSET", "GROUP",  "AS",       "COUNT",  "SUM",
      "AVG",    "MIN",    "MAX",    "BOUND",    "ISIRI",  "ISLITERAL",
      "ISBLANK", "STR",   "CONTAINS", "STRSTARTS", "LANG", "DATATYPE",
      "TRUE",   "FALSE"};
  return kKeywords;
}

bool IsPnameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-' ||
         c == '.' || c == '/';
}

}  // namespace

Result<std::vector<Token>> Tokenize(std::string_view in) {
  std::vector<Token> tokens;
  size_t i = 0;
  auto push = [&](TokenKind kind, std::string text, size_t off) {
    tokens.push_back({kind, std::move(text), off});
  };

  while (i < in.size()) {
    char c = in[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '#') {  // comment to end of line
      while (i < in.size() && in[i] != '\n') ++i;
      continue;
    }
    size_t start = i;
    if (c == '<') {
      // '<' opens an IRI only if the IRIREF scan closes it; otherwise it is
      // the less-than operator, read below (e.g. "?a < 10", "?o<3||?s>2").
      Result<std::string_view> iri = rdf::ScanIriRef(in, &i);
      if (iri.ok()) {
        push(TokenKind::kIriRef, std::string(*iri), start);
        continue;
      }
    }
    if (c == '?' || c == '$') {
      size_t j = i + 1;
      while (j < in.size() &&
             (std::isalnum(static_cast<unsigned char>(in[j])) || in[j] == '_')) {
        ++j;
      }
      if (j == i + 1) {
        return Status::ParseError("empty variable name at offset " +
                                  std::to_string(i));
      }
      push(TokenKind::kVar, std::string(in.substr(i + 1, j - i - 1)), start);
      i = j;
      continue;
    }
    if (c == '"' || c == '\'') {
      LODVIZ_ASSIGN_OR_RETURN(std::string value, rdf::ScanQuotedString(in, &i));
      push(TokenKind::kString, std::move(value), start);
      continue;
    }
    if (c == '_' && i + 1 < in.size() && in[i + 1] == ':') {
      LODVIZ_ASSIGN_OR_RETURN(std::string_view label,
                              rdf::ScanBlankLabel(in, &i));
      push(TokenKind::kBlankNode, std::string(label), start);
      continue;
    }
    if (c == '@') {
      LODVIZ_ASSIGN_OR_RETURN(std::string_view tag, rdf::ScanLangTag(in, &i));
      push(TokenKind::kLangTag, std::string(tag), start);
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        ((c == '-' || c == '+') && i + 1 < in.size() &&
         std::isdigit(static_cast<unsigned char>(in[i + 1])))) {
      size_t j = i + 1;
      bool dot = false;
      while (j < in.size() &&
             (std::isdigit(static_cast<unsigned char>(in[j])) ||
              (in[j] == '.' && !dot))) {
        if (in[j] == '.') {
          // A trailing '.' is the statement terminator, not a decimal point.
          if (j + 1 >= in.size() ||
              !std::isdigit(static_cast<unsigned char>(in[j + 1]))) {
            break;
          }
          dot = true;
        }
        ++j;
      }
      push(TokenKind::kNumber, std::string(in.substr(i, j - i)), start);
      i = j;
      continue;
    }
    // Multi-char operators.
    auto two = in.substr(i, 2);
    if (two == "<=" || two == ">=" || two == "!=" || two == "&&" ||
        two == "||" || two == "^^") {
      push(TokenKind::kPunct, std::string(two), start);
      i += 2;
      continue;
    }
    if (std::string_view("{}().;,*=<>!+-/").find(c) != std::string_view::npos) {
      push(TokenKind::kPunct, std::string(1, c), start);
      ++i;
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t j = i;
      while (j < in.size() && IsPnameChar(in[j])) ++j;
      std::string word(in.substr(i, j - i));
      // 'a' shorthand only when it stands alone.
      if (word == "a") {
        push(TokenKind::kA, "a", start);
        i = j;
        continue;
      }
      if (word.find(':') == std::string::npos && j < in.size() && in[j] == ':') {
        // prefix: — take the colon and local part.
        ++j;
        while (j < in.size() && IsPnameChar(in[j])) ++j;
        std::string pname(in.substr(i, j - i));
        // A trailing '.' is the statement terminator, not part of the name.
        if (!pname.empty() && pname.back() == '.') {
          pname.pop_back();
          --j;
        }
        push(TokenKind::kPname, std::move(pname), start);
        i = j;
        continue;
      }
      std::string upper = AsciiToLower(word);
      for (char& ch : upper) ch = static_cast<char>(std::toupper(ch));
      if (Keywords().count(upper)) {
        push(TokenKind::kKeyword, upper, start);
      } else {
        // Bare word containing ':'? treat as pname, else error.
        if (word.find(':') != std::string::npos) {
          push(TokenKind::kPname, word, start);
        } else {
          return Status::ParseError("unknown token '" + word + "' at offset " +
                                    std::to_string(i));
        }
      }
      i = j;
      continue;
    }
    return Status::ParseError(std::string("unexpected character '") + c +
                              "' at offset " + std::to_string(i));
  }
  push(TokenKind::kEof, "", in.size());
  return tokens;
}

}  // namespace lodviz::sparql
