#include "rdf/term.h"

#include <array>
#include <cctype>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "common/string_util.h"
#include "rdf/vocab.h"

namespace lodviz::rdf {

namespace {

bool LooksNumeric(std::string_view s) {
  if (s.empty()) return false;
  size_t i = 0;
  if (s[0] == '+' || s[0] == '-') i = 1;
  bool digit = false, dot = false, exp = false;
  for (; i < s.size(); ++i) {
    char c = s[i];
    if (std::isdigit(static_cast<unsigned char>(c))) {
      digit = true;
    } else if (c == '.' && !dot && !exp) {
      dot = true;
    } else if ((c == 'e' || c == 'E') && digit && !exp) {
      exp = true;
      if (i + 1 < s.size() && (s[i + 1] == '+' || s[i + 1] == '-')) ++i;
    } else {
      return false;
    }
  }
  return digit;
}

}  // namespace

Term Term::DoubleLiteral(double value) {
  return Literal(FormatDouble(value, 9), vocab::kXsdDouble);
}

Term Term::IntLiteral(int64_t value) {
  return Literal(std::to_string(value), vocab::kXsdInteger);
}

Term Term::BoolLiteral(bool value) {
  return Literal(value ? "true" : "false", vocab::kXsdBoolean);
}

Term Term::DateTimeLiteral(int64_t epoch_seconds) {
  return Literal(FormatDateTime(epoch_seconds), vocab::kXsdDateTime);
}

bool Term::IsNumericLiteral() const {
  if (!is_literal()) return false;
  if (datatype == vocab::kXsdInteger || datatype == vocab::kXsdDecimal ||
      datatype == vocab::kXsdDouble || datatype == vocab::kXsdFloat) {
    return true;
  }
  if (datatype.empty() && language.empty()) return LooksNumeric(lexical);
  return false;
}

bool Term::IsTemporalLiteral() const {
  if (!is_literal()) return false;
  return datatype == vocab::kXsdDateTime || datatype == vocab::kXsdDate;
}

Result<double> Term::AsDouble() const {
  if (!is_literal()) {
    return Status::InvalidArgument("AsDouble on non-literal term");
  }
  const char* begin = lexical.c_str();
  char* end = nullptr;
  double v = std::strtod(begin, &end);
  if (end == begin || *end != '\0') {
    return Status::ParseError("not a number: '" + lexical + "'");
  }
  return v;
}

Result<int64_t> Term::AsEpochSeconds() const {
  if (!is_literal()) {
    return Status::InvalidArgument("AsEpochSeconds on non-literal term");
  }
  return ParseDateTime(lexical);
}

std::string Term::ToNTriples() const {
  switch (kind) {
    case TermKind::kIri: {
      std::string out;
      out.reserve(lexical.size() + 2);
      out += '<';
      out += lexical;
      out += '>';
      return out;
    }
    case TermKind::kBlank:
      return "_:" + lexical;
    case TermKind::kLiteral: {
      std::string out = "\"";
      out += EscapeNTriplesString(lexical);
      out += '"';
      if (!language.empty()) {
        out += "@" + language;
      } else if (!datatype.empty()) {
        out += "^^<" + datatype + ">";
      }
      return out;
    }
  }
  return "";
}

std::string EscapeNTriplesString(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out += c;
    }
  }
  return out;
}

Result<std::string> UnescapeNTriplesString(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      out += s[i];
      continue;
    }
    if (i + 1 >= s.size()) {
      return Status::ParseError("dangling backslash in literal");
    }
    char next = s[++i];
    switch (next) {
      case '\\':
        out += '\\';
        break;
      case '"':
        out += '"';
        break;
      case '\'':
        out += '\'';
        break;
      case 'n':
        out += '\n';
        break;
      case 'r':
        out += '\r';
        break;
      case 't':
        out += '\t';
        break;
      case 'u':
      case 'U': {
        // \uXXXX / \UXXXXXXXX: decode to UTF-8. UTF-16 surrogate pairs
        // written as two \u escapes combine into one code point; a lone
        // surrogate or a value beyond U+10FFFF is not a character and is
        // rejected rather than emitted as invalid (CESU-8) bytes.
        auto read_hex = [&](size_t at, size_t len,
                            uint32_t* cp) -> Status {
          if (at + len > s.size()) {
            return Status::ParseError("truncated unicode escape");
          }
          uint32_t v = 0;
          for (size_t k = 0; k < len; ++k) {
            char h = s[at + k];
            v <<= 4;
            if (h >= '0' && h <= '9') {
              v |= static_cast<uint32_t>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              v |= static_cast<uint32_t>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              v |= static_cast<uint32_t>(h - 'A' + 10);
            } else {
              return Status::ParseError("bad unicode escape digit");
            }
          }
          *cp = v;
          return Status::OK();
        };
        size_t len = (next == 'u') ? 4 : 8;
        uint32_t cp = 0;
        LODVIZ_RETURN_NOT_OK(read_hex(i + 1, len, &cp));
        i += len;
        if (cp >= 0xD800 && cp <= 0xDBFF) {
          // High surrogate: only meaningful as the first half of a \u
          // pair; combine with the trailing low surrogate.
          if (next != 'u' || i + 2 >= s.size() || s[i + 1] != '\\' ||
              s[i + 2] != 'u') {
            return Status::ParseError("lone high surrogate in unicode escape");
          }
          uint32_t low = 0;
          LODVIZ_RETURN_NOT_OK(read_hex(i + 3, 4, &low));
          if (low < 0xDC00 || low > 0xDFFF) {
            return Status::ParseError(
                "high surrogate not followed by low surrogate");
          }
          cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          i += 6;  // the "\uXXXX" of the low half
        } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
          return Status::ParseError("lone low surrogate in unicode escape");
        }
        if (cp > 0x10FFFF) {
          return Status::ParseError("unicode escape beyond U+10FFFF");
        }
        if (cp < 0x80) {
          out += static_cast<char>(cp);
        } else if (cp < 0x800) {
          out += static_cast<char>(0xC0 | (cp >> 6));
          out += static_cast<char>(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
          out += static_cast<char>(0xE0 | (cp >> 12));
          out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
          out += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
          out += static_cast<char>(0xF0 | (cp >> 18));
          out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
          out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
          out += static_cast<char>(0x80 | (cp & 0x3F));
        }
        break;
      }
      default:
        return Status::ParseError(std::string("unknown escape \\") + next);
    }
  }
  return out;
}

namespace {

Status ScanError(const char* what, size_t at) {
  return Status::ParseError(std::string(what) + " at offset " +
                            std::to_string(at));
}

bool At(std::string_view in, size_t pos, char c) {
  return pos < in.size() && in[pos] == c;
}

bool IsAlnum(char c) { return std::isalnum(static_cast<unsigned char>(c)); }

/// The bytes an IRIREF may hold between its brackets, as a table: the scan
/// runs over every byte of every IRI a loader or the lexer reads.
constexpr std::array<bool, 256> kIriByte = [] {
  std::array<bool, 256> ok{};
  for (int c = 0x21; c < 256; ++c) ok[c] = true;
  for (char c : std::string_view("<>\"{}|^`")) {
    ok[static_cast<unsigned char>(c)] = false;
  }
  return ok;
}();

bool IsLabelByte(char c) {
  return IsAlnum(c) || c == '_' || c == '-' || c == '.' ||
         static_cast<unsigned char>(c) >= 0x80;
}

}  // namespace

Result<std::string_view> ScanIriRef(std::string_view in, size_t* pos) {
  if (!At(in, *pos, '<')) return ScanError("expected IRI", *pos);
  size_t end = *pos + 1;
  while (end < in.size() && kIriByte[static_cast<unsigned char>(in[end])]) {
    ++end;
  }
  if (!At(in, end, '>')) return ScanError("IRI not closed by '>'", *pos);
  std::string_view iri = in.substr(*pos + 1, end - *pos - 1);
  *pos = end + 1;
  return iri;
}

Result<std::string_view> ScanBlankLabel(std::string_view in, size_t* pos) {
  if (!At(in, *pos, '_') || !At(in, *pos + 1, ':')) {
    return ScanError("expected blank node", *pos);
  }
  // A label never ends in '.', so "_:b1." is the label "b1" followed by a
  // terminator, and "_:a.b" keeps its dot.
  const size_t start = *pos + 2;
  size_t end = start;
  while (end < in.size() && IsLabelByte(in[end])) ++end;
  while (end > start && in[end - 1] == '.') --end;
  if (end == start) return ScanError("empty blank node label", *pos);
  *pos = end;
  return in.substr(start, end - start);
}

Result<std::string> ScanQuotedString(std::string_view in, size_t* pos) {
  if (!At(in, *pos, '"') && !At(in, *pos, '\'')) {
    return ScanError("expected string", *pos);
  }
  const char quote = in[*pos];
  size_t end = *pos + 1;
  while (end < in.size() && in[end] != quote) end += in[end] == '\\' ? 2 : 1;
  if (end >= in.size()) return ScanError("unterminated string", *pos);
  LODVIZ_ASSIGN_OR_RETURN(
      std::string value,
      UnescapeNTriplesString(in.substr(*pos + 1, end - *pos - 1)));
  *pos = end + 1;
  return value;
}

Result<std::string_view> ScanLangTag(std::string_view in, size_t* pos) {
  if (!At(in, *pos, '@')) return ScanError("expected language tag", *pos);
  const size_t start = *pos + 1;
  size_t end = start;
  while (end < in.size() && (IsAlnum(in[end]) || in[end] == '-')) ++end;
  if (end == start) return ScanError("empty language tag", *pos);
  *pos = end;
  return in.substr(start, end - start);
}

namespace {

constexpr int kDaysPerMonth[] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};

bool IsLeap(int64_t y) {
  return (y % 4 == 0 && y % 100 != 0) || y % 400 == 0;
}

/// Days from 1970-01-01 to y-m-d (proleptic Gregorian); no validation.
int64_t DaysFromCivil(int64_t y, int m, int d) {
  y -= m <= 2;
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const int64_t yoe = y - era * 400;
  const int64_t doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  const int64_t doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + doe - 719468;
}

/// Inverse of DaysFromCivil.
void CivilFromDays(int64_t z, int64_t* y, int* m, int* d) {
  z += 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const int64_t doe = z - era * 146097;
  const int64_t yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t yr = yoe + era * 400;
  const int64_t doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const int64_t mp = (5 * doy + 2) / 153;
  *d = static_cast<int>(doy - (153 * mp + 2) / 5 + 1);
  *m = static_cast<int>(mp + (mp < 10 ? 3 : -9));
  *y = yr + (*m <= 2);
}

bool ParseFixedInt(std::string_view s, size_t pos, size_t len, int64_t* out) {
  if (pos + len > s.size()) return false;
  int64_t v = 0;
  for (size_t i = pos; i < pos + len; ++i) {
    if (!std::isdigit(static_cast<unsigned char>(s[i]))) return false;
    v = v * 10 + (s[i] - '0');
  }
  *out = v;
  return true;
}

}  // namespace

Result<int64_t> ParseDateTime(std::string_view s) {
  // Accepted: YYYY-MM-DD, YYYY-MM-DDThh:mm:ss, optional trailing 'Z'.
  int64_t year = 0, month = 0, day = 0;
  if (!ParseFixedInt(s, 0, 4, &year) || s.size() < 10 || s[4] != '-' ||
      !ParseFixedInt(s, 5, 2, &month) || s[7] != '-' ||
      !ParseFixedInt(s, 8, 2, &day)) {
    return Status::ParseError("bad date: '" + std::string(s) + "'");
  }
  if (month < 1 || month > 12) {
    return Status::ParseError("bad month in '" + std::string(s) + "'");
  }
  int max_day = kDaysPerMonth[month - 1] + (month == 2 && IsLeap(year) ? 1 : 0);
  if (day < 1 || day > max_day) {
    return Status::ParseError("bad day in '" + std::string(s) + "'");
  }
  int64_t seconds =
      DaysFromCivil(year, static_cast<int>(month), static_cast<int>(day)) *
      86400;
  if (s.size() > 10) {
    if (s[10] != 'T' || s.size() < 19) {
      return Status::ParseError("bad time in '" + std::string(s) + "'");
    }
    int64_t hh = 0, mm = 0, ss = 0;
    if (!ParseFixedInt(s, 11, 2, &hh) || s[13] != ':' ||
        !ParseFixedInt(s, 14, 2, &mm) || s[16] != ':' ||
        !ParseFixedInt(s, 17, 2, &ss)) {
      return Status::ParseError("bad time in '" + std::string(s) + "'");
    }
    if (hh > 23 || mm > 59 || ss > 60) {
      return Status::ParseError("time out of range in '" + std::string(s) + "'");
    }
    seconds += hh * 3600 + mm * 60 + ss;
    size_t rest = 19;
    if (rest < s.size() && s[rest] == '.') {
      ++rest;
      while (rest < s.size() &&
             std::isdigit(static_cast<unsigned char>(s[rest]))) {
        ++rest;
      }
    }
    if (rest < s.size() && s[rest] == 'Z') ++rest;
    if (rest != s.size()) {
      return Status::ParseError("trailing chars in '" + std::string(s) + "'");
    }
  }
  return seconds;
}

std::string FormatDateTime(int64_t epoch_seconds) {
  int64_t days = epoch_seconds / 86400;
  int64_t rem = epoch_seconds % 86400;
  if (rem < 0) {
    rem += 86400;
    days -= 1;
  }
  int64_t y;
  int m, d;
  CivilFromDays(days, &y, &m, &d);
  char buf[40];
  std::snprintf(buf, sizeof(buf),
                "%04" PRId64 "-%02d-%02dT%02d:%02d:%02dZ", y, m, d,
                static_cast<int>(rem / 3600), static_cast<int>((rem / 60) % 60),
                static_cast<int>(rem % 60));
  return buf;
}

}  // namespace lodviz::rdf
