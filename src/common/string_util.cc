#include "common/string_util.h"

#include <cctype>
#include <cstdio>

namespace lodviz {

std::string_view TrimWhitespace(std::string_view s) {
  size_t b = 0;
  while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  size_t e = s.size();
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string AsciiToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::vector<std::string> TokenizeWords(std::string_view text) {
  std::vector<std::string> tokens;
  std::string current;
  for (char ch : text) {
    if (std::isalnum(static_cast<unsigned char>(ch))) {
      current += static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
    } else if (!current.empty()) {
      tokens.push_back(std::move(current));
      current.clear();
    }
  }
  if (!current.empty()) tokens.push_back(std::move(current));
  return tokens;
}

std::string FormatDouble(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  std::string s(buf);
  if (s.find('.') != std::string::npos) {
    size_t last = s.find_last_not_of('0');
    if (s[last] == '.') --last;
    s.erase(last + 1);
  }
  return s;
}

std::string FormatCount(uint64_t n) {
  std::string digits = std::to_string(n);
  std::string out;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count > 0 && count % 3 == 0) out += ',';
    out += *it;
    ++count;
  }
  return std::string(out.rbegin(), out.rend());
}

}  // namespace lodviz
