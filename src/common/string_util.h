#ifndef LODVIZ_COMMON_STRING_UTIL_H_
#define LODVIZ_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace lodviz {

/// Strips ASCII whitespace from both ends.
std::string_view TrimWhitespace(std::string_view s);

/// Lower-cases ASCII characters.
std::string AsciiToLower(std::string_view s);

/// Splits text into lower-case alphanumeric tokens (keyword-search
/// tokenizer; everything else is a separator).
std::vector<std::string> TokenizeWords(std::string_view text);

/// Renders a double with `digits` significant fraction digits, trimming
/// trailing zeros ("12.5", "3", "0.25").
std::string FormatDouble(double value, int digits = 4);

/// Renders counts with thousands separators ("1,234,567").
std::string FormatCount(uint64_t n);

}  // namespace lodviz

#endif  // LODVIZ_COMMON_STRING_UTIL_H_
