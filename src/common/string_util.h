#ifndef DAAKG_COMMON_STRING_UTIL_H_
#define DAAKG_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace daakg {

// Splits `s` on `delim`, keeping empty fields.
std::vector<std::string> StrSplit(std::string_view s, char delim);

// Removes leading and trailing ASCII whitespace.
std::string_view StrTrim(std::string_view s);

// printf-style formatting into a std::string.
std::string StrFormat(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

// Escapes `s` for embedding in a JSON string literal (quotes, backslashes,
// control characters). Shared by the metrics and trace JSON exporters.
std::string JsonEscape(std::string_view s);

// Formats `v` as a JSON number. JSON has no Infinity/NaN literals, so
// non-finite values serialize as 0 rather than corrupting the document.
std::string JsonNumber(double v);

// Character-level n-gram Jaccard similarity in [0, 1]; used by lexical
// baselines. n defaults to 2 (bigrams). Strings shorter than n are compared
// for equality.
double NgramJaccard(std::string_view a, std::string_view b, int n = 2);

// Levenshtein edit distance (dynamic programming, O(|a||b|)).
size_t EditDistance(std::string_view a, std::string_view b);

// Normalized edit similarity: 1 - dist / max(|a|, |b|); 1.0 for two empty
// strings.
double EditSimilarity(std::string_view a, std::string_view b);

}  // namespace daakg

#endif  // DAAKG_COMMON_STRING_UTIL_H_
