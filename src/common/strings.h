#ifndef ESHARP_COMMON_STRINGS_H_
#define ESHARP_COMMON_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace esharp {

/// \brief ASCII lower-cases a string (the paper normalizes queries and tweet
/// text by lower-casing only — no stemming, no spell correction, §4.1/§5).
std::string ToLowerAscii(std::string_view s);

/// \brief Splits on any run of whitespace; no empty tokens are produced.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// \brief Splits on a single-character delimiter; empty fields are kept.
std::vector<std::string> SplitChar(std::string_view s, char delim);

/// \brief Joins pieces with a separator.
std::string Join(const std::vector<std::string>& pieces, std::string_view sep);

/// \brief Removes leading/trailing ASCII whitespace.
std::string_view StripAscii(std::string_view s);

/// \brief Returns true iff `text` contains every token of `tokens` as a
/// whole word, after lower-casing. This is the paper's tweet/query match
/// predicate (§3: "a tweet matches a query if it contains all of its terms
/// after lower-casing").
bool ContainsAllTokens(std::string_view text,
                       const std::vector<std::string>& tokens);

/// \brief Returns true iff `hay` contains `needle` as a contiguous token
/// subsequence (exact phrase after lower-casing) — the community matching
/// predicate of §5 ("contains the query terms exactly and in order").
bool ContainsPhrase(const std::vector<std::string>& hay,
                    const std::vector<std::string>& needle);

/// \brief Levenshtein edit distance (for tests of the variant generator).
size_t EditDistance(std::string_view a, std::string_view b);

/// \brief Escapes a string for a JSON string literal: quote, backslash,
/// \n, \t and \r get their short escapes, other bytes below 0x20 become
/// \u00XX, and every other byte (UTF-8 included) passes through.
std::string JsonEscape(std::string_view s);

/// \brief Escapes a string for HTML text and attribute values: &, <, > and
/// the double quote.
std::string HtmlEscape(std::string_view s);

/// \brief Printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace esharp

#endif  // ESHARP_COMMON_STRINGS_H_
