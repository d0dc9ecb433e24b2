// Small string helpers shared across modules.

#ifndef EVE_COMMON_STR_UTIL_H_
#define EVE_COMMON_STR_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace eve {

// Joins `parts` with `sep` ("a", "b" -> "a<sep>b").
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

// Splits `s` on the single character `sep`; empty fields are preserved.
std::vector<std::string> Split(std::string_view s, char sep);

// ASCII lower-casing (identifiers and keywords only).
std::string ToLower(std::string_view s);

// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

// Removes leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

// Parses `s` as a decimal integer: one or more ASCII digits and nothing
// else (no sign, no whitespace, no trailing bytes). False, with `*out`
// untouched, when `s` is not such a number or exceeds UINT64_MAX.
bool ParseDecimal(std::string_view s, uint64_t* out);

}  // namespace eve

#endif  // EVE_COMMON_STR_UTIL_H_
