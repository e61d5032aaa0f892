// Minimal string utilities for the SPEF-like and liberty-lite parsers.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace nw {

/// Strip leading/trailing whitespace.
[[nodiscard]] std::string_view trim(std::string_view s) noexcept;

/// Split on any of the given delimiter characters, dropping empty tokens.
[[nodiscard]] std::vector<std::string_view> split(std::string_view s,
                                                  std::string_view delims = " \t");

/// `split` into a caller-owned buffer (cleared first), so a line-by-line
/// reader reuses one allocation instead of building a vector per line.
void split_into(std::string_view s, std::vector<std::string_view>& out,
                std::string_view delims = " \t");

/// Transparent string hash: with `std::equal_to<>` it lets a string-keyed
/// map be searched with a std::string_view (say, a token sliced from a
/// line) without building a std::string for the lookup.
struct StringHash {
  using is_transparent = void;
  [[nodiscard]] std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

/// Name-keyed hash map with std::string_view lookups.
template <class V>
using StringMap = std::unordered_map<std::string, V, StringHash, std::equal_to<>>;

/// True if `s` begins with `prefix`.
[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix) noexcept;

/// Parse a double; throws std::invalid_argument with context on failure.
[[nodiscard]] double parse_double(std::string_view s);

/// Parse a non-negative integer; throws std::invalid_argument on failure.
[[nodiscard]] unsigned long parse_uint(std::string_view s);

}  // namespace nw
