#include "util/strings.hpp"

#include <charconv>
#include <stdexcept>

namespace nw {

std::string_view trim(std::string_view s) noexcept {
  const auto first = s.find_first_not_of(" \t\r\n");
  if (first == std::string_view::npos) return {};
  const auto last = s.find_last_not_of(" \t\r\n");
  return s.substr(first, last - first + 1);
}

std::vector<std::string_view> split(std::string_view s, std::string_view delims) {
  std::vector<std::string_view> out;
  split_into(s, out, delims);
  return out;
}

void split_into(std::string_view s, std::vector<std::string_view>& out,
                std::string_view delims) {
  out.clear();
  std::size_t pos = 0;
  while (pos < s.size()) {
    const auto start = s.find_first_not_of(delims, pos);
    if (start == std::string_view::npos) break;
    auto end = s.find_first_of(delims, start);
    if (end == std::string_view::npos) end = s.size();
    out.push_back(s.substr(start, end - start));
    pos = end;
  }
}

bool starts_with(std::string_view s, std::string_view prefix) noexcept {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

double parse_double(std::string_view s) {
  double v = 0.0;
  const auto* begin = s.data();
  const auto* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(begin, end, v);
  if (ec != std::errc{} || ptr != end) {
    throw std::invalid_argument("parse_double: bad number '" + std::string(s) + "'");
  }
  return v;
}

unsigned long parse_uint(std::string_view s) {
  unsigned long v = 0;
  const auto* begin = s.data();
  const auto* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(begin, end, v);
  if (ec != std::errc{} || ptr != end) {
    throw std::invalid_argument("parse_uint: bad integer '" + std::string(s) + "'");
  }
  return v;
}

}  // namespace nw
