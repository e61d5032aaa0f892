#include "session/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>

#include "obs/tracer.hpp"  // json_escape

namespace nw::session {

Json Json::object(std::initializer_list<std::pair<std::string, Json>> members) {
  Json j;
  j.kind_ = Kind::kObject;
  for (const auto& [k, v] : members) j.set(k, v);
  return j;
}

void Json::push_back(Json v) {
  kind_ = Kind::kArray;
  arr_.push_back(std::move(v));
}

void Json::set(std::string key, Json v) {
  kind_ = Kind::kObject;
  for (auto& [k, existing] : obj_) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  obj_.emplace_back(std::move(key), std::move(v));
}

const Json* Json::find(std::string_view key) const noexcept {
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

void quote(std::string& out, std::string_view s) {
  out.push_back('"');
  out += obs::json_escape(s);
  out.push_back('"');
}

/// The one number rule of every machine-readable document: integral values
/// below 2^53 print as integers, any other finite value with 17 significant
/// digits (round-trips), and a non-finite value as null (JSON has no inf/nan).
void render_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  // Integral values within the exactly-representable range print as
  // integers — ids and counters round-trip without a ".0" or exponent.
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    out += buf;
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.*g", std::numeric_limits<double>::max_digits10, v);
  out += buf;
}

void render(std::string& out, const Json& j) {
  switch (j.kind()) {
    case Json::Kind::kNull: out += "null"; return;
    case Json::Kind::kBool: out += j.as_bool() ? "true" : "false"; return;
    case Json::Kind::kNumber: render_number(out, j.as_number()); return;
    case Json::Kind::kString: quote(out, j.as_string()); return;
    case Json::Kind::kArray: {
      out.push_back('[');
      bool first = true;
      for (const auto& item : j.items()) {
        if (!std::exchange(first, false)) out.push_back(',');
        render(out, item);
      }
      out.push_back(']');
      return;
    }
    case Json::Kind::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [k, v] : j.members()) {
        if (!std::exchange(first, false)) out.push_back(',');
        quote(out, k);
        out.push_back(':');
        render(out, v);
      }
      out.push_back('}');
      return;
    }
  }
}

/// Recursive-descent parser over a bounded string_view. Errors set `err`
/// and unwind via the ok flag (no exceptions for malformed input).
class Parser {
 public:
  Parser(std::string_view text, std::size_t max_depth)
      : s_(text), max_depth_(max_depth) {}

  std::optional<Json> run(std::string* error) {
    Json v;
    if (parse_value(v, 0) && (skip_ws(), pos_ == s_.size())) return v;
    if (ok_) err_ = "trailing characters after JSON value";
    if (error) *error = err_ + " at offset " + std::to_string(pos_);
    return std::nullopt;
  }

 private:
  bool fail(const char* msg) {
    if (ok_) err_ = msg;  // keep the innermost error
    ok_ = false;
    return false;
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return fail("invalid literal");
    pos_ += word.size();
    return true;
  }

  bool parse_value(Json& out, std::size_t depth) {
    if (depth > max_depth_) return fail("nesting too deep");
    skip_ws();
    if (pos_ >= s_.size()) return fail("unexpected end of input");
    switch (s_[pos_]) {
      case 'n': return literal("null") && (out = Json{}, true);
      case 't': return literal("true") && (out = Json{true}, true);
      case 'f': return literal("false") && (out = Json{false}, true);
      case '"': {
        std::string str;
        if (!parse_string(str)) return false;
        out = Json{std::move(str)};
        return true;
      }
      case '[': return parse_array(out, depth);
      case '{': return parse_object(out, depth);
      default: return parse_number(out);
    }
  }

  bool parse_array(Json& out, std::size_t depth) {
    ++pos_;  // '['
    out = Json::array();
    skip_ws();
    if (consume(']')) return true;
    while (true) {
      Json item;
      if (!parse_value(item, depth + 1)) return false;
      out.push_back(std::move(item));
      skip_ws();
      if (consume(']')) return true;
      if (!consume(',')) return fail("expected ',' or ']'");
    }
  }

  bool parse_object(Json& out, std::size_t depth) {
    ++pos_;  // '{'
    out = Json::object();
    skip_ws();
    if (consume('}')) return true;
    while (true) {
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != '"') return fail("expected object key");
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!consume(':')) return fail("expected ':'");
      Json value;
      if (!parse_value(value, depth + 1)) return false;
      out.set(std::move(key), std::move(value));
      skip_ws();
      if (consume('}')) return true;
      if (!consume(',')) return fail("expected ',' or '}'");
    }
  }

  bool parse_string(std::string& out) {
    ++pos_;  // opening quote
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) return fail("control char in string");
      if (c != '\\') {
        out.push_back(c);
        ++pos_;
        continue;
      }
      ++pos_;
      if (pos_ >= s_.size()) return fail("unterminated escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned code = 0;
          if (!parse_hex4(code)) return false;
          append_utf8(out, code);
          break;
        }
        default: return fail("invalid escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_hex4(unsigned& out) {
    if (pos_ + 4 > s_.size()) return fail("truncated \\u escape");
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = s_[pos_ + i];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return fail("invalid \\u escape");
      }
    }
    pos_ += 4;
    out = v;
    return true;
  }

  static void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  bool parse_number(Json& out) {
    const std::size_t start = pos_;
    if (consume('-')) {}
    while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) ++pos_;
    if (consume('.')) {
      while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) ++pos_;
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) ++pos_;
    }
    double v = 0.0;
    const auto [ptr, ec] =
        std::from_chars(s_.data() + start, s_.data() + pos_, v);
    if (ec != std::errc{} || ptr != s_.data() + pos_ || start == pos_) {
      return fail("invalid number");
    }
    out = Json{v};
    return true;
  }

  std::string_view s_;
  std::size_t max_depth_;
  std::size_t pos_ = 0;
  bool ok_ = true;
  std::string err_;
};

}  // namespace

std::string Json::dump() const {
  std::string out;
  render(out, *this);
  return out;
}

std::optional<Json> json_parse(std::string_view text, std::string* error,
                               std::size_t max_depth) {
  return Parser(text, max_depth).run(error);
}

}  // namespace nw::session
