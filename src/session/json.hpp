// Minimal JSON value + strict parser/serializer: the one JSON writer.
//
// The JSONL request/response protocol (session/protocol.hpp) needs to
// *read* arbitrary client JSON; every machine-readable document the
// program writes — protocol replies, --stats-json files, bench records
// (session/stats_json.hpp) — is built as a Json value and rendered by
// dump(), so one number rule and one string escaper (obs::json_escape)
// hold everywhere. This is a deliberately small, strict RFC 8259 subset
// implementation: UTF-8 pass-through strings (\uXXXX escapes decoded),
// doubles for every number, input depth and size limits so hostile lines
// cannot blow the stack or the heap. Serialization round-trips doubles
// (17 significant digits) — the protocol's bit-identity guarantees
// survive a trip through a client.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace nw::session {

/// A parsed JSON value. Objects keep insertion order (serialization is
/// deterministic and mirrors the producing code, like obs' writers).
class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;                                   // null
  /*implicit*/ Json(bool b) : kind_(Kind::kBool), bool_(b) {}          // NOLINT
  /*implicit*/ Json(double v) : kind_(Kind::kNumber), num_(v) {}       // NOLINT
  /*implicit*/ Json(int v) : Json(static_cast<double>(v)) {}           // NOLINT
  /*implicit*/ Json(std::size_t v) : Json(static_cast<double>(v)) {}   // NOLINT
  /*implicit*/ Json(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}  // NOLINT
  /*implicit*/ Json(const char* s) : Json(std::string(s)) {}           // NOLINT

  [[nodiscard]] static Json array() {
    Json j;
    j.kind_ = Kind::kArray;
    return j;
  }
  /// An object holding `members` in order (a later duplicate key
  /// overwrites, as set() does).
  [[nodiscard]] static Json object(
      std::initializer_list<std::pair<std::string, Json>> members = {});

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_number() const noexcept { return kind_ == Kind::kNumber; }
  [[nodiscard]] bool is_string() const noexcept { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const noexcept { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const noexcept { return kind_ == Kind::kObject; }

  [[nodiscard]] bool as_bool() const { return bool_; }
  [[nodiscard]] double as_number() const { return num_; }
  [[nodiscard]] const std::string& as_string() const { return str_; }
  [[nodiscard]] const std::vector<Json>& items() const { return arr_; }
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& members() const {
    return obj_;
  }

  /// Array append / object set (creates or overwrites the key).
  void push_back(Json v);
  void set(std::string key, Json v);

  /// Object member lookup; nullptr when absent (or not an object).
  [[nodiscard]] const Json* find(std::string_view key) const noexcept;

  /// Compact single-line rendering. Strings are escaped by obs::json_escape.
  /// Numbers: an integral value below 2^53 prints as an integer, any other
  /// finite value with 17 significant digits, a non-finite value as null.
  [[nodiscard]] std::string dump() const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;
};

/// Strict parse of exactly one JSON document (trailing non-whitespace is an
/// error). Enforces a nesting-depth cap so deeply nested hostile input
/// cannot overflow the stack. Returns std::nullopt and fills `error` (when
/// given) on any failure — never throws on malformed input.
[[nodiscard]] std::optional<Json> json_parse(std::string_view text,
                                             std::string* error = nullptr,
                                             std::size_t max_depth = 64);

}  // namespace nw::session
