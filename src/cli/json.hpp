#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace easydram::cli {

/// Minimal ordered JSON document builder for the experiment runner's
/// machine-readable summaries. Insertion order of object keys is preserved
/// so emitted files diff cleanly across runs; no parsing is provided (the
/// repository only ever writes JSON). The const accessors let the verbose
/// renderer read a built document back.
class Json {
 public:
  using Array = std::vector<Json>;
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() : value_(nullptr) {}
  Json(bool b) : value_(b) {}  // NOLINT(google-explicit-constructor)
  Json(double d) : value_(d) {}  // NOLINT(google-explicit-constructor)
  Json(std::int64_t i) : value_(i) {}  // NOLINT(google-explicit-constructor)
  Json(int i) : value_(static_cast<std::int64_t>(i)) {}  // NOLINT(google-explicit-constructor)
  /// Kept unsigned, so a seed above INT64_MAX prints as itself.
  Json(std::uint64_t u) : value_(u) {}  // NOLINT(google-explicit-constructor)
  Json(std::string s) : value_(std::move(s)) {}  // NOLINT(google-explicit-constructor)
  Json(std::string_view s) : value_(std::string(s)) {}  // NOLINT(google-explicit-constructor)
  Json(const char* s) : value_(std::string(s)) {}  // NOLINT(google-explicit-constructor)

  static Json object() { return Json(Object{}); }
  static Json array() { return Json(Array{}); }

  bool is_object() const { return std::holds_alternative<Object>(value_); }
  bool is_array() const { return std::holds_alternative<Array>(value_); }

  /// Object access: returns the value for `key`, inserting a null member if
  /// absent. The Json must be (or become) an object.
  Json& operator[](const std::string& key);

  /// Array append. The Json must be (or become) an array.
  void push_back(Json v);

  std::size_t size() const;

  /// Object member `key`, or null when this is not an object or has no
  /// such member.
  const Json* find(std::string_view key) const;

  /// Array element `i`, or null when this is not an array or `i` is out of
  /// range.
  const Json* at(std::size_t i) const;

  /// A scalar as display text: strings verbatim, integers in decimal,
  /// doubles fixed with `digits` decimals, bools as true/false and null as
  /// "null". Arrays and objects have no text form.
  std::string text(int digits) const;

  /// Serializes pretty-printed with 2-space indentation; `indent` is the
  /// nesting depth the value starts at (used by the recursion).
  void dump(std::ostream& os, int indent = 0) const;
  std::string dump_string() const;

 private:
  explicit Json(Object o) : value_(std::move(o)) {}
  explicit Json(Array a) : value_(std::move(a)) {}

  std::variant<std::nullptr_t, bool, double, std::int64_t, std::uint64_t,
               std::string, Array, Object>
      value_;
};

}  // namespace easydram::cli
