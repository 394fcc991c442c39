#include "cli/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <sstream>

#include "common/contracts.hpp"
#include "common/table.hpp"

namespace easydram::cli {

namespace {

void write_escaped(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void write_double(std::ostream& os, double d) {
  // Non-finite values are not representable in JSON; the stats layer
  // upstream rejects them, so reaching here means a scenario leaked one.
  if (!std::isfinite(d)) {
    os << "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  // Round-trippable shortest-ish form: prefer %.15g when it round-trips.
  char short_buf[32];
  std::snprintf(short_buf, sizeof short_buf, "%.15g", d);
  if (std::strtod(short_buf, nullptr) == d) {
    os << short_buf;
  } else {
    os << buf;
  }
}

void pad(std::ostream& os, int depth) {
  for (int i = 0; i < 2 * depth; ++i) os << ' ';
}

}  // namespace

Json& Json::operator[](const std::string& key) {
  if (std::holds_alternative<std::nullptr_t>(value_)) value_ = Object{};
  EASYDRAM_EXPECTS(is_object());
  auto& obj = std::get<Object>(value_);
  for (auto& [k, v] : obj) {
    if (k == key) return v;
  }
  obj.emplace_back(key, Json());
  return obj.back().second;
}

void Json::push_back(Json v) {
  if (std::holds_alternative<std::nullptr_t>(value_)) value_ = Array{};
  EASYDRAM_EXPECTS(is_array());
  std::get<Array>(value_).push_back(std::move(v));
}

std::size_t Json::size() const {
  if (is_array()) return std::get<Array>(value_).size();
  if (is_object()) return std::get<Object>(value_).size();
  return 0;
}

const Json* Json::find(std::string_view key) const {
  const Object* obj = std::get_if<Object>(&value_);
  if (obj == nullptr) return nullptr;
  for (const auto& [k, v] : *obj) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json* Json::at(std::size_t i) const {
  const Array* arr = std::get_if<Array>(&value_);
  return arr != nullptr && i < arr->size() ? &(*arr)[i] : nullptr;
}

std::string Json::text(int digits) const {
  EASYDRAM_EXPECTS(!is_array() && !is_object());
  if (const bool* b = std::get_if<bool>(&value_)) return *b ? "true" : "false";
  if (const double* d = std::get_if<double>(&value_)) return fmt_fixed(*d, digits);
  if (const std::int64_t* i = std::get_if<std::int64_t>(&value_)) {
    return std::to_string(*i);
  }
  if (const std::uint64_t* u = std::get_if<std::uint64_t>(&value_)) {
    return std::to_string(*u);
  }
  if (const std::string* s = std::get_if<std::string>(&value_)) return *s;
  return "null";
}

void Json::dump(std::ostream& os, int indent) const {
  if (std::holds_alternative<std::nullptr_t>(value_)) {
    os << "null";
  } else if (const bool* b = std::get_if<bool>(&value_)) {
    os << (*b ? "true" : "false");
  } else if (const double* d = std::get_if<double>(&value_)) {
    write_double(os, *d);
  } else if (const std::int64_t* i = std::get_if<std::int64_t>(&value_)) {
    os << *i;
  } else if (const std::uint64_t* u = std::get_if<std::uint64_t>(&value_)) {
    os << *u;
  } else if (const std::string* s = std::get_if<std::string>(&value_)) {
    write_escaped(os, *s);
  } else if (const Array* a = std::get_if<Array>(&value_)) {
    if (a->empty()) {
      os << "[]";
      return;
    }
    os << "[\n";
    for (std::size_t k = 0; k < a->size(); ++k) {
      pad(os, indent + 1);
      (*a)[k].dump(os, indent + 1);
      os << (k + 1 < a->size() ? ",\n" : "\n");
    }
    pad(os, indent);
    os << ']';
  } else if (const Object* o = std::get_if<Object>(&value_)) {
    if (o->empty()) {
      os << "{}";
      return;
    }
    os << "{\n";
    for (std::size_t k = 0; k < o->size(); ++k) {
      pad(os, indent + 1);
      write_escaped(os, (*o)[k].first);
      os << ": ";
      (*o)[k].second.dump(os, indent + 1);
      os << (k + 1 < o->size() ? ",\n" : "\n");
    }
    pad(os, indent);
    os << '}';
  }
}

std::string Json::dump_string() const {
  std::ostringstream os;
  dump(os);
  os << '\n';
  return os.str();
}

}  // namespace easydram::cli
