#include "cli/render.hpp"

#include <charconv>
#include <ostream>

#include "common/table.hpp"

namespace easydram::cli {

const Json* resolve(const Json& root, std::string_view path) {
  const Json* j = &root;
  while (j != nullptr && !path.empty()) {
    const std::size_t dot = path.find('.');
    const std::string_view key = path.substr(0, dot);
    path = dot == std::string_view::npos ? "" : path.substr(dot + 1);
    if (j->is_array()) {
      std::size_t i = 0;
      const auto [end, ec] = std::from_chars(key.data(), key.data() + key.size(), i);
      j = ec == std::errc{} && end == key.data() + key.size() ? j->at(i) : nullptr;
    } else {
      j = j->find(key);
    }
  }
  return j;
}

std::vector<std::string> print_table(std::ostream& os, const TableSpec& spec,
                                     const Json& payload) {
  std::vector<std::string> missing;
  const Json* rows = resolve(payload, spec.rows);
  if (rows == nullptr || !(rows->is_array() || rows->is_object())) {
    missing.emplace_back(spec.rows);
    return missing;
  }

  TextTable t;
  std::vector<std::string> header;
  for (const Column& c : spec.columns) header.emplace_back(c.header);
  t.set_header(std::move(header));
  auto add_row = [&](const Json& row) {
    std::vector<std::string> cells;
    for (const Column& c : spec.columns) {
      const Json* v = resolve(row, c.path);
      if (v == nullptr || v->is_array() || v->is_object()) {
        missing.push_back(std::string(spec.rows) + ":" + std::string(c.path));
        cells.emplace_back("-");
      } else {
        cells.push_back(v->text(c.digits));
      }
    }
    t.add_row(std::move(cells));
  };
  if (rows->is_object()) {
    add_row(*rows);
  } else {
    for (std::size_t i = 0; i < rows->size(); ++i) add_row(*rows->at(i));
  }

  if (!spec.title.empty()) os << spec.title << '\n';
  t.print(os);
  os << '\n';
  return missing;
}

}  // namespace easydram::cli
