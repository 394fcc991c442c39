#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "cli/json.hpp"

namespace easydram::cli {

/// One column of a verbose table. `path` is a dotted key into a row whose
/// numeric parts index arrays ("streams.0.p95_cycles"); the empty path is
/// the row itself. Doubles print with `digits` decimals, other scalars as
/// they are.
struct Column {
  std::string_view path;
  std::string_view header;
  int digits = 2;
};

/// One verbose table drawn from a payload. `rows` is a dotted path into the
/// payload (empty = the payload itself) naming an array, one table row per
/// element, or an object, which is a single row.
struct TableSpec {
  std::string_view rows;
  std::vector<Column> columns;
  std::string_view title = {};  ///< Printed above the table when set.
};

/// The value at dotted `path` below `root`, or null when a step is missing.
const Json* resolve(const Json& root, std::string_view path);

/// Prints `spec`'s table from `payload`. A cell whose path does not resolve
/// to a scalar prints "-" and is named in the result as "rows:path" (just
/// "rows" when the rows path itself does not resolve), so a caller can
/// require that every column resolved.
std::vector<std::string> print_table(std::ostream& os, const TableSpec& spec,
                                     const Json& payload);

}  // namespace easydram::cli
