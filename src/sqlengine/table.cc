#include "sqlengine/table.h"

#include <algorithm>

#include "common/strings.h"

namespace esharp::sql {

Result<Table> Table::FromRows(Schema schema, std::vector<Row> rows) {
  const size_t n = rows.size();
  const size_t width = schema.num_columns();
  for (size_t r = 0; r < n; ++r) {
    if (rows[r].size() != width) {
      return Status::InvalidArgument("row ", r, " arity ", rows[r].size(),
                                     " does not match schema arity ", width);
    }
  }
  ColumnTable out(std::move(schema));
  for (size_t c = 0; c < width; ++c) {
    // Column type = the unique non-null cell type (kNull if all cells are).
    DataType type = DataType::kNull;
    for (const Row& row : rows) {
      DataType cell = row[c].type();
      if (cell == DataType::kNull) continue;
      if (type == DataType::kNull) {
        type = cell;
      } else if (type != cell) {
        return MixedTypeError("column '" + out.schema().column(c).name + "'",
                              type, cell);
      }
    }
    ColumnVec col;
    col.type = type;
    col.null_length = n;
    col.Reserve(n);
    std::shared_ptr<StringDict> dict;
    if (type == DataType::kString) {
      dict = std::make_shared<StringDict>();
      col.dict = dict;
    }
    for (size_t r = 0; r < n; ++r) {
      const Value& v = rows[r][c];
      const bool is_null = v.is_null();
      switch (type) {
        case DataType::kBool:
          col.bools.push_back(is_null ? 0 : (v.bool_value() ? 1 : 0));
          break;
        case DataType::kInt64:
          col.ints.push_back(is_null ? 0 : v.int_value());
          break;
        case DataType::kDouble:
          col.doubles.push_back(is_null ? 0.0 : v.double_value());
          break;
        case DataType::kString:
          col.str_ids.push_back(is_null ? 0 : dict->Intern(v.string_value()));
          break;
        case DataType::kNull:
          break;
      }
      if (is_null && type != DataType::kNull) col.nulls.SetNull(r, n);
    }
    if (type == DataType::kString && dict->size() == 0) {
      // All-null string column can't leave id 0 dangling on null slots.
      dict->Intern("");
    }
    out.AddColumn(std::move(col));
  }
  // Zero-column relations keep their cardinality.
  out.set_num_rows(n);
  return Table(std::move(out));
}

Row Table::row(size_t i) const {
  Row out;
  out.reserve(num_columns());
  for (size_t c = 0; c < columns_->num_columns(); ++c) {
    out.push_back(columns_->col(c).ValueAt(i));
  }
  return out;
}

std::string Table::ToString(size_t max_rows) const {
  const Schema& schema = this->schema();
  // Compute column widths over the rendered prefix.
  size_t shown = std::min(max_rows, num_rows());
  std::vector<size_t> widths(schema.num_columns());
  std::vector<std::vector<std::string>> cells(shown);
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    widths[c] = schema.column(c).name.size();
  }
  for (size_t r = 0; r < shown; ++r) {
    const Row values = row(r);
    cells[r].resize(schema.num_columns());
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      cells[r][c] = values[c].ToString();
      widths[c] = std::max(widths[c], cells[r][c].size());
    }
  }
  std::string out;
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    out += StrFormat("%-*s  ", static_cast<int>(widths[c]),
                     schema.column(c).name.c_str());
  }
  out += "\n";
  for (size_t r = 0; r < shown; ++r) {
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      out += StrFormat("%-*s  ", static_cast<int>(widths[c]),
                       cells[r][c].c_str());
    }
    out += "\n";
  }
  if (shown < num_rows()) {
    out += StrFormat("... (%zu more rows)\n", num_rows() - shown);
  }
  return out;
}

}  // namespace esharp::sql
