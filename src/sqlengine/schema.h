#ifndef ESHARP_SQLENGINE_SCHEMA_H_
#define ESHARP_SQLENGINE_SCHEMA_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "sqlengine/value.h"

namespace esharp::sql {

/// \brief A named, typed column.
struct Column {
  std::string name;
  DataType type = DataType::kNull;
};

/// \brief Ordered list of columns describing a table's rows.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> columns) : columns_(std::move(columns)) {}

  /// Number of columns.
  size_t num_columns() const { return columns_.size(); }

  /// Column at ordinal i.
  const Column& column(size_t i) const { return columns_[i]; }

  const std::vector<Column>& columns() const { return columns_; }

  /// Index of the column with the given name, or error if absent/duplicated
  /// lookups are by the first match (join outputs may carry prefixed names).
  Result<size_t> IndexOf(const std::string& name) const;

  /// True iff a column with the given name exists.
  bool Contains(const std::string& name) const;

  /// SQL name resolution: the column named exactly `name`, otherwise the
  /// UNIQUE column whose name ends in ".name" (a bare reference into an
  /// aliased table). Ambiguity is InvalidArgument, no match NotFound.
  Result<size_t> Resolve(const std::string& name) const;

  /// Appends a column.
  void AddColumn(Column c) { columns_.push_back(std::move(c)); }

  /// Concatenates two schemas, prefixing clashing right-side names with
  /// `rightPrefix` (used by joins).
  static Schema Concat(const Schema& left, const Schema& right,
                       const std::string& right_prefix);

  /// "name:TYPE, name:TYPE, ..." rendering.
  std::string ToString() const;

  bool operator==(const Schema& other) const;

 private:
  std::vector<Column> columns_;
};

}  // namespace esharp::sql

#endif  // ESHARP_SQLENGINE_SCHEMA_H_
