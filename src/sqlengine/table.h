#ifndef ESHARP_SQLENGINE_TABLE_H_
#define ESHARP_SQLENGINE_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "sqlengine/column.h"
#include "sqlengine/schema.h"
#include "sqlengine/value.h"

namespace esharp::sql {

/// \brief In-memory relation: a copyable, read-only handle on one immutable
/// ColumnTable payload; its schema is the payload's schema.
///
/// The engine is batch-oriented (table-at-a-time operators), matching the
/// map-reduce relational execution model the paper targets: each operator
/// reads whole relations and materializes a new output, never editing its
/// inputs. Copies share the payload, and any number of threads may read
/// one Table at once.
///
/// Rows enter through one checked door, FromRows (TableBuilder collects
/// rows for it), and leave only as copies through row() and rows().
/// Operators hand columns() straight to the kernels (columnar.h) and wrap
/// their results with Table(ColumnTable).
class Table {
 public:
  /// The empty zero-column relation.
  Table() : Table(ColumnTable()) {}

  /// Wraps a kernel result without copying its columns.
  explicit Table(ColumnTable columns)
      : columns_(std::make_shared<const ColumnTable>(std::move(columns))) {}

  /// Builds the columnar payload of `rows`. A column's type is the type of
  /// its non-null cells (NULL when every cell is); the declared schema
  /// types are metadata. InvalidArgument when a row's arity differs from
  /// the schema's, or when a column's non-null cells mix types
  /// ("column 'v' mixes INT64 and STRING").
  static Result<Table> FromRows(Schema schema, std::vector<Row> rows);

  const Schema& schema() const { return columns_->schema(); }
  size_t num_rows() const { return columns_->num_rows(); }
  size_t num_columns() const { return schema().num_columns(); }

  /// The payload every operator executes on.
  const ColumnTable& columns() const { return *columns_; }

  /// A copy of row `i`.
  Row row(size_t i) const;

  /// A copy of every row, in order.
  std::vector<Row> rows() const { return columns_->MaterializeRows(); }

  /// Approximate in-memory footprint in bytes (Value::SizeBytes summed over
  /// the cells).
  uint64_t SizeBytes() const { return columns_->SizeBytes(); }

  /// Renders at most `max_rows` rows as an aligned text table (debugging,
  /// example programs).
  std::string ToString(size_t max_rows = 20) const;

 private:
  std::shared_ptr<const ColumnTable> columns_;
};

/// \brief Row collector for Table::FromRows, used by tests and generators.
///
///   TableBuilder b({{"query", DataType::kString}, {"count", DataType::kInt64}});
///   b.AddRow({Value::String("49ers"), Value::Int(12)});
///   ESHARP_ASSIGN_OR_RETURN(Table t, b.Build());
class TableBuilder {
 public:
  explicit TableBuilder(std::vector<Column> columns)
      : schema_(std::move(columns)) {}

  TableBuilder& AddRow(Row row) {
    rows_.push_back(std::move(row));
    return *this;
  }

  /// Finalizes the table; the errors are FromRows's.
  Result<Table> Build() {
    return Table::FromRows(std::move(schema_), std::move(rows_));
  }

 private:
  Schema schema_;
  std::vector<Row> rows_;
};

}  // namespace esharp::sql

#endif  // ESHARP_SQLENGINE_TABLE_H_
