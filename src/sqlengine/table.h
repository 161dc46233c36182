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

/// \brief One tuple; values are positionally aligned with a Schema.
using Row = std::vector<Value>;

/// \brief In-memory relation: a Schema plus rows, with an optional columnar
/// payload.
///
/// The engine is batch-oriented (table-at-a-time operators), matching the
/// map-reduce relational execution model the paper targets: each operator
/// materializes its output, and the parallel executor splits tables into
/// hash partitions.
///
/// A Table can carry its data in either or both of two representations:
/// the row store (`rows_`), which row building and reading use, and a shared
/// immutable ColumnTable payload, which every operator executes on.
/// Operator outputs are wrapped via FromColumnar() without materializing
/// rows; the row representation is then built lazily on first row access.
/// Conversely EnsureColumnar() converts (and caches) the columnar form of a
/// row table. Lazy materialization and conversion are
/// NOT thread-safe: they must happen on the coordinating thread, never from
/// partition workers (workers operate on the immutable ColumnTable).
class Table {
 public:
  Table() = default;
  explicit Table(Schema schema) : schema_(std::move(schema)) {}
  Table(Schema schema, std::vector<Row> rows)
      : schema_(std::move(schema)), rows_(std::move(rows)) {}

  /// Wraps a columnar result without materializing rows. The payload is
  /// shared (copy-free) and must not be mutated afterwards.
  static Table FromColumnar(std::shared_ptr<const ColumnTable> columnar);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const {
    return rows_valid_ ? rows_.size() : columnar_->num_rows();
  }
  size_t num_columns() const { return schema_.num_columns(); }

  const Row& row(size_t i) const {
    EnsureRows();
    return rows_[i];
  }
  Row& mutable_row(size_t i) {
    EnsureRows();
    InvalidateDerived();
    return rows_[i];
  }
  const std::vector<Row>& rows() const {
    EnsureRows();
    return rows_;
  }
  std::vector<Row>& mutable_rows() {
    EnsureRows();
    InvalidateDerived();
    return rows_;
  }

  /// Appends a row after checking arity (type checking is left to operators;
  /// generators construct well-typed rows by design).
  Status AppendRow(Row row);

  /// Appends without arity checking (hot path for operator outputs). Keeps
  /// the cached SizeBytes total current instead of invalidating it.
  void AppendRowUnchecked(Row row) {
    EnsureRows();
    columnar_.reset();
    if (size_cache_valid_) {
      for (const Value& v : row) size_bytes_cache_ += v.SizeBytes();
    }
    rows_.push_back(std::move(row));
  }

  /// Reserves capacity.
  void Reserve(size_t n) { rows_.reserve(n); }

  /// Value at (row, column-name); error if the column is missing.
  Result<Value> GetValue(size_t row_index, const std::string& column) const;

  /// Approximate in-memory footprint in bytes (sum of value sizes). Cached;
  /// appends maintain the total incrementally, mutations invalidate it.
  uint64_t SizeBytes() const;

  /// Returns (converting and caching on first use) the columnar form every
  /// operator executes on. InvalidArgument when a column mixes non-null
  /// cell types. Coordinator-only.
  Result<std::shared_ptr<const ColumnTable>> EnsureColumnar() const;

  /// The cached columnar payload, or null if none has been attached/built.
  const std::shared_ptr<const ColumnTable>& columnar() const {
    return columnar_;
  }

  /// Renders at most `max_rows` rows as an aligned text table (debugging,
  /// example programs).
  std::string ToString(size_t max_rows = 20) const;

  /// Sorts rows lexicographically by all columns — canonical form used by
  /// tests to compare results regardless of operator output order.
  void SortLexicographic();

 private:
  /// Materializes rows from the columnar payload (coordinator-only).
  void EnsureRows() const {
    if (!rows_valid_) MaterializeFromColumnar();
  }
  void MaterializeFromColumnar() const;
  /// Row mutation drops the cached columnar payload and size total.
  void InvalidateDerived() {
    columnar_.reset();
    size_cache_valid_ = false;
  }

  Schema schema_;
  mutable std::vector<Row> rows_;
  /// Shared immutable columnar payload; see class comment.
  mutable std::shared_ptr<const ColumnTable> columnar_;
  /// False while rows_ has not yet been materialized from columnar_.
  mutable bool rows_valid_ = true;
  mutable uint64_t size_bytes_cache_ = 0;
  mutable bool size_cache_valid_ = false;
};

/// \brief Convenience builder used by tests and generators.
///
///   TableBuilder b({{"query", DataType::kString}, {"count", DataType::kInt64}});
///   b.AddRow({Value::String("49ers"), Value::Int(12)});
class TableBuilder {
 public:
  explicit TableBuilder(std::vector<Column> columns)
      : table_(Schema(std::move(columns))) {}

  /// Adds a row; aborts on arity mismatch (builder misuse is a programming
  /// error, not a runtime condition).
  TableBuilder& AddRow(Row row);

  /// Finalizes the table.
  Table Build() { return std::move(table_); }

 private:
  Table table_;
};

}  // namespace esharp::sql

#endif  // ESHARP_SQLENGINE_TABLE_H_
