#ifndef ESHARP_SQLENGINE_COLUMN_H_
#define ESHARP_SQLENGINE_COLUMN_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/result.h"
#include "sqlengine/schema.h"
#include "sqlengine/value.h"

namespace esharp::sql {

/// \brief One tuple; values are positionally aligned with a Schema.
using Row = std::vector<Value>;

/// \brief Append-only interned string storage shared by dictionary-encoded
/// columns.
///
/// Interning maps each distinct string to a dense uint32 id and caches its
/// Fnv1a64 hash, so hashing a string column costs one table lookup per row
/// instead of re-hashing the bytes, and equality within one dictionary is an
/// id compare. Only the builder of a column interns into its dictionary;
/// once the column is built, the dictionary is shared read-only across
/// tables via shared_ptr.
class StringDict {
 public:
  /// Returns the id of `s`, interning it on first sight.
  uint32_t Intern(std::string_view s);

  const std::string& at(uint32_t id) const { return strings_[id]; }
  uint64_t hash(uint32_t id) const { return hashes_[id]; }
  size_t size() const { return strings_.size(); }

 private:
  struct SvHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  struct SvEq {
    using is_transparent = void;
    bool operator()(std::string_view a, std::string_view b) const {
      return a == b;
    }
  };
  std::vector<std::string> strings_;
  std::vector<uint64_t> hashes_;
  std::unordered_map<std::string, uint32_t, SvHash, SvEq> index_;
};

/// \brief Validity bitmap: bit i set means row i is NULL. An empty bitmap
/// means "no nulls", so the common all-valid case costs nothing.
class NullBitmap {
 public:
  bool AnyNull() const { return null_count_ > 0; }
  size_t null_count() const { return null_count_; }

  bool IsNull(size_t i) const {
    if (null_count_ == 0) return false;
    size_t w = i >> 6;
    if (w >= words_.size()) return false;  // rows appended after last null
    return (words_[w] >> (i & 63)) & 1;
  }

  /// Marks row i as NULL; `n` is a capacity hint (total rows when known).
  /// Words grow lazily, so incrementally built columns may set bits past n.
  void SetNull(size_t i, size_t n) {
    size_t need = (std::max(i + 1, n) + 63) / 64;
    if (words_.size() < need) words_.resize(need, 0);
    uint64_t& w = words_[i >> 6];
    uint64_t bit = uint64_t{1} << (i & 63);
    if (!(w & bit)) {
      w |= bit;
      ++null_count_;
    }
  }

 private:
  std::vector<uint64_t> words_;
  size_t null_count_ = 0;
};

/// \brief One typed column: exactly one of the payload vectors is populated
/// according to `type`, plus an optional null bitmap (null cells hold a
/// zero/empty payload slot so the vectors stay index-aligned).
///
///   kBool   -> bools (0/1)
///   kInt64  -> ints
///   kDouble -> doubles
///   kString -> str_ids into `dict`
///   kNull   -> no payload; every row is NULL (length tracks the row count)
struct ColumnVec {
  DataType type = DataType::kNull;
  std::vector<uint8_t> bools;
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  std::vector<uint32_t> str_ids;
  std::shared_ptr<const StringDict> dict;
  NullBitmap nulls;
  /// Row count for kNull columns (typed columns use their payload size).
  size_t null_length = 0;

  size_t size() const {
    switch (type) {
      case DataType::kBool: return bools.size();
      case DataType::kInt64: return ints.size();
      case DataType::kDouble: return doubles.size();
      case DataType::kString: return str_ids.size();
      case DataType::kNull: return null_length;
    }
    return 0;
  }

  /// Cell as a Value (materialization / slow paths).
  Value ValueAt(size_t i) const;

  /// Stable cell hash, identical to Value::Hash() of ValueAt(i).
  uint64_t HashAt(size_t i) const;

  /// Reserves payload capacity for `n` rows of this column's type.
  void Reserve(size_t n);

  /// Appends the zero payload slot a NULL cell keeps so the payload vector
  /// stays index-aligned (the caller sets the null bit).
  void PushZeroSlot();
};

/// \brief The cells of `src` at rows `idx`, in order; an index of
/// UINT32_MAX emits NULL (left-outer join padding). The dictionary is
/// shared, not copied.
ColumnVec GatherColumn(const ColumnVec& src, const std::vector<uint32_t>& idx);

/// \brief Builds one typed ColumnVec from a stream of Values — the
/// bridge used by UDF results and aggregate outputs. The first non-null
/// value fixes the column type; a later non-null value of a different type
/// is InvalidArgument naming `what` (a column has one type).
class ColumnBuilder {
 public:
  /// `what` names the column or function in the mixed-type error, e.g.
  /// "UDF least".
  explicit ColumnBuilder(std::string what, size_t expected_rows = 0)
      : what_(std::move(what)), expected_rows_(expected_rows) {}

  Status Append(const Value& v);

  /// Finalizes the column (kNull type when every value was NULL).
  ColumnVec Finish();

 private:
  std::string what_;
  ColumnVec col_;
  std::shared_ptr<StringDict> dict_;  // mutable while building
  size_t rows_ = 0;
  size_t expected_rows_ = 0;
};

/// \brief The error for a column whose non-null cells mix two types:
/// InvalidArgument "<what> mixes <a> and <b>".
Status MixedTypeError(std::string_view what, DataType a, DataType b);

/// \brief Three-way comparison of two cells with exactly Value::Compare
/// semantics (NULL < BOOL < numeric family < STRING; int/double compare
/// numerically) but without constructing Values. Same-dictionary string
/// cells equality-check by id first.
int CompareCells(const ColumnVec& a, size_t i, const ColumnVec& b, size_t j);

/// \brief Column-store relation: a Schema plus one typed ColumnVec per
/// schema column, all of equal length.
///
/// This is the execution format of every operator (columnar.h) and the
/// payload of every Table (table.h): Table::FromRows builds one from rows,
/// MaterializeRows turns it back into rows.
class ColumnTable {
 public:
  ColumnTable() = default;
  explicit ColumnTable(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }
  Schema& mutable_schema() { return schema_; }
  size_t num_columns() const { return cols_.size(); }
  /// Explicit row count, so zero-column relations keep their cardinality.
  size_t num_rows() const { return num_rows_; }
  void set_num_rows(size_t n) { num_rows_ = n; }

  const ColumnVec& col(size_t i) const { return cols_[i]; }
  void AddColumn(ColumnVec c) {
    num_rows_ = c.size();
    cols_.push_back(std::move(c));
  }

  /// Every row, as Values.
  std::vector<Row> MaterializeRows() const;

  /// Approximate logical footprint using the per-cell accounting of
  /// Value::SizeBytes.
  uint64_t SizeBytes() const;

  /// New table with the rows selected by `idx`, in order. An index of
  /// UINT32_MAX emits an all-NULL row (left-outer join padding).
  /// Dictionaries are shared, not copied.
  ColumnTable Gather(const std::vector<uint32_t>& idx) const;

  /// Contiguous row range [begin, begin+count), dictionaries shared.
  ColumnTable Slice(size_t begin, size_t count) const;

 private:
  Schema schema_;
  std::vector<ColumnVec> cols_;
  size_t num_rows_ = 0;
};

/// \brief Per-row combined hash of the selected columns: starting from a
/// fixed seed, HashCombine(h, Value::Hash()) of each key cell in order.
/// Hash partitioning routes row i to hashes[i] % num_partitions.
void HashKeyColumns(const ColumnTable& t, const std::vector<size_t>& key_idx,
                    std::vector<uint64_t>* hashes);

/// \brief Indexes of the non-zero bytes of `flags`, ascending: the
/// selection vector a BOOL column turns into (SIMD compaction).
std::vector<uint32_t> SelectedRows(const std::vector<uint8_t>& flags);

}  // namespace esharp::sql

#endif  // ESHARP_SQLENGINE_COLUMN_H_
