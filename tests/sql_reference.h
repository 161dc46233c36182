// A row-at-a-time reference evaluator for the SQL engine's operators: the
// oracle the randomized suites compare the columnar kernels and the
// partitioned executor against.
//
// It works over std::vector<Row> and shares no hashing, grouping or
// partitioning with the engine: joins are nested loops on Value::Compare,
// GROUP BY walks first-seen keys with its own accumulators, sorting is
// std::stable_sort, and each expression is evaluated one row at a time
// through Expr::EvalColumn on a one-row table. Key columns are looked up by
// exact name. Every function keeps the engine's documented semantics: row
// order (first-seen groups, stable sort, left-major joins), NULL equal to
// NULL in keys, ARGMAX/ARGMIN ties to the smaller output, INT64 sums that
// stay INT64 until a non-INT64 input arrives.

#ifndef ESHARP_TESTS_SQL_REFERENCE_H_
#define ESHARP_TESTS_SQL_REFERENCE_H_

#include <algorithm>
#include <string>
#include <vector>

#include "sqlengine/columnar.h"
#include "sqlengine/table.h"

namespace esharp::sql::ref {

/// Evaluates `e` on one row of `schema`.
inline Result<Value> EvalRow(const ExprPtr& e, const Schema& schema,
                             const Row& row) {
  ESHARP_RETURN_NOT_OK(e->Bind(schema));
  ESHARP_ASSIGN_OR_RETURN(Table one, Table::FromRows(schema, {row}));
  ESHARP_ASSIGN_OR_RETURN(ColumnVec v, e->EvalColumn(one.columns()));
  return v.ValueAt(0);
}

inline Result<std::vector<size_t>> KeyIndexes(
    const Schema& schema, const std::vector<std::string>& keys) {
  std::vector<size_t> out;
  for (const std::string& k : keys) {
    ESHARP_ASSIGN_OR_RETURN(size_t i, schema.IndexOf(k));
    out.push_back(i);
  }
  return out;
}

inline bool KeysEqual(const Row& a, const std::vector<size_t>& ai,
                      const Row& b, const std::vector<size_t>& bi) {
  for (size_t k = 0; k < ai.size(); ++k) {
    if (a[ai[k]].Compare(b[bi[k]]) != 0) return false;
  }
  return true;
}

inline Result<Table> Filter(const Table& t, const ExprPtr& pred) {
  std::vector<Row> rows;
  for (const Row& row : t.rows()) {
    ESHARP_ASSIGN_OR_RETURN(Value v, EvalRow(pred, t.schema(), row));
    if (v.type() != DataType::kBool) {
      return Status::InvalidArgument("filter predicate is not BOOL: ",
                                     pred->ToString());
    }
    if (v.bool_value()) rows.push_back(row);
  }
  return Table::FromRows(t.schema(), std::move(rows));
}

inline Result<Table> Project(const Table& t,
                             const std::vector<ProjectedColumn>& cols) {
  std::vector<Row> rows;
  for (const Row& row : t.rows()) {
    Row out;
    for (const ProjectedColumn& c : cols) {
      ESHARP_ASSIGN_OR_RETURN(Value v, EvalRow(c.expr, t.schema(), row));
      out.push_back(std::move(v));
    }
    rows.push_back(std::move(out));
  }
  Schema schema;
  for (size_t i = 0; i < cols.size(); ++i) {
    schema.AddColumn(
        {cols[i].name, rows.empty() ? DataType::kNull : rows[0][i].type()});
  }
  return Table::FromRows(std::move(schema), std::move(rows));
}

/// Nested-loop equi-join; left rows in order, each followed by its matches
/// in right-side order.
inline Result<Table> Join(const Table& left, const Table& right,
                          const std::vector<std::string>& left_keys,
                          const std::vector<std::string>& right_keys,
                          JoinType type = JoinType::kInner) {
  if (left_keys.size() != right_keys.size()) {
    return Status::InvalidArgument("join key arity mismatch: ",
                                   left_keys.size(), " vs ",
                                   right_keys.size());
  }
  ESHARP_ASSIGN_OR_RETURN(std::vector<size_t> li,
                          KeyIndexes(left.schema(), left_keys));
  ESHARP_ASSIGN_OR_RETURN(std::vector<size_t> ri,
                          KeyIndexes(right.schema(), right_keys));
  const std::vector<Row> right_rows = right.rows();
  std::vector<Row> rows;
  for (const Row& l : left.rows()) {
    bool matched = false;
    for (const Row& r : right_rows) {
      if (!KeysEqual(l, li, r, ri)) continue;
      matched = true;
      Row row = l;
      row.insert(row.end(), r.begin(), r.end());
      rows.push_back(std::move(row));
    }
    if (!matched && type == JoinType::kLeftOuter) {
      Row row = l;
      row.resize(row.size() + right.num_columns());
      rows.push_back(std::move(row));
    }
  }
  return Table::FromRows(Schema::Concat(left.schema(), right.schema(), "r_"),
                         std::move(rows));
}

/// One aggregate over one group.
class Accumulator {
 public:
  explicit Accumulator(AggKind kind) : kind_(kind) {}

  Status Add(const Value& arg, const Value& output) {
    if (arg.is_null()) return Status::OK();
    switch (kind_) {
      case AggKind::kCount:
        ++count_;
        break;
      case AggKind::kSum:
      case AggKind::kAvg:
        ++count_;
        if (arg.type() == DataType::kInt64 && sum_is_int_) {
          if (__builtin_add_overflow(isum_, arg.int_value(), &isum_)) {
            return Status::InvalidArgument("INT64 overflow in sum");
          }
        } else {
          if (sum_is_int_) sum_ = static_cast<double>(isum_);
          sum_is_int_ = false;
          Result<double> d = arg.AsDouble();
          if (d.ok()) sum_ += *d;
        }
        break;
      case AggKind::kMin:
      case AggKind::kMax: {
        const int c = has_ ? arg.Compare(best_) : 0;
        if (!has_ || (kind_ == AggKind::kMin ? c < 0 : c > 0)) best_ = arg;
        break;
      }
      case AggKind::kArgMax:
      case AggKind::kArgMin: {
        const int c = has_ ? arg.Compare(best_) : 0;
        if (!has_ || (kind_ == AggKind::kArgMax ? c > 0 : c < 0) ||
            (c == 0 && output.Compare(best_output_) < 0)) {
          best_ = arg;
          best_output_ = output;
        }
        break;
      }
    }
    has_ = true;
    return Status::OK();
  }

  Value Finish() const {
    switch (kind_) {
      case AggKind::kCount:
        return Value::Int(count_);
      case AggKind::kSum:
        if (count_ == 0) return Value();
        return sum_is_int_ ? Value::Int(isum_) : Value::Double(sum_);
      case AggKind::kAvg:
        if (count_ == 0) return Value();
        return Value::Double(
            (sum_is_int_ ? static_cast<double>(isum_) : sum_) /
            static_cast<double>(count_));
      case AggKind::kMin:
      case AggKind::kMax:
        return has_ ? best_ : Value();
      case AggKind::kArgMax:
      case AggKind::kArgMin:
        return has_ ? best_output_ : Value();
    }
    return Value();
  }

 private:
  AggKind kind_;
  int64_t count_ = 0;
  int64_t isum_ = 0;
  double sum_ = 0;
  bool sum_is_int_ = true;
  bool has_ = false;
  Value best_, best_output_;
};

/// GROUP BY with groups in first-seen order; with no keys, exactly one row.
inline Result<Table> Aggregate(const Table& t,
                               const std::vector<std::string>& group_keys,
                               const std::vector<AggSpec>& aggs) {
  ESHARP_ASSIGN_OR_RETURN(std::vector<size_t> ki,
                          KeyIndexes(t.schema(), group_keys));
  struct Group {
    Row key;
    std::vector<Accumulator> accs;
  };
  std::vector<Group> groups;
  auto new_group = [&](Row key) {
    Group g{std::move(key), {}};
    for (const AggSpec& a : aggs) g.accs.emplace_back(a.kind);
    groups.push_back(std::move(g));
  };
  std::vector<size_t> own(ki.size());
  for (size_t k = 0; k < own.size(); ++k) own[k] = k;
  for (const Row& row : t.rows()) {
    Row key;
    for (size_t i : ki) key.push_back(row[i]);
    auto it = std::find_if(groups.begin(), groups.end(), [&](const Group& g) {
      return KeysEqual(g.key, own, key, own);
    });
    if (it == groups.end()) {
      new_group(std::move(key));
      it = groups.end() - 1;
    }
    for (size_t a = 0; a < aggs.size(); ++a) {
      Value arg = Value::Bool(true);  // COUNT(*) counts every row
      Value output;
      if (aggs[a].arg) {
        ESHARP_ASSIGN_OR_RETURN(arg, EvalRow(aggs[a].arg, t.schema(), row));
      }
      if (aggs[a].output) {
        ESHARP_ASSIGN_OR_RETURN(output,
                                EvalRow(aggs[a].output, t.schema(), row));
      }
      ESHARP_RETURN_NOT_OK(it->accs[a].Add(arg, output));
    }
  }
  if (group_keys.empty() && groups.empty()) new_group({});
  std::vector<Row> rows;
  for (const Group& g : groups) {
    Row row = g.key;
    for (const Accumulator& acc : g.accs) row.push_back(acc.Finish());
    rows.push_back(std::move(row));
  }
  Schema schema;
  for (size_t k = 0; k < ki.size(); ++k) {
    schema.AddColumn({group_keys[k], t.schema().column(ki[k]).type});
  }
  for (size_t a = 0; a < aggs.size(); ++a) {
    schema.AddColumn({aggs[a].name, rows.empty()
                                        ? DataType::kNull
                                        : rows[0][ki.size() + a].type()});
  }
  return Table::FromRows(std::move(schema), std::move(rows));
}

/// First occurrence of every distinct row, in input order.
inline Result<Table> Distinct(const Table& t) {
  std::vector<size_t> all(t.num_columns());
  for (size_t c = 0; c < all.size(); ++c) all[c] = c;
  std::vector<Row> rows;
  for (const Row& row : t.rows()) {
    bool seen = false;
    for (const Row& kept : rows) {
      if (KeysEqual(kept, all, row, all)) {
        seen = true;
        break;
      }
    }
    if (!seen) rows.push_back(row);
  }
  return Table::FromRows(t.schema(), std::move(rows));
}

inline Result<Table> Sort(const Table& t, const std::vector<std::string>& keys,
                          const std::vector<bool>& ascending = {}) {
  ESHARP_ASSIGN_OR_RETURN(std::vector<size_t> ki,
                          KeyIndexes(t.schema(), keys));
  std::vector<Row> rows = t.rows();
  std::stable_sort(rows.begin(), rows.end(), [&](const Row& a, const Row& b) {
    for (size_t k = 0; k < ki.size(); ++k) {
      const int c = a[ki[k]].Compare(b[ki[k]]);
      if (c != 0) return k >= ascending.size() || ascending[k] ? c < 0 : c > 0;
    }
    return false;
  });
  return Table::FromRows(t.schema(), std::move(rows));
}

inline Result<Table> Limit(const Table& t, size_t n) {
  std::vector<Row> rows = t.rows();
  if (rows.size() > n) rows.resize(n);
  return Table::FromRows(t.schema(), std::move(rows));
}

inline Result<Table> UnionAll(const Table& a, const Table& b) {
  if (a.num_columns() != b.num_columns()) {
    return Status::InvalidArgument("UNION ALL arity mismatch: ",
                                   a.num_columns(), " vs ", b.num_columns());
  }
  std::vector<Row> rows = a.rows();
  const std::vector<Row> tail = b.rows();
  rows.insert(rows.end(), tail.begin(), tail.end());
  return Table::FromRows(a.schema(), std::move(rows));
}

/// Every row of `t`, sorted lexicographically by all columns: the canonical
/// form tests compare results in regardless of operator output order.
inline std::vector<Row> SortedRows(const Table& t) {
  std::vector<Row> rows = t.rows();
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
      const int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  });
  return rows;
}

}  // namespace esharp::sql::ref

#endif  // ESHARP_TESTS_SQL_REFERENCE_H_
