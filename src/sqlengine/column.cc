#include "sqlengine/column.h"

#include <algorithm>

#include "common/simd.h"

namespace esharp::sql {

uint32_t StringDict::Intern(std::string_view s) {
  auto it = index_.find(s);
  if (it != index_.end()) return it->second;
  uint32_t id = static_cast<uint32_t>(strings_.size());
  strings_.emplace_back(s);
  hashes_.push_back(Fnv1a64(s));
  index_.emplace(strings_.back(), id);
  return id;
}

Value ColumnVec::ValueAt(size_t i) const {
  if (nulls.IsNull(i) || type == DataType::kNull) return Value::Null();
  switch (type) {
    case DataType::kBool: return Value::Bool(bools[i] != 0);
    case DataType::kInt64: return Value::Int(ints[i]);
    case DataType::kDouble: return Value::Double(doubles[i]);
    case DataType::kString: return Value::String(dict->at(str_ids[i]));
    case DataType::kNull: break;
  }
  return Value::Null();
}

uint64_t ColumnVec::HashAt(size_t i) const {
  // Must stay bit-identical to Value::Hash(): partition routing is defined
  // over Value hashes (column.h, HashKeyColumns).
  if (nulls.IsNull(i) || type == DataType::kNull) return 0x9ae16a3b2f90404fULL;
  switch (type) {
    case DataType::kBool:
      return Mix64(bools[i] != 0 ? 1 : 2);
    case DataType::kInt64:
      return HashF64(static_cast<double>(ints[i]));
    case DataType::kDouble:
      return HashF64(doubles[i]);
    case DataType::kString:
      return dict->hash(str_ids[i]);
    case DataType::kNull:
      break;
  }
  return 0;
}

void ColumnVec::PushZeroSlot() {
  switch (type) {
    case DataType::kBool: bools.push_back(0); break;
    case DataType::kInt64: ints.push_back(0); break;
    case DataType::kDouble: doubles.push_back(0.0); break;
    case DataType::kString: str_ids.push_back(0); break;
    case DataType::kNull: break;
  }
}

void ColumnVec::Reserve(size_t n) {
  switch (type) {
    case DataType::kBool: bools.reserve(n); break;
    case DataType::kInt64: ints.reserve(n); break;
    case DataType::kDouble: doubles.reserve(n); break;
    case DataType::kString: str_ids.reserve(n); break;
    case DataType::kNull: break;
  }
}

namespace {

// Type-family rank, mirroring value.cc's TypeRank.
inline int FamilyRank(DataType t) {
  switch (t) {
    case DataType::kNull: return 0;
    case DataType::kBool: return 1;
    case DataType::kInt64:
    case DataType::kDouble: return 2;
    case DataType::kString: return 3;
  }
  return 4;
}

inline int Sign(int64_t a, int64_t b) { return a == b ? 0 : (a < b ? -1 : 1); }
inline int Sign(double a, double b) { return a == b ? 0 : (a < b ? -1 : 1); }

}  // namespace

int CompareCells(const ColumnVec& a, size_t i, const ColumnVec& b, size_t j) {
  const bool an = a.nulls.IsNull(i) || a.type == DataType::kNull;
  const bool bn = b.nulls.IsNull(j) || b.type == DataType::kNull;
  if (an || bn) return an == bn ? 0 : (an ? -1 : 1);
  int ra = FamilyRank(a.type), rb = FamilyRank(b.type);
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (a.type) {
    case DataType::kBool:
      return Sign(static_cast<int64_t>(a.bools[i]),
                  static_cast<int64_t>(b.bools[j]));
    case DataType::kInt64:
      if (b.type == DataType::kInt64) return Sign(a.ints[i], b.ints[j]);
      return Sign(static_cast<double>(a.ints[i]), b.doubles[j]);
    case DataType::kDouble:
      if (b.type == DataType::kInt64) {
        return Sign(a.doubles[i], static_cast<double>(b.ints[j]));
      }
      return Sign(a.doubles[i], b.doubles[j]);
    case DataType::kString: {
      if (a.dict == b.dict && a.str_ids[i] == b.str_ids[j]) return 0;
      int c = a.dict->at(a.str_ids[i]).compare(b.dict->at(b.str_ids[j]));
      return c < 0 ? -1 : (c == 0 ? 0 : 1);
    }
    case DataType::kNull:
      break;
  }
  return 0;
}

std::vector<Row> ColumnTable::MaterializeRows() const {
  std::vector<Row> rows(num_rows_);
  for (size_t r = 0; r < num_rows_; ++r) {
    rows[r].reserve(cols_.size());
  }
  for (const ColumnVec& col : cols_) {
    for (size_t r = 0; r < num_rows_; ++r) {
      rows[r].push_back(col.ValueAt(r));
    }
  }
  return rows;
}

uint64_t ColumnTable::SizeBytes() const {
  uint64_t total = 0;
  for (const ColumnVec& col : cols_) {
    switch (col.type) {
      case DataType::kBool:
        total += col.size();
        break;
      case DataType::kInt64:
      case DataType::kDouble:
        total += 8 * col.size();
        break;
      case DataType::kString:
        for (size_t r = 0; r < col.str_ids.size(); ++r) {
          total += col.nulls.IsNull(r) ? 1 : col.dict->at(col.str_ids[r]).size() + 8;
        }
        break;
      case DataType::kNull:
        total += col.size();
        break;
    }
    if (col.type != DataType::kString && col.nulls.AnyNull()) {
      // Null cells account as 1 byte, like Value::SizeBytes; subtract the
      // full-width accounting added above.
      for (size_t r = 0; r < col.size(); ++r) {
        if (col.nulls.IsNull(r)) {
          total -= (col.type == DataType::kBool ? 1 : 8);
          total += 1;
        }
      }
    }
  }
  return total;
}

namespace {
constexpr uint32_t kNullRow = UINT32_MAX;
}

ColumnVec GatherColumn(const ColumnVec& src, const std::vector<uint32_t>& idx) {
  ColumnVec dst;
  dst.type = src.type;
  dst.dict = src.dict;
  const size_t n = idx.size();
  dst.null_length = n;
  dst.Reserve(n);
  const bool src_nulls = src.nulls.AnyNull();
  for (size_t r = 0; r < n; ++r) {
    const uint32_t s = idx[r];
    const bool is_null = s == kNullRow || (src_nulls && src.nulls.IsNull(s));
    switch (dst.type) {
      case DataType::kBool: dst.bools.push_back(is_null ? 0 : src.bools[s]); break;
      case DataType::kInt64: dst.ints.push_back(is_null ? 0 : src.ints[s]); break;
      case DataType::kDouble:
        dst.doubles.push_back(is_null ? 0.0 : src.doubles[s]);
        break;
      case DataType::kString:
        dst.str_ids.push_back(is_null ? 0 : src.str_ids[s]);
        break;
      case DataType::kNull: break;
    }
    if (is_null && dst.type != DataType::kNull) dst.nulls.SetNull(r, n);
  }
  return dst;
}

ColumnTable ColumnTable::Gather(const std::vector<uint32_t>& idx) const {
  ColumnTable out(schema_);
  out.num_rows_ = idx.size();
  out.cols_.reserve(cols_.size());
  for (const ColumnVec& src : cols_) out.cols_.push_back(GatherColumn(src, idx));
  return out;
}

ColumnTable ColumnTable::Slice(size_t begin, size_t count) const {
  ColumnTable out(schema_);
  out.cols_.resize(cols_.size());
  const size_t end = std::min(num_rows_, begin + count);
  const size_t n = begin >= end ? 0 : end - begin;
  out.num_rows_ = n;
  for (size_t c = 0; c < cols_.size(); ++c) {
    const ColumnVec& src = cols_[c];
    ColumnVec& dst = out.cols_[c];
    dst.type = src.type;
    dst.dict = src.dict;
    dst.null_length = n;
    switch (src.type) {
      case DataType::kBool:
        dst.bools.assign(src.bools.begin() + begin, src.bools.begin() + end);
        break;
      case DataType::kInt64:
        dst.ints.assign(src.ints.begin() + begin, src.ints.begin() + end);
        break;
      case DataType::kDouble:
        dst.doubles.assign(src.doubles.begin() + begin,
                           src.doubles.begin() + end);
        break;
      case DataType::kString:
        dst.str_ids.assign(src.str_ids.begin() + begin,
                           src.str_ids.begin() + end);
        break;
      case DataType::kNull:
        break;
    }
    if (src.nulls.AnyNull()) {
      for (size_t r = begin; r < end; ++r) {
        if (src.nulls.IsNull(r)) dst.nulls.SetNull(r - begin, n);
      }
    }
  }
  return out;
}

void HashKeyColumns(const ColumnTable& t, const std::vector<size_t>& key_idx,
                    std::vector<uint64_t>* hashes) {
  const size_t n = t.num_rows();
  hashes->assign(n, 0x87c37b91114253d5ULL);  // routing seed (column.h)
  uint64_t* h = hashes->data();
  // Numeric key columns stage canonical f64 bits and fold them in with the
  // batched SIMD Mix64+combine kernel (bit-identical to the scalar chain,
  // so partition routing matches Value::Hash / HashAt). String and
  // null-bearing columns stay fused: their per-cell hash is a gather /
  // branchy lookup that dominates the combine, and staging it through a
  // scratch column only adds a memory pass.
  std::vector<uint64_t> cell;
  for (size_t idx : key_idx) {
    const ColumnVec& col = t.col(idx);
    const bool has_nulls = col.nulls.AnyNull();
    const bool numeric = !has_nulls && (col.type == DataType::kInt64 ||
                                        col.type == DataType::kDouble);
    if (numeric) {
      cell.resize(n);
      if (col.type == DataType::kInt64) {
        for (size_t r = 0; r < n; ++r) {
          cell[r] = CanonicalF64Bits(static_cast<double>(col.ints[r]));
        }
      } else {
        for (size_t r = 0; r < n; ++r) {
          cell[r] = CanonicalF64Bits(col.doubles[r]);
        }
      }
      simd::HashCombineMix64Batch(h, cell.data(), n);
    } else if (!has_nulls && col.type == DataType::kString) {
      const StringDict& dict = *col.dict;
      for (size_t r = 0; r < n; ++r) {
        h[r] = HashCombine(h[r], dict.hash(col.str_ids[r]));
      }
    } else {
      for (size_t r = 0; r < n; ++r) {
        h[r] = HashCombine(h[r], col.HashAt(r));
      }
    }
  }
}

Status MixedTypeError(std::string_view what, DataType a, DataType b) {
  return Status::InvalidArgument(what, " mixes ", DataTypeToString(a),
                                 " and ", DataTypeToString(b));
}

Status ColumnBuilder::Append(const Value& v) {
  const size_t i = rows_++;
  if (v.is_null()) {
    if (col_.type == DataType::kNull) {
      ++col_.null_length;
    } else {
      col_.PushZeroSlot();
      col_.nulls.SetNull(i, expected_rows_);
    }
    return Status::OK();
  }
  const DataType vt = v.type();
  if (col_.type == DataType::kNull) {
    // First non-null value fixes the type; backfill the prior all-null
    // prefix with zero slots and bitmap bits.
    const size_t prior = col_.null_length;
    col_.type = vt;
    col_.null_length = 0;
    col_.Reserve(std::max(expected_rows_, rows_));
    if (vt == DataType::kString) {
      dict_ = std::make_shared<StringDict>();
      col_.dict = dict_;
    }
    for (size_t r = 0; r < prior; ++r) {
      col_.PushZeroSlot();
      col_.nulls.SetNull(r, expected_rows_);
    }
  } else if (col_.type != vt) {
    return MixedTypeError(what_, col_.type, vt);
  }
  switch (vt) {
    case DataType::kBool: col_.bools.push_back(v.bool_value() ? 1 : 0); break;
    case DataType::kInt64: col_.ints.push_back(v.int_value()); break;
    case DataType::kDouble: col_.doubles.push_back(v.double_value()); break;
    case DataType::kString:
      col_.str_ids.push_back(dict_->Intern(v.string_value()));
      break;
    case DataType::kNull: break;
  }
  return Status::OK();
}

ColumnVec ColumnBuilder::Finish() {
  if (col_.type == DataType::kNull) col_.null_length = rows_;
  return std::move(col_);
}

std::vector<uint32_t> SelectedRows(const std::vector<uint8_t>& flags) {
  // +7: the SIMD compress-store emulation clobbers up to 7 slots past the
  // returned count.
  const size_t n = flags.size();
  std::vector<uint32_t> idx(n + 7);
  idx.resize(n == 0 ? 0 : simd::CompactSelection(flags.data(), n, idx.data()));
  return idx;
}

}  // namespace esharp::sql
