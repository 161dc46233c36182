#include "sqlengine/columnar.h"

#include <algorithm>
#include <unordered_map>

#include "common/simd.h"
#include "sqlengine/table.h"

namespace esharp::sql {

namespace {

constexpr uint32_t kNullRow = UINT32_MAX;

size_t NextPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

Result<std::vector<size_t>> ResolveKeyIndexes(
    const Schema& schema, const std::vector<std::string>& keys) {
  std::vector<size_t> out;
  out.reserve(keys.size());
  for (const std::string& k : keys) {
    ESHARP_ASSIGN_OR_RETURN(size_t idx, schema.Resolve(k));
    out.push_back(idx);
  }
  return out;
}

Result<ColumnTable> ColumnarFilter(const ColumnTable& t, const ExprPtr& pred) {
  ESHARP_RETURN_NOT_OK(pred->Bind(t.schema()));
  ESHARP_ASSIGN_OR_RETURN(ColumnVec sel, pred->EvalColumn(t));
  const size_t n = t.num_rows();
  if (n > 0 && (sel.type != DataType::kBool || sel.nulls.AnyNull())) {
    return Status::InvalidArgument("filter predicate is not BOOL: ",
                                   pred->ToString());
  }
  // Selection-vector compaction: the BOOL column is already a byte-per-row
  // flag array, so the movemask-based SIMD kernel turns it into packed row
  // indices without the per-row branch.
  return t.Gather(SelectedRows(sel.bools));
}

Result<ColumnTable> ColumnarProject(const ColumnTable& t,
                                    const std::vector<ProjectedColumn>& cols) {
  for (const ProjectedColumn& c : cols) {
    ESHARP_RETURN_NOT_OK(c.expr->Bind(t.schema()));
  }
  Schema schema;
  ColumnTable out;
  if (t.num_rows() == 0) {
    // Nothing to evaluate: every output column is typed kNull.
    for (const ProjectedColumn& c : cols) {
      schema.AddColumn({c.name, DataType::kNull});
      out.AddColumn(ColumnVec{});
    }
    out.mutable_schema() = schema;
    out.set_num_rows(0);
    return out;
  }
  for (const ProjectedColumn& c : cols) {
    ESHARP_ASSIGN_OR_RETURN(ColumnVec v, c.expr->EvalColumn(t));
    schema.AddColumn({c.name, v.type});
    out.AddColumn(std::move(v));
  }
  out.mutable_schema() = schema;
  if (cols.empty()) out.set_num_rows(t.num_rows());
  return out;
}

Result<ColumnarJoinIndex> ColumnarJoinIndex::Build(
    const ColumnTable& t, const std::vector<std::string>& keys) {
  ColumnarJoinIndex index;
  ESHARP_ASSIGN_OR_RETURN(index.key_idx,
                          ResolveKeyIndexes(t.schema(), keys));
  const size_t n = t.num_rows();
  HashKeyColumns(t, index.key_idx, &index.hashes);
  const size_t buckets = NextPow2(std::max<size_t>(1, n * 2));
  index.heads.assign(buckets, kEmpty);
  index.next.assign(n, kEmpty);
  // Chains are built back to front so a probe walks its matches in
  // build-side row order.
  for (size_t i = n; i-- > 0;) {
    const size_t b = index.hashes[i] & (buckets - 1);
    index.next[i] = index.heads[b];
    index.heads[b] = static_cast<uint32_t>(i);
  }
  return index;
}

Result<ColumnTable> ColumnarHashJoinProbe(const ColumnTable& left,
                                          const std::vector<std::string>& left_keys,
                                          const ColumnTable& build,
                                          const ColumnarJoinIndex& index,
                                          JoinType type) {
  ESHARP_ASSIGN_OR_RETURN(std::vector<size_t> lidx,
                          ResolveKeyIndexes(left.schema(), left_keys));
  std::vector<uint64_t> hashes;
  HashKeyColumns(left, lidx, &hashes);

  const size_t n = left.num_rows();
  const size_t mask = index.heads.size() - 1;
  std::vector<uint32_t> lsel, rsel;
  lsel.reserve(n);
  rsel.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t h = hashes[i];
    bool matched = false;
    for (uint32_t j = index.heads[h & mask]; j != ColumnarJoinIndex::kEmpty;
         j = index.next[j]) {
      if (index.hashes[j] != h) continue;
      bool equal = true;
      for (size_t k = 0; k < lidx.size(); ++k) {
        if (CompareCells(left.col(lidx[k]), i, build.col(index.key_idx[k]),
                         j) != 0) {
          equal = false;
          break;
        }
      }
      if (!equal) continue;
      matched = true;
      lsel.push_back(static_cast<uint32_t>(i));
      rsel.push_back(j);
    }
    if (!matched && type == JoinType::kLeftOuter) {
      lsel.push_back(static_cast<uint32_t>(i));
      rsel.push_back(kNullRow);  // all-NULL right padding
    }
  }

  ColumnTable out(Schema::Concat(left.schema(), build.schema(), "r_"));
  for (size_t c = 0; c < left.num_columns(); ++c) {
    out.AddColumn(GatherColumn(left.col(c), lsel));
  }
  for (size_t c = 0; c < build.num_columns(); ++c) {
    out.AddColumn(GatherColumn(build.col(c), rsel));
  }
  out.set_num_rows(lsel.size());
  return out;
}

Result<ColumnTable> ColumnarHashJoin(const ColumnTable& left,
                                     const ColumnTable& right,
                                     const std::vector<std::string>& left_keys,
                                     const std::vector<std::string>& right_keys,
                                     JoinType type) {
  if (left_keys.size() != right_keys.size()) {
    return Status::InvalidArgument("join key arity mismatch: ",
                                   left_keys.size(), " vs ",
                                   right_keys.size());
  }
  ESHARP_ASSIGN_OR_RETURN(ColumnarJoinIndex index,
                          ColumnarJoinIndex::Build(right, right_keys));
  return ColumnarHashJoinProbe(left, left_keys, right, index, type);
}

namespace {

// Per-group accumulator state. SUM stays INT64 while every input is; the
// first non-INT64 input moves it to double.
struct GroupAggState {
  int64_t count = 0;
  double sum = 0;
  bool sum_is_int = true;
  int64_t isum = 0;
  bool has = false;
  uint32_t best = 0;
};

inline bool CellIsNull(const ColumnVec& c, size_t i) {
  return c.type == DataType::kNull || c.nulls.IsNull(i);
}

}  // namespace

Result<ColumnTable> ColumnarHashAggregate(const ColumnTable& t,
                                          const std::vector<std::string>& group_keys,
                                          const std::vector<AggSpec>& aggs) {
  ESHARP_ASSIGN_OR_RETURN(std::vector<size_t> kidx,
                          ResolveKeyIndexes(t.schema(), group_keys));
  for (const AggSpec& a : aggs) {
    if (a.arg) ESHARP_RETURN_NOT_OK(a.arg->Bind(t.schema()));
    if (a.output) ESHARP_RETURN_NOT_OK(a.output->Bind(t.schema()));
  }

  const size_t n = t.num_rows();
  std::vector<uint64_t> hashes;
  HashKeyColumns(t, kidx, &hashes);

  // Group discovery over precomputed hashes; reps keep first-seen order.
  std::unordered_map<uint64_t, std::vector<uint32_t>> buckets;
  buckets.reserve(n * 2);
  std::vector<uint32_t> rep;   // group -> first row index
  std::vector<uint32_t> gid(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<uint32_t>& cand = buckets[hashes[i]];
    uint32_t found = kNullRow;
    for (uint32_t g : cand) {
      bool equal = true;
      for (size_t k : kidx) {
        if (CompareCells(t.col(k), i, t.col(k), rep[g]) != 0) {
          equal = false;
          break;
        }
      }
      if (equal) {
        found = g;
        break;
      }
    }
    if (found == kNullRow) {
      found = static_cast<uint32_t>(rep.size());
      rep.push_back(static_cast<uint32_t>(i));
      cand.push_back(found);
    }
    gid[i] = found;
  }

  // Global aggregate over empty input still yields one (empty) group.
  bool empty_global = false;
  if (group_keys.empty() && rep.empty()) {
    rep.push_back(0);
    empty_global = true;
  }
  const size_t num_groups = rep.size();

  // Output schema: key columns typed from the input schema (by exact name),
  // aggregate columns refined from their values.
  Schema out_schema;
  for (size_t i = 0; i < group_keys.size(); ++i) {
    ESHARP_ASSIGN_OR_RETURN(size_t idx, t.schema().IndexOf(group_keys[i]));
    out_schema.AddColumn({group_keys[i], t.schema().column(idx).type});
  }

  ColumnTable out;
  for (size_t i = 0; i < kidx.size(); ++i) {
    out.AddColumn(GatherColumn(t.col(kidx[i]), rep));
  }

  for (const AggSpec& a : aggs) {
    ColumnVec argcol, outcol;
    bool have_arg = false, have_out = false;
    if (a.arg) {
      ESHARP_ASSIGN_OR_RETURN(argcol, a.arg->EvalColumn(t));
      have_arg = true;
    }
    if (a.output) {
      ESHARP_ASSIGN_OR_RETURN(outcol, a.output->EvalColumn(t));
      have_out = true;
    }
    std::vector<GroupAggState> st(num_groups);
    if (!empty_global) {
      switch (a.kind) {
        case AggKind::kCount:
          if (!have_arg) {
            // COUNT(*): every row counts.
            for (size_t i = 0; i < n; ++i) ++st[gid[i]].count;
          } else {
            for (size_t i = 0; i < n; ++i) {
              if (!CellIsNull(argcol, i)) ++st[gid[i]].count;
            }
          }
          break;
        case AggKind::kSum:
        case AggKind::kAvg:
          switch (have_arg ? argcol.type : DataType::kBool) {
            case DataType::kInt64:
              for (size_t i = 0; i < n; ++i) {
                if (CellIsNull(argcol, i)) continue;
                GroupAggState& s = st[gid[i]];
                ++s.count;
                if (s.sum_is_int) {
                  if (__builtin_add_overflow(s.isum, argcol.ints[i], &s.isum)) {
                    return Status::InvalidArgument("INT64 overflow in sum");
                  }
                } else {
                  s.sum += static_cast<double>(argcol.ints[i]);
                }
              }
              break;
            case DataType::kDouble:
              for (size_t i = 0; i < n; ++i) {
                if (CellIsNull(argcol, i)) continue;
                GroupAggState& s = st[gid[i]];
                ++s.count;
                if (s.sum_is_int) {
                  s.sum = static_cast<double>(s.isum);
                  s.sum_is_int = false;
                }
                s.sum += argcol.doubles[i];
              }
              break;
            case DataType::kBool:
              // SUM over a missing arg cannot occur (factories always set
              // one); over a BOOL column it widens 0/1 like AsDouble.
              for (size_t i = 0; i < n; ++i) {
                if (!have_arg || CellIsNull(argcol, i)) continue;
                GroupAggState& s = st[gid[i]];
                ++s.count;
                if (s.sum_is_int) {
                  s.sum = static_cast<double>(s.isum);
                  s.sum_is_int = false;
                }
                s.sum += argcol.bools[i] ? 1.0 : 0.0;
              }
              break;
            case DataType::kString:
              // A STRING cannot be added: the count advances, the cell
              // contributes nothing, and the sum goes double.
              for (size_t i = 0; i < n; ++i) {
                if (CellIsNull(argcol, i)) continue;
                GroupAggState& s = st[gid[i]];
                ++s.count;
                if (s.sum_is_int) {
                  s.sum = static_cast<double>(s.isum);
                  s.sum_is_int = false;
                }
              }
              break;
            case DataType::kNull:
              break;
          }
          break;
        case AggKind::kMin:
          for (size_t i = 0; i < n; ++i) {
            if (!have_arg || CellIsNull(argcol, i)) continue;
            GroupAggState& s = st[gid[i]];
            if (!s.has || CompareCells(argcol, i, argcol, s.best) < 0) {
              s.best = static_cast<uint32_t>(i);
            }
            s.has = true;
          }
          break;
        case AggKind::kMax:
          for (size_t i = 0; i < n; ++i) {
            if (!have_arg || CellIsNull(argcol, i)) continue;
            GroupAggState& s = st[gid[i]];
            if (!s.has || CompareCells(argcol, i, argcol, s.best) > 0) {
              s.best = static_cast<uint32_t>(i);
            }
            s.has = true;
          }
          break;
        case AggKind::kArgMax:
        case AggKind::kArgMin:
          for (size_t i = 0; i < n; ++i) {
            if (!have_arg || CellIsNull(argcol, i)) continue;
            GroupAggState& s = st[gid[i]];
            if (!s.has) {
              s.best = static_cast<uint32_t>(i);
              s.has = true;
              continue;
            }
            const int c = CompareCells(argcol, i, argcol, s.best);
            const bool better = a.kind == AggKind::kArgMax ? c > 0 : c < 0;
            // Ties break toward the smaller output value (determinism).
            const bool tie_wins =
                c == 0 && have_out && CompareCells(outcol, i, outcol, s.best) < 0;
            if (better || tie_wins) s.best = static_cast<uint32_t>(i);
          }
          break;
      }
    }

    ColumnBuilder builder("aggregate '" + a.name + "'", num_groups);
    for (size_t g = 0; g < num_groups; ++g) {
      const GroupAggState& s = st[g];
      Value v;
      switch (a.kind) {
        case AggKind::kCount:
          v = Value::Int(s.count);
          break;
        case AggKind::kSum:
          if (s.count == 0) break;  // NULL
          v = s.sum_is_int ? Value::Int(s.isum) : Value::Double(s.sum);
          break;
        case AggKind::kAvg: {
          if (s.count == 0) break;  // NULL
          double total = s.sum_is_int ? static_cast<double>(s.isum) : s.sum;
          v = Value::Double(total / static_cast<double>(s.count));
          break;
        }
        case AggKind::kMin:
        case AggKind::kMax:
          if (s.has) v = argcol.ValueAt(s.best);
          break;
        case AggKind::kArgMax:
        case AggKind::kArgMin:
          if (s.has && have_out) v = outcol.ValueAt(s.best);
          break;
      }
      ESHARP_RETURN_NOT_OK(builder.Append(v));
    }
    ColumnVec agg_out = builder.Finish();
    out_schema.AddColumn({a.name, agg_out.type});
    out.AddColumn(std::move(agg_out));
  }

  out.mutable_schema() = out_schema;
  out.set_num_rows(num_groups);
  return out;
}

Result<std::vector<ColumnTable>> ColumnarHashPartition(
    const ColumnTable& t, const std::vector<std::string>& keys,
    size_t num_partitions) {
  if (num_partitions == 0) {
    return Status::InvalidArgument("num_partitions must be > 0");
  }
  ESHARP_ASSIGN_OR_RETURN(std::vector<size_t> kidx,
                          ResolveKeyIndexes(t.schema(), keys));
  std::vector<uint64_t> hashes;
  HashKeyColumns(t, kidx, &hashes);
  // Selection vectors per partition, then one gather each: rows route to
  // h % p.
  std::vector<std::vector<uint32_t>> sel(num_partitions);
  const size_t n = t.num_rows();
  for (size_t i = 0; i < n; ++i) {
    sel[hashes[i] % num_partitions].push_back(static_cast<uint32_t>(i));
  }
  std::vector<ColumnTable> parts;
  parts.reserve(num_partitions);
  for (size_t p = 0; p < num_partitions; ++p) {
    parts.push_back(t.Gather(sel[p]));
  }
  return parts;
}

std::vector<ColumnTable> ColumnarRoundRobinPartition(const ColumnTable& t,
                                                     size_t num_partitions) {
  num_partitions = std::max<size_t>(1, num_partitions);
  // Contiguous chunks keep input order within a chunk, so concatenating the
  // per-chunk results in partition order is deterministic.
  const size_t n = t.num_rows();
  const size_t per = (n + num_partitions - 1) / num_partitions;
  std::vector<ColumnTable> parts;
  parts.reserve(num_partitions);
  for (size_t p = 0; p < num_partitions; ++p) {
    const size_t begin = std::min(n, p * per);
    parts.push_back(t.Slice(begin, per));
  }
  return parts;
}

Result<ColumnTable> ColumnarConcat(const std::vector<ColumnTable>& parts) {
  if (parts.empty()) {
    return Status::InvalidArgument("no partitions to concat");
  }
  // Empty partitions carry kNull inferred types; a non-empty partition's
  // schema is canonical.
  size_t canonical = 0;
  size_t total = 0;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (parts[i].num_rows() > 0 && total == 0) canonical = i;
    total += parts[i].num_rows();
  }
  const size_t width = parts[canonical].num_columns();
  for (const ColumnTable& p : parts) {
    if (p.num_columns() != width) {
      return Status::Internal("partition schema mismatch in concat");
    }
  }

  ColumnTable out(parts[canonical].schema());
  for (size_t c = 0; c < width; ++c) {
    // Resolve the output type: first non-kNull column type among non-empty
    // parts; two distinct concrete types make a mixed-type column.
    DataType type = DataType::kNull;
    for (const ColumnTable& p : parts) {
      if (p.num_rows() == 0) continue;
      const DataType pt = p.col(c).type;
      if (pt == DataType::kNull) continue;
      if (type == DataType::kNull) {
        type = pt;
      } else if (type != pt) {
        return MixedTypeError(
            "column '" + parts[canonical].schema().column(c).name + "'", type,
            pt);
      }
    }

    ColumnVec dst;
    dst.type = type;
    dst.null_length = total;
    dst.Reserve(total);

    // Dictionary: shared copy-free when every string part uses the same
    // dictionary object (the common case — Gather/Slice share pointers);
    // otherwise ids are remapped through a merged dictionary.
    std::shared_ptr<StringDict> merged;
    if (type == DataType::kString) {
      std::shared_ptr<const StringDict> shared;
      bool shareable = true;
      for (const ColumnTable& p : parts) {
        if (p.num_rows() == 0 || p.col(c).type != DataType::kString) continue;
        if (!shared) {
          shared = p.col(c).dict;
        } else if (shared != p.col(c).dict) {
          shareable = false;
          break;
        }
      }
      if (shareable && shared) {
        dst.dict = shared;
      } else {
        merged = std::make_shared<StringDict>();
        dst.dict = merged;
      }
    }

    size_t offset = 0;
    for (const ColumnTable& p : parts) {
      const size_t pn = p.num_rows();
      if (pn == 0) continue;
      const ColumnVec& src = p.col(c);
      if (src.type == DataType::kNull && type != DataType::kNull) {
        // All-null contribution into a typed column.
        for (size_t r = 0; r < pn; ++r) {
          dst.PushZeroSlot();
          dst.nulls.SetNull(offset + r, total);
        }
        offset += pn;
        continue;
      }
      switch (type) {
        case DataType::kBool:
          dst.bools.insert(dst.bools.end(), src.bools.begin(), src.bools.end());
          break;
        case DataType::kInt64:
          dst.ints.insert(dst.ints.end(), src.ints.begin(), src.ints.end());
          break;
        case DataType::kDouble:
          dst.doubles.insert(dst.doubles.end(), src.doubles.begin(),
                             src.doubles.end());
          break;
        case DataType::kString:
          if (merged == nullptr) {
            dst.str_ids.insert(dst.str_ids.end(), src.str_ids.begin(),
                               src.str_ids.end());
          } else {
            // Per-part translation cache: each distinct source id interns
            // its string once.
            std::vector<uint32_t> translate(src.dict->size(), kNullRow);
            for (uint32_t id : src.str_ids) {
              if (translate[id] == kNullRow) {
                translate[id] = merged->Intern(src.dict->at(id));
              }
              dst.str_ids.push_back(translate[id]);
            }
          }
          break;
        case DataType::kNull:
          break;
      }
      if (src.nulls.AnyNull()) {
        for (size_t r = 0; r < pn; ++r) {
          if (src.nulls.IsNull(r)) dst.nulls.SetNull(offset + r, total);
        }
      }
      offset += pn;
    }
    out.AddColumn(std::move(dst));
  }
  out.set_num_rows(total);
  return out;
}

ColumnTable ColumnarDistinct(const ColumnTable& t) {
  const size_t n = t.num_rows();
  std::vector<size_t> all(t.num_columns());
  for (size_t c = 0; c < all.size(); ++c) all[c] = c;
  std::vector<uint64_t> hashes;
  HashKeyColumns(t, all, &hashes);
  // First occurrences, in input order; equal rows share a hash bucket.
  std::unordered_map<uint64_t, std::vector<uint32_t>> buckets;
  buckets.reserve(n * 2);
  std::vector<uint32_t> keep;
  for (size_t i = 0; i < n; ++i) {
    std::vector<uint32_t>& cand = buckets[hashes[i]];
    bool seen = false;
    for (uint32_t j : cand) {
      seen = true;
      for (size_t c : all) {
        if (CompareCells(t.col(c), i, t.col(c), j) != 0) {
          seen = false;
          break;
        }
      }
      if (seen) break;
    }
    if (!seen) {
      cand.push_back(static_cast<uint32_t>(i));
      keep.push_back(static_cast<uint32_t>(i));
    }
  }
  return t.Gather(keep);
}

Result<ColumnTable> ColumnarSort(const ColumnTable& t,
                                 const std::vector<std::string>& keys,
                                 const std::vector<bool>& ascending) {
  ESHARP_ASSIGN_OR_RETURN(std::vector<size_t> kidx,
                          ResolveKeyIndexes(t.schema(), keys));
  std::vector<uint32_t> order(t.num_rows());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<uint32_t>(i);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    for (size_t k = 0; k < kidx.size(); ++k) {
      const ColumnVec& col = t.col(kidx[k]);
      const int c = CompareCells(col, a, col, b);
      if (c != 0) return k >= ascending.size() || ascending[k] ? c < 0 : c > 0;
    }
    return false;
  });
  return t.Gather(order);
}

ColumnTable ColumnarLimit(const ColumnTable& t, size_t n) {
  return t.Slice(0, n);
}

Result<ColumnTable> ColumnarUnionAll(const ColumnTable& a,
                                     const ColumnTable& b) {
  if (a.num_columns() != b.num_columns()) {
    return Status::InvalidArgument("UNION ALL arity mismatch: ",
                                   a.num_columns(), " vs ", b.num_columns());
  }
  ESHARP_ASSIGN_OR_RETURN(ColumnTable out, ColumnarConcat({a, b}));
  out.mutable_schema() = a.schema();
  return out;
}

}  // namespace esharp::sql
