#include "sqlengine/plan.h"

#include "common/strings.h"
#include "common/timer.h"

namespace esharp::sql {

namespace {
std::shared_ptr<PlanNode> NewNode(PlanNode::Kind kind) {
  auto node = std::make_shared<PlanNode>();
  node->kind = kind;
  return node;
}
}  // namespace

Plan Plan::Scan(std::string table_name) {
  auto node = NewNode(PlanNode::Kind::kScan);
  node->table_name = std::move(table_name);
  return Plan(node);
}

Plan Plan::Values(Table table) {
  auto node = NewNode(PlanNode::Kind::kValues);
  node->literal_table = std::make_shared<const Table>(std::move(table));
  return Plan(node);
}

Plan Plan::Where(ExprPtr predicate) const {
  auto node = NewNode(PlanNode::Kind::kFilter);
  node->children = {root_};
  node->predicate = std::move(predicate);
  return Plan(node);
}

Plan Plan::Select(std::vector<ProjectedColumn> projections) const {
  auto node = NewNode(PlanNode::Kind::kProject);
  node->children = {root_};
  node->projections = std::move(projections);
  return Plan(node);
}

Plan Plan::Join(const Plan& right, std::vector<std::string> left_keys,
                std::vector<std::string> right_keys, JoinType type) const {
  auto node = NewNode(PlanNode::Kind::kJoin);
  node->children = {root_, right.root_};
  node->left_keys = std::move(left_keys);
  node->right_keys = std::move(right_keys);
  node->join_type = type;
  return Plan(node);
}

Plan Plan::GroupBy(std::vector<std::string> keys,
                   std::vector<AggSpec> aggregates) const {
  auto node = NewNode(PlanNode::Kind::kAggregate);
  node->children = {root_};
  node->group_keys = std::move(keys);
  node->aggregates = std::move(aggregates);
  return Plan(node);
}

Plan Plan::Distinct() const {
  auto node = NewNode(PlanNode::Kind::kDistinct);
  node->children = {root_};
  return Plan(node);
}

Plan Plan::OrderBy(std::vector<std::string> keys,
                   std::vector<bool> ascending) const {
  auto node = NewNode(PlanNode::Kind::kSort);
  node->children = {root_};
  node->sort_keys = std::move(keys);
  node->sort_ascending = std::move(ascending);
  return Plan(node);
}

Plan Plan::Take(size_t n) const {
  auto node = NewNode(PlanNode::Kind::kLimit);
  node->children = {root_};
  node->limit = n;
  return Plan(node);
}

Plan Plan::Union(const Plan& other) const {
  auto node = NewNode(PlanNode::Kind::kUnionAll);
  node->children = {root_, other.root_};
  return Plan(node);
}

Plan Plan::As(std::string alias) const {
  auto node = NewNode(PlanNode::Kind::kAlias);
  node->children = {root_};
  node->alias = std::move(alias);
  return Plan(node);
}

std::string DescribeNode(const PlanNode& node) {
  switch (node.kind) {
    case PlanNode::Kind::kScan:
      return "Scan(" + node.table_name + ")";
    case PlanNode::Kind::kValues:
      return StrFormat("Values(%zu rows)", node.literal_table->num_rows());
    case PlanNode::Kind::kFilter:
      return "Filter(" + node.predicate->ToString() + ")";
    case PlanNode::Kind::kProject: {
      std::string cols;
      for (size_t i = 0; i < node.projections.size(); ++i) {
        if (i > 0) cols += ", ";
        cols += node.projections[i].expr->ToString() + " AS " +
                node.projections[i].name;
      }
      return "Project(" + cols + ")";
    }
    case PlanNode::Kind::kJoin:
      return "HashJoin(" + Join(node.left_keys, ",") + " = " +
             Join(node.right_keys, ",") + ")";
    case PlanNode::Kind::kAggregate:
      return "Aggregate(by " + Join(node.group_keys, ",") + ")";
    case PlanNode::Kind::kDistinct:
      return "Distinct";
    case PlanNode::Kind::kSort:
      return "Sort(" + Join(node.sort_keys, ",") + ")";
    case PlanNode::Kind::kLimit:
      return StrFormat("Limit(%zu)", node.limit);
    case PlanNode::Kind::kUnionAll:
      return "UnionAll";
    case PlanNode::Kind::kAlias:
      return "Alias(" + node.alias + ")";
  }
  return "?";
}

namespace {
void ExplainNode(const PlanNode& node, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append(DescribeNode(node));
  out->push_back('\n');
  for (const auto& child : node.children) {
    ExplainNode(*child, depth + 1, out);
  }
}
}  // namespace

std::string Plan::Explain() const {
  std::string out;
  ExplainNode(*root_, 0, &out);
  return out;
}

Result<Table> Executor::Execute(const Plan& plan, const Catalog& catalog) const {
  return ExecuteNode(*plan.root(), catalog, nullptr);
}

Result<Table> Executor::Execute(const Plan& plan, const Catalog& catalog,
                                ExplainStats* stats) const {
  if (stats != nullptr) stats->Clear();
  return ExecuteNode(*plan.root(), catalog, stats);
}

namespace {

/// Profiles one operator: label and inclusive wall time always; exact rows
/// in/out for the single-batch operators (the partitioned operators account
/// rows and batch counts themselves through ExecContext::stats, so Finish
/// leaves already-recorded rows alone).
class NodeProfile {
 public:
  NodeProfile(ExplainStats* stats, const PlanNode& node) : stats_(stats) {
    if (stats_ != nullptr) stats_->op = DescribeNode(node);
  }

  ExplainStats* child() {
    return stats_ != nullptr ? stats_->AddChild() : nullptr;
  }

  void RecordRows(uint64_t rows_in, uint64_t rows_out) {
    if (stats_ == nullptr) return;
    stats_->rows_in = rows_in;
    stats_->rows_out = rows_out;
  }

  Result<Table> Finish(Result<Table> result) {
    if (stats_ != nullptr) {
      stats_->wall_ms = timer_.ElapsedMillis();
      if (result.ok() && stats_->rows_in == 0 && stats_->rows_out == 0) {
        stats_->rows_out = result.ValueOrDie().num_rows();
      }
    }
    return result;
  }

  /// Finishes a single-batch operator whose kernel produced `out` from
  /// `rows_in` input rows.
  Result<Table> FinishBatch(uint64_t rows_in, Result<ColumnTable> out) {
    if (!out.ok()) return Finish(out.status());
    RecordRows(rows_in, out->num_rows());
    return Finish(Table(std::move(out).MoveValueUnsafe()));
  }

 private:
  ExplainStats* stats_;
  Timer timer_;
};

}  // namespace

Result<Table> Executor::ExecuteNode(const PlanNode& node,
                                    const Catalog& catalog,
                                    ExplainStats* stats) const {
  NodeProfile profile(stats, node);
  // Without a pool the same partitioned operators run inline at one
  // partition.
  const ExecContext ctx{
      options_.pool, options_.pool != nullptr ? options_.num_partitions : 1,
      options_.meter, options_.stage, stats};
  switch (node.kind) {
    case PlanNode::Kind::kScan: {
      ESHARP_ASSIGN_OR_RETURN(const Table* t, catalog.Get(node.table_name));
      profile.RecordRows(t->num_rows(), t->num_rows());
      return profile.Finish(*t);
    }
    case PlanNode::Kind::kValues:
      profile.RecordRows(node.literal_table->num_rows(),
                         node.literal_table->num_rows());
      return profile.Finish(*node.literal_table);
    case PlanNode::Kind::kFilter: {
      ESHARP_ASSIGN_OR_RETURN(
          Table in, ExecuteNode(*node.children[0], catalog, profile.child()));
      return profile.Finish(ParallelFilter(ctx, in, node.predicate));
    }
    case PlanNode::Kind::kProject: {
      ESHARP_ASSIGN_OR_RETURN(
          Table in, ExecuteNode(*node.children[0], catalog, profile.child()));
      return profile.Finish(ParallelProject(ctx, in, node.projections));
    }
    case PlanNode::Kind::kJoin: {
      ESHARP_ASSIGN_OR_RETURN(
          Table left, ExecuteNode(*node.children[0], catalog, profile.child()));
      ESHARP_ASSIGN_OR_RETURN(
          Table right,
          ExecuteNode(*node.children[1], catalog, profile.child()));
      return profile.Finish(ParallelHashJoin(ctx, left, right, node.left_keys,
                                             node.right_keys, node.join_type,
                                             options_.join_strategy));
    }
    case PlanNode::Kind::kAggregate: {
      ESHARP_ASSIGN_OR_RETURN(
          Table in, ExecuteNode(*node.children[0], catalog, profile.child()));
      return profile.Finish(
          ParallelHashAggregate(ctx, in, node.group_keys, node.aggregates));
    }
    case PlanNode::Kind::kDistinct: {
      ESHARP_ASSIGN_OR_RETURN(
          Table in, ExecuteNode(*node.children[0], catalog, profile.child()));
      return profile.FinishBatch(in.num_rows(), ColumnarDistinct(in.columns()));
    }
    case PlanNode::Kind::kSort: {
      ESHARP_ASSIGN_OR_RETURN(
          Table in, ExecuteNode(*node.children[0], catalog, profile.child()));
      return profile.FinishBatch(
          in.num_rows(),
          ColumnarSort(in.columns(), node.sort_keys, node.sort_ascending));
    }
    case PlanNode::Kind::kLimit: {
      ESHARP_ASSIGN_OR_RETURN(
          Table in, ExecuteNode(*node.children[0], catalog, profile.child()));
      return profile.FinishBatch(in.num_rows(),
                                 ColumnarLimit(in.columns(), node.limit));
    }
    case PlanNode::Kind::kUnionAll: {
      ESHARP_ASSIGN_OR_RETURN(
          Table left, ExecuteNode(*node.children[0], catalog, profile.child()));
      ESHARP_ASSIGN_OR_RETURN(
          Table right,
          ExecuteNode(*node.children[1], catalog, profile.child()));
      return profile.FinishBatch(
          left.num_rows() + right.num_rows(),
          ColumnarUnionAll(left.columns(), right.columns()));
    }
    case PlanNode::Kind::kAlias: {
      ESHARP_ASSIGN_OR_RETURN(
          Table in, ExecuteNode(*node.children[0], catalog, profile.child()));
      // Rename on the columnar payload: copies typed vectors, not Values.
      ColumnTable renamed = in.columns();
      Schema& schema = renamed.mutable_schema();
      schema = Schema();
      for (const Column& c : in.schema().columns()) {
        // Strip any previous qualifier, then apply the new one.
        size_t dot = c.name.rfind('.');
        std::string base =
            dot == std::string::npos ? c.name : c.name.substr(dot + 1);
        schema.AddColumn({node.alias + "." + base, c.type});
      }
      return profile.FinishBatch(in.num_rows(), std::move(renamed));
    }
  }
  return Status::Internal("unhandled plan node kind");
}

}  // namespace esharp::sql
