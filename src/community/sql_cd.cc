#include "community/sql_cd.h"

#include <charconv>
#include <iterator>

#include "common/strings.h"
#include "common/timer.h"
#include "obs/obs.h"
#include "sqlengine/catalog.h"

namespace esharp::community {

namespace sqlns = esharp::sql;

std::string SqlVertexName(graph::VertexId v) {
  return StrFormat("v%09u", v);
}

sqlns::FunctionRegistry Fig4Functions(double total_weight) {
  sqlns::FunctionRegistry registry;
  registry.RegisterScalar(
      "modulgain",
      [total_weight](const std::vector<sqlns::Value>& args)
          -> Result<sqlns::Value> {
        if (args.size() != 3) {
          return Status::InvalidArgument("modulgain expects 3 arguments");
        }
        ESHARP_ASSIGN_OR_RETURN(double d1, args[0].AsDouble());
        ESHARP_ASSIGN_OR_RETURN(double d2, args[1].AsDouble());
        ESHARP_ASSIGN_OR_RETURN(double w, args[2].AsDouble());
        return sqlns::Value::Double(w - d1 * d2 / (2.0 * total_weight));
      });
  registry.RegisterScalar(
      "least",
      [](const std::vector<sqlns::Value>& args) -> Result<sqlns::Value> {
        if (args.size() != 2) {
          return Status::InvalidArgument("least expects 2 arguments");
        }
        if (args[0].is_null()) return args[1];
        if (args[1].is_null()) return args[0];
        return args[0].Compare(args[1]) <= 0 ? args[0] : args[1];
      });
  return registry;
}

namespace {

// graph(query1, query2, distance): both directions of every edge.
Result<sqlns::Table> BuildGraphTable(const graph::Graph& g) {
  sqlns::TableBuilder b({{"query1", sqlns::DataType::kString},
                         {"query2", sqlns::DataType::kString},
                         {"distance", sqlns::DataType::kDouble}});
  for (const graph::Edge& e : g.edges()) {
    b.AddRow({sqlns::Value::String(SqlVertexName(e.u)),
              sqlns::Value::String(SqlVertexName(e.v)),
              sqlns::Value::Double(e.weight)});
    b.AddRow({sqlns::Value::String(SqlVertexName(e.v)),
              sqlns::Value::String(SqlVertexName(e.u)),
              sqlns::Value::Double(e.weight)});
  }
  return b.Build();
}

// communities(comm_name, query): singleton initialization.
Result<sqlns::Table> BuildInitialCommunities(const graph::Graph& g) {
  sqlns::TableBuilder b({{"comm_name", sqlns::DataType::kString},
                         {"query", sqlns::DataType::kString}});
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    b.AddRow({sqlns::Value::String(SqlVertexName(v)),
              sqlns::Value::String(SqlVertexName(v))});
  }
  return b.Build();
}

// Inverse of SqlVertexName.
Result<uint32_t> ParseVertexName(const std::string& name) {
  if (!name.empty() && name[0] == 'v') {
    uint32_t id = 0;
    const char* end = name.data() + name.size();
    auto [ptr, ec] = std::from_chars(name.data() + 1, end, id);
    if (ec == std::errc() && ptr == end) return id;
  }
  return Status::Internal("not a vertex name: '", name, "'");
}

// Decodes communities(comm_name, query) into one community id per vertex.
Result<std::vector<CommunityId>> DecodeAssignment(const sqlns::Table& table,
                                                  size_t num_vertices) {
  ESHARP_ASSIGN_OR_RETURN(size_t comm_idx, table.schema().IndexOf("comm_name"));
  ESHARP_ASSIGN_OR_RETURN(size_t query_idx, table.schema().IndexOf("query"));
  const sqlns::ColumnVec& comm = table.columns().col(comm_idx);
  const sqlns::ColumnVec& query = table.columns().col(query_idx);
  if (table.num_rows() != num_vertices ||
      comm.type != sqlns::DataType::kString ||
      query.type != sqlns::DataType::kString || comm.nulls.AnyNull() ||
      query.nulls.AnyNull()) {
    return Status::Internal("communities table is not one name per vertex");
  }
  std::vector<CommunityId> assignment(num_vertices);
  for (size_t i = 0; i < num_vertices; ++i) {
    ESHARP_ASSIGN_OR_RETURN(uint32_t vertex,
                            ParseVertexName(query.dict->at(query.str_ids[i])));
    if (vertex >= num_vertices) {
      return Status::Internal("vertex out of range in communities table");
    }
    ESHARP_ASSIGN_OR_RETURN(assignment[vertex],
                            ParseVertexName(comm.dict->at(comm.str_ids[i])));
  }
  return assignment;
}

}  // namespace

Result<DetectionResult> DetectCommunitiesSql(const graph::Graph& g,
                                             const SqlCdOptions& options) {
  if (g.num_vertices() == 0) {
    return Status::InvalidArgument("empty graph");
  }
  Timer timer;
  const double total_weight = options.total_weight_override > 0
                                  ? options.total_weight_override
                                  : g.TotalWeight();

  const sqlns::FunctionRegistry functions = Fig4Functions(total_weight);
  std::vector<sqlns::Plan> plans;
  for (const SqlStatement& statement : kFig4Statements) {
    ESHARP_ASSIGN_OR_RETURN(sqlns::Plan plan,
                            sqlns::ParseSql(statement.sql, functions));
    plans.push_back(std::move(plan));
  }
  constexpr size_t kNeighbors = 1;
  constexpr size_t kRename = std::size(kFig4Statements) - 1;

  sqlns::Catalog catalog;
  {
    ESHARP_ASSIGN_OR_RETURN(sqlns::Table graph_table, BuildGraphTable(g));
    ESHARP_ASSIGN_OR_RETURN(sqlns::Table communities_table,
                            BuildInitialCommunities(g));
    catalog.Register("graph", std::move(graph_table));
    catalog.Register("communities", std::move(communities_table));
  }

  sqlns::ExecutorOptions exec_options;
  exec_options.pool = options.pool;
  exec_options.num_partitions = options.num_partitions;
  exec_options.join_strategy = options.join_strategy;
  exec_options.meter = options.meter;
  exec_options.stage = "Clustering";
  const sqlns::Executor executor(exec_options);

  // Counts and modularity come from the decoded assignment, with the same
  // bookkeeping and m_G the native implementation uses.
  const ModularityContext ctx(total_weight);
  DetectionResult result;
  auto record = [&](const Partition& partition) {
    result.communities_per_iteration.push_back(partition.NumCommunities());
    result.modularity_per_iteration.push_back(
        total_weight > 0 ? partition.TotalModularity(ctx) : 0.0);
  };
  Partition partition(g);
  record(partition);

  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    ESHARP_SPAN(iter_span, options.tracer, "iteration", options.trace_parent);
    ESHARP_SPAN_ANNOTATE(iter_span, "iteration", static_cast<int64_t>(iter));
    for (size_t s = 0; s < kRename; ++s) {
      // The first iteration's neighbors statement doubles as the EXPLAIN
      // ANALYZE sample when the caller asked for one.
      ESHARP_ASSIGN_OR_RETURN(
          sqlns::Table table,
          executor.Execute(plans[s], catalog,
                           iter == 0 && s == kNeighbors ? options.explain
                                                        : nullptr));
      catalog.Register(kFig4Statements[s].table, std::move(table));
    }
    ESHARP_ASSIGN_OR_RETURN(sqlns::Table renamed,
                            executor.Execute(plans[kRename], catalog));
    ESHARP_ASSIGN_OR_RETURN(std::vector<CommunityId> assignment,
                            DecodeAssignment(renamed, g.num_vertices()));
    catalog.Register("communities", std::move(renamed));

    // Converged when no vertex changed community.
    bool changed = false;
    for (graph::VertexId v = 0; v < g.num_vertices() && !changed; ++v) {
      changed = assignment[v] != partition.CommunityOf(v);
    }
    if (!changed) {
      ESHARP_SPAN_ANNOTATE(iter_span, "converged", "true");
      result.converged = true;
      break;
    }
    partition = Partition(g, std::move(assignment));
    ++result.iterations;
    record(partition);
    ESHARP_SPAN_ANNOTATE(iter_span, "communities",
                         static_cast<int64_t>(partition.NumCommunities()));
    ESHARP_SPAN_ANNOTATE(iter_span, "modularity",
                         result.modularity_per_iteration.back());
  }

  result.assignment.resize(g.num_vertices());
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    result.assignment[v] = partition.CommunityOf(v);
  }

  if (options.meter != nullptr) {
    options.meter->AddTime("Clustering", timer.ElapsedSeconds());
    ESHARP_ASSIGN_OR_RETURN(const sqlns::Table* graph_table,
                            catalog.Get("graph"));
    ESHARP_ASSIGN_OR_RETURN(const sqlns::Table* final_table,
                            catalog.Get("communities"));
    options.meter->AddIO("Clustering", graph_table->SizeBytes(),
                         final_table->SizeBytes());
    options.meter->SetParallelism(
        "Clustering", options.pool != nullptr ? options.num_partitions : 1);
  }
  return result;
}

}  // namespace esharp::community
