// The paper's core systems idea, step by step: community detection as the
// SQL of Fig. 4, executed on the bundled mini SQL engine.
//
// This example builds the similarity graph of the paper's Fig. 3, registers
// the `graph` and `communities` tables, then runs ONE iteration of the
// algorithm statement by statement: each statement's SQL text, its EXPLAIN
// and its materialized result. The statements and UDFs are the ones
// DetectCommunitiesSql executes (community/sql_cd.h). It then runs the
// full loop via DetectCommunitiesSql and cross-checks against the native
// implementation.

#include <cstdio>

#include "community/parallel_cd.h"
#include "community/sql_cd.h"
#include "community/store.h"
#include "sqlengine/catalog.h"
#include "sqlengine/parser.h"

using namespace esharp;
using namespace esharp::sql;

namespace {

// The fictive graph of the paper's Fig. 3: {Football, NFL, 49ers} densely
// connected, {San Francisco, SF Bridge, California} densely connected, one
// weak link between the groups.
graph::Graph Fig3Graph() {
  graph::Graph g;
  auto football = g.AddVertex("football");
  auto nfl = g.AddVertex("nfl");
  auto niners = g.AddVertex("49ers");
  auto sf = g.AddVertex("san francisco");
  auto bridge = g.AddVertex("sf bridge");
  auto california = g.AddVertex("california");
  (void)g.AddEdge(football, nfl, 1.0);
  (void)g.AddEdge(football, niners, 0.9);
  (void)g.AddEdge(nfl, niners, 0.8);
  (void)g.AddEdge(sf, bridge, 1.0);
  (void)g.AddEdge(sf, california, 0.9);
  (void)g.AddEdge(bridge, california, 0.8);
  (void)g.AddEdge(niners, sf, 0.15);  // weak cross-topic link
  g.Finalize();
  return g;
}

Result<Table> GraphTable(const graph::Graph& g) {
  TableBuilder b({{"query1", DataType::kString},
                  {"query2", DataType::kString},
                  {"distance", DataType::kDouble}});
  for (const graph::Edge& e : g.edges()) {
    b.AddRow({Value::String(g.label(e.u)), Value::String(g.label(e.v)),
              Value::Double(e.weight)});
    b.AddRow({Value::String(g.label(e.v)), Value::String(g.label(e.u)),
              Value::Double(e.weight)});
  }
  return b.Build();
}

Result<Table> SingletonCommunities(const graph::Graph& g) {
  TableBuilder b({{"comm_name", DataType::kString},
                  {"query", DataType::kString}});
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    b.AddRow({Value::String(g.label(v)), Value::String(g.label(v))});
  }
  return b.Build();
}

}  // namespace

int main() {
  graph::Graph g = Fig3Graph();

  Result<Table> graph_table = GraphTable(g);
  Result<Table> communities = SingletonCommunities(g);
  if (!graph_table.ok() || !communities.ok()) return 1;
  Catalog catalog;
  catalog.Register("graph", *std::move(graph_table));
  catalog.Register("communities", *std::move(communities));
  const FunctionRegistry functions =
      community::Fig4Functions(g.TotalWeight());
  Executor executor;

  // One iteration: each statement's result is registered under its name,
  // and the last one replaces `communities`.
  for (const community::SqlStatement& statement : community::kFig4Statements) {
    auto plan = ParseSql(statement.sql, functions);
    if (!plan.ok()) return 1;
    auto result = executor.Execute(*plan, catalog);
    if (!result.ok()) return 1;
    std::printf("\n--- %s ---%s\n%s%s", statement.table, statement.sql,
                plan->Explain().c_str(), result->ToString(12).c_str());
    catalog.Register(statement.table, std::move(result).MoveValueUnsafe());
  }

  // Full loop, then cross-check against the native implementation.
  auto sql_result = community::DetectCommunitiesSql(g);
  auto native_result = community::DetectCommunitiesParallel(g);
  if (!sql_result.ok() || !native_result.ok()) return 1;

  std::printf("\n--- final communities (SQL engine) ---\n");
  community::CommunityStore store =
      community::CommunityStore::Build(g, sql_result->assignment);
  for (size_t c = 0; c < store.num_communities(); ++c) {
    std::printf("community %zu: ", c);
    for (const std::string& t : store.community(c).terms) {
      std::printf("[%s] ", t.c_str());
    }
    std::printf("\n");
  }
  bool identical = sql_result->assignment.size() ==
                   native_result->assignment.size();
  for (graph::VertexId v = 0; identical && v < g.num_vertices(); ++v) {
    for (graph::VertexId u = 0; u < v; ++u) {
      bool sql_same = sql_result->assignment[u] == sql_result->assignment[v];
      bool nat_same =
          native_result->assignment[u] == native_result->assignment[v];
      if (sql_same != nat_same) identical = false;
    }
  }
  std::printf("\nSQL and native detection agree: %s\n",
              identical ? "yes" : "NO (bug!)");
  return identical ? 0 : 1;
}
