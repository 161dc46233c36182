#include "community/component_cd.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "community/sql_cd.h"

namespace esharp::community {

namespace {

class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }

  uint32_t Find(uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];  // Path halving.
      x = parent_[x];
    }
    return x;
  }

  void Union(uint32_t a, uint32_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return;
    // Root at the smaller id so component roots are stable min-members.
    if (a > b) std::swap(a, b);
    parent_[b] = a;
  }

 private:
  std::vector<uint32_t> parent_;
};

}  // namespace

Result<DetectionResult> DetectCommunitiesByComponent(
    const graph::Graph& g, const ComponentCdOptions& options) {
  DetectionResult result;
  result.assignment.resize(g.num_vertices());
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    result.assignment[v] = static_cast<CommunityId>(v);
  }
  result.converged = true;
  if (g.num_edges() == 0) return result;

  UnionFind uf(g.num_vertices());
  for (const graph::Edge& e : g.edges()) uf.Union(e.u, e.v);

  // Group vertices and edges by component root. Iterating vertices in
  // ascending id order makes every member list ascending, which the min-id
  // rename equivalence (see header) relies on.
  std::unordered_map<uint32_t, std::vector<graph::VertexId>> members;
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    members[uf.Find(v)].push_back(v);
  }
  std::unordered_map<uint32_t, std::vector<const graph::Edge*>> comp_edges;
  for (const graph::Edge& e : g.edges()) {
    comp_edges[uf.Find(e.u)].push_back(&e);
  }

  // Process components in ascending root order for determinism.
  std::vector<uint32_t> roots;
  roots.reserve(comp_edges.size());
  for (const auto& [root, edges] : comp_edges) roots.push_back(root);
  std::sort(roots.begin(), roots.end());

  const double total_weight = g.TotalWeight();
  for (uint32_t root : roots) {
    const std::vector<graph::VertexId>& verts = members.at(root);
    if (verts.size() < 2) continue;  // Isolated vertex: stays singleton.

    graph::Graph sub;
    std::unordered_map<graph::VertexId, graph::VertexId> local;
    local.reserve(verts.size());
    for (graph::VertexId v : verts) {
      local.emplace(v, sub.AddVertex(g.label(v)));
    }
    for (const graph::Edge* e : comp_edges.at(root)) {
      ESHARP_RETURN_NOT_OK(
          sub.AddEdge(local.at(e->u), local.at(e->v), e->weight));
    }
    sub.Finalize();

    DetectionResult sub_result;
    if (options.use_sql) {
      SqlCdOptions sql;
      sql.max_iterations = options.max_iterations;
      sql.pool = options.pool;
      sql.num_partitions = options.num_partitions;
      sql.meter = options.meter;
      sql.total_weight_override = total_weight;
      ESHARP_ASSIGN_OR_RETURN(sub_result, DetectCommunitiesSql(sub, sql));
    } else {
      ParallelCdOptions par;
      par.max_iterations = options.max_iterations;
      par.pool = options.pool;
      par.num_partitions = options.num_partitions;
      par.meter = options.meter;
      par.total_weight_override = total_weight;
      ESHARP_ASSIGN_OR_RETURN(sub_result, DetectCommunitiesParallel(sub, par));
    }

    // Local community names are local min-member ids; verts is ascending,
    // so indexing it with the local name yields the global min member —
    // exactly the name the full-graph run assigns.
    for (size_t i = 0; i < verts.size(); ++i) {
      result.assignment[verts[i]] = static_cast<CommunityId>(
          verts[sub_result.assignment[i]]);
    }
    result.iterations = std::max(result.iterations, sub_result.iterations);
    result.converged = result.converged && sub_result.converged;
  }
  return result;
}

}  // namespace esharp::community
