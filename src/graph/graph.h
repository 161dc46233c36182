#ifndef ESHARP_GRAPH_GRAPH_H_
#define ESHARP_GRAPH_GRAPH_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"

namespace esharp::graph {

/// \brief Vertex identifier (dense, 0-based).
using VertexId = uint32_t;

/// \brief One weighted undirected edge. Stored once with u <= v.
struct Edge {
  VertexId u = 0;
  VertexId v = 0;
  double weight = 0;
};

/// \brief Weighted undirected graph over string-labeled vertices.
///
/// This is the term-similarity graph of §4.1: vertices are query strings,
/// edge weights are click-vector cosine similarities. Adjacency is stored in
/// CSR form after Finalize() so community detection can scan neighborhoods
/// cache-efficiently.
class Graph {
 public:
  /// Registers a vertex label; returns its id (idempotent per label).
  VertexId AddVertex(const std::string& label);

  /// Adds an undirected edge; accumulates weight for duplicate pairs.
  /// Self-loops are rejected.
  Status AddEdge(VertexId u, VertexId v, double weight);

  /// Builds the CSR adjacency. Must be called after all edges are added and
  /// before any adjacency query. Idempotent.
  void Finalize();

  size_t num_vertices() const { return labels_.size(); }
  size_t num_edges() const { return edges_.size(); }

  const std::string& label(VertexId v) const { return labels_[v]; }
  Result<VertexId> FindVertex(const std::string& label) const;

  /// All unique edges (u <= v).
  const std::vector<Edge>& edges() const { return edges_; }

  /// Neighbors of v with weights. Requires Finalize().
  struct Neighbor {
    VertexId id;
    double weight;
  };
  const std::vector<Neighbor>& neighbors(VertexId v) const {
    return adjacency_[v];
  }

  /// Sum of edge weights incident to v (weighted degree). Requires
  /// Finalize().
  double WeightedDegree(VertexId v) const { return weighted_degree_[v]; }

  /// Total edge weight of the graph (sum over unique edges).
  double TotalWeight() const { return total_weight_; }

  /// Serializes to TSV: one "label1<TAB>label2<TAB>weight" line per unique
  /// edge, preceded by one "label" line per vertex (so isolated vertices
  /// survive the round trip).
  std::string SerializeTsv() const;

  /// Parses the TSV form; the result is finalized.
  static Result<Graph> ParseTsv(const std::string& tsv);

  /// Approximate serialized size (for Table 9 accounting).
  uint64_t SizeBytes() const;

 private:
  std::vector<std::string> labels_;
  std::unordered_map<std::string, VertexId> label_index_;
  std::vector<Edge> edges_;
  std::unordered_map<uint64_t, size_t> edge_index_;
  std::vector<std::vector<Neighbor>> adjacency_;
  std::vector<double> weighted_degree_;
  double total_weight_ = 0;
  bool finalized_ = false;
};

}  // namespace esharp::graph

#endif  // ESHARP_GRAPH_GRAPH_H_
