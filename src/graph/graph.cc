#include "graph/graph.h"

#include <cmath>

#include "common/strings.h"

namespace esharp::graph {

VertexId Graph::AddVertex(const std::string& label) {
  auto it = label_index_.find(label);
  if (it != label_index_.end()) return it->second;
  VertexId id = static_cast<VertexId>(labels_.size());
  labels_.push_back(label);
  label_index_.emplace(label, id);
  finalized_ = false;
  return id;
}

Status Graph::AddEdge(VertexId u, VertexId v, double weight) {
  if (u == v) {
    return Status::InvalidArgument("self-loop on vertex ", u, " rejected");
  }
  if (u >= labels_.size() || v >= labels_.size()) {
    return Status::OutOfRange("edge endpoint out of range");
  }
  if (!(weight > 0) || !std::isfinite(weight)) {  // rejects NaN/inf too
    return Status::InvalidArgument("edge weight must be positive and finite");
  }
  if (u > v) std::swap(u, v);
  uint64_t key = (static_cast<uint64_t>(u) << 32) | v;
  auto it = edge_index_.find(key);
  if (it != edge_index_.end()) {
    edges_[it->second].weight += weight;
  } else {
    edge_index_.emplace(key, edges_.size());
    edges_.push_back(Edge{u, v, weight});
  }
  total_weight_ += weight;
  finalized_ = false;
  return Status::OK();
}

void Graph::Finalize() {
  if (finalized_) return;
  adjacency_.assign(labels_.size(), {});
  weighted_degree_.assign(labels_.size(), 0.0);
  for (const Edge& e : edges_) {
    adjacency_[e.u].push_back(Neighbor{e.v, e.weight});
    adjacency_[e.v].push_back(Neighbor{e.u, e.weight});
    weighted_degree_[e.u] += e.weight;
    weighted_degree_[e.v] += e.weight;
  }
  finalized_ = true;
}

Result<VertexId> Graph::FindVertex(const std::string& label) const {
  auto it = label_index_.find(label);
  if (it == label_index_.end()) {
    return Status::NotFound("vertex '", label, "' not in graph");
  }
  return it->second;
}

std::string Graph::SerializeTsv() const {
  std::string out;
  for (const std::string& label : labels_) {
    out += "v\t";
    out += label;
    out += '\n';
  }
  for (const Edge& e : edges_) {
    out += "e\t";
    out += labels_[e.u];
    out += '\t';
    out += labels_[e.v];
    out += '\t';
    out += StrFormat("%.17g", e.weight);
    out += '\n';
  }
  return out;
}

Result<Graph> Graph::ParseTsv(const std::string& tsv) {
  Graph g;
  for (const std::string& line : SplitChar(tsv, '\n')) {
    if (line.empty()) continue;
    std::vector<std::string> fields = SplitChar(line, '\t');
    if (fields[0] == "v") {
      if (fields.size() != 2) {
        return Status::IOError("malformed vertex line: '", line, "'");
      }
      g.AddVertex(fields[1]);
    } else if (fields[0] == "e") {
      if (fields.size() != 4) {
        return Status::IOError("malformed edge line: '", line, "'");
      }
      VertexId u = g.AddVertex(fields[1]);
      VertexId v = g.AddVertex(fields[2]);
      double w = 0;
      try {
        w = std::stod(fields[3]);
      } catch (const std::exception&) {
        return Status::IOError("bad weight in line: '", line, "'");
      }
      ESHARP_RETURN_NOT_OK(g.AddEdge(u, v, w));
    } else {
      return Status::IOError("unknown record type in line: '", line, "'");
    }
  }
  g.Finalize();
  return g;
}

uint64_t Graph::SizeBytes() const {
  uint64_t total = 0;
  for (const std::string& l : labels_) total += l.size() + 8;
  total += edges_.size() * sizeof(Edge);
  return total;
}

}  // namespace esharp::graph
