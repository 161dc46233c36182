#include "community/modularity.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <set>

namespace esharp::community {

ModularityContext::ModularityContext(const graph::Graph& g)
    : total_weight_(g.TotalWeight()) {
  assert(total_weight_ > 0 && "graph has no edges");
}

Partition::Partition(const graph::Graph& g) : graph_(&g) {
  assignment_.resize(g.num_vertices());
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    assignment_[v] = static_cast<CommunityId>(v);
  }
  Rebuild();
}

Partition::Partition(const graph::Graph& g, std::vector<CommunityId> assignment)
    : graph_(&g), assignment_(std::move(assignment)) {
  assert(assignment_.size() == g.num_vertices() &&
         "assignment arity must match the graph");
  Rebuild();
}

void Partition::Relabel(
    const std::unordered_map<CommunityId, CommunityId>& relabel) {
  for (CommunityId& c : assignment_) {
    auto it = relabel.find(c);
    if (it != relabel.end()) c = it->second;
  }
  Rebuild();
}

void Partition::Rebuild() {
  degree_sum_.clear();
  internal_weight_.clear();
  for (graph::VertexId v = 0; v < graph_->num_vertices(); ++v) {
    degree_sum_[assignment_[v]] += graph_->WeightedDegree(v);
  }
  for (const graph::Edge& e : graph_->edges()) {
    if (assignment_[e.u] == assignment_[e.v]) {
      internal_weight_[assignment_[e.u]] += e.weight;
    }
  }
}

double Partition::DegreeSum(CommunityId c) const {
  auto it = degree_sum_.find(c);
  return it == degree_sum_.end() ? 0.0 : it->second;
}

double Partition::InternalWeight(CommunityId c) const {
  auto it = internal_weight_.find(c);
  return it == internal_weight_.end() ? 0.0 : it->second;
}

std::unordered_map<uint64_t, double> Partition::InterCommunityWeights() const {
  std::unordered_map<uint64_t, double> out;
  for (const graph::Edge& e : graph_->edges()) {
    CommunityId a = assignment_[e.u], b = assignment_[e.v];
    if (a == b) continue;
    out[PairKey(a, b)] += e.weight;
  }
  return out;
}

size_t Partition::NumCommunities() const { return degree_sum_.size(); }

std::vector<CommunityId> Partition::CommunityIds() const {
  std::vector<CommunityId> out;
  out.reserve(degree_sum_.size());
  for (const auto& [c, d] : degree_sum_) out.push_back(c);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<graph::VertexId> Partition::Members(CommunityId c) const {
  std::vector<graph::VertexId> out;
  for (graph::VertexId v = 0; v < assignment_.size(); ++v) {
    if (assignment_[v] == c) out.push_back(v);
  }
  return out;
}

double Partition::TotalModularity(const ModularityContext& ctx) const {
  double total = 0;
  for (const auto& [c, d] : degree_sum_) {
    total += ctx.CommunityModularity(InternalWeight(c), d);
  }
  return total;
}

double DiscretizedGain(double degree1, double degree2, double weight_between,
                       double total_weight, double scale) {
  // Rescale weights into integer edge multiplicities (footnote 1), then
  // apply Eq. 8/9 verbatim on counts.
  double m12 = std::round(weight_between * scale);
  double d1 = std::round(degree1 * scale);
  double d2 = std::round(degree2 * scale);
  double mg = std::round(total_weight * scale);
  if (mg <= 0) return 0;
  return (m12 - d1 * d2 / (2.0 * mg)) / scale;
}

}  // namespace esharp::community
