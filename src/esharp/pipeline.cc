#include "esharp/pipeline.h"

#include <unordered_map>

#include "community/parallel_cd.h"
#include "community/sql_cd.h"
#include "esharp/esharp.h"
#include "obs/obs.h"

namespace esharp::core {

std::vector<community::CommunityId> WarmStartFromStore(
    const graph::Graph& g, const community::CommunityStore& previous) {
  const community::CommunityId kUnmapped =
      static_cast<community::CommunityId>(-1);
  // Old community index -> smallest new vertex id in that group.
  std::unordered_map<size_t, graph::VertexId> group_name;
  std::vector<size_t> old_group(g.num_vertices(), SIZE_MAX);
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    auto found = previous.Find(g.label(v));
    if (!found.ok()) continue;
    size_t index = static_cast<size_t>((*found)->id);
    old_group[v] = index;
    auto it = group_name.find(index);
    if (it == group_name.end() || v < it->second) group_name[index] = v;
  }
  std::vector<community::CommunityId> assignment(g.num_vertices(), kUnmapped);
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    assignment[v] = old_group[v] == SIZE_MAX
                        ? static_cast<community::CommunityId>(v)
                        : static_cast<community::CommunityId>(
                              group_name.at(old_group[v]));
  }
  return assignment;
}

Result<OfflineArtifacts> RunOfflinePipeline(const querylog::QueryLog& log,
                                            const OfflineOptions& options) {
  // /progressz registration: an error return unwinds through the handle and
  // marks the job "aborted"; the happy path finishes it "ok" below.
  std::unique_ptr<obs::JobProgressRegistry::Job> job =
      obs::JobProgressRegistry::Global().Start("offline_pipeline");
  ESHARP_SPAN(job_span, options.tracer, "offline_pipeline",
              options.trace_parent);
  ESHARP_SPAN_ANNOTATE(job_span, "warm_start",
                       options.previous_store != nullptr ? "true" : "false");
  ESHARP_SPAN_ANNOTATE(
      job_span, "backend",
      options.backend == ClusteringBackend::kSqlEngine ? "sql" : "parallel");

  // ---- Extraction (§4.1): click vectors -> similarity graph. -------------
  graph::SimilarityGraphOptions extraction = options.extraction;
  extraction.pool = options.pool;
  extraction.num_partitions = options.num_partitions;
  extraction.meter = options.meter;
  job->SetStage("extract");
  job->SetFraction(0.0);
  ESHARP_SPAN(extract_span, options.tracer, "extract", &job_span);
  ESHARP_ASSIGN_OR_RETURN(graph::Graph g, BuildSimilarityGraph(log, extraction));
  ESHARP_SPAN_ANNOTATE(extract_span, "vertices",
                       static_cast<int64_t>(g.num_vertices()));
  ESHARP_SPAN_ANNOTATE(extract_span, "edges",
                       static_cast<int64_t>(g.num_edges()));
  extract_span.End();

  if (g.num_vertices() == 0) {
    return Status::FailedPrecondition(
        "no query survived the min-count filter; lower min_query_count");
  }

  // ---- Clustering (§4.2): modularity maximization. ------------------------
  job->SetStage("cluster");
  job->SetFraction(0.3);
  ESHARP_SPAN(cluster_span, options.tracer, "cluster", &job_span);
  community::DetectionResult detection;
  std::vector<community::CommunityId> warm_start;
  switch (options.backend) {
    case ClusteringBackend::kParallelNative: {
      community::ParallelCdOptions cd;
      cd.max_iterations = options.max_iterations;
      cd.pool = options.pool;
      cd.num_partitions = options.num_partitions;
      cd.meter = options.meter;
      cd.tracer = options.tracer;
      cd.trace_parent = &cluster_span;
      if (options.previous_store != nullptr) {
        warm_start = WarmStartFromStore(g, *options.previous_store);
        cd.warm_start = &warm_start;
      }
      ESHARP_ASSIGN_OR_RETURN(detection,
                              DetectCommunitiesParallel(g, cd));
      break;
    }
    case ClusteringBackend::kSqlEngine: {
      community::SqlCdOptions cd;
      cd.max_iterations = options.max_iterations;
      cd.pool = options.pool;
      cd.num_partitions = options.num_partitions;
      cd.meter = options.meter;
      cd.tracer = options.tracer;
      cd.trace_parent = &cluster_span;
      cd.explain = options.explain;
      ESHARP_ASSIGN_OR_RETURN(detection, DetectCommunitiesSql(g, cd));
      break;
    }
  }
  ESHARP_SPAN_ANNOTATE(cluster_span, "iterations",
                       static_cast<int64_t>(detection.iterations));
  if (!detection.modularity_per_iteration.empty()) {
    ESHARP_SPAN_ANNOTATE(cluster_span, "modularity",
                         detection.modularity_per_iteration.back());
  }
  cluster_span.End();

  OfflineArtifacts artifacts;
  artifacts.communities_per_iteration = detection.communities_per_iteration;
  artifacts.modularity_per_iteration = detection.modularity_per_iteration;
  job->SetStage("index");
  job->SetFraction(0.9);
  ESHARP_SPAN(index_span, options.tracer, "index", &job_span);
  artifacts.store = community::CommunityStore::Build(g, detection.assignment);
  ESHARP_SPAN_ANNOTATE(index_span, "communities",
                       static_cast<int64_t>(artifacts.store.num_communities()));
  if (options.corpus != nullptr) {
    // Serving fast-path artifact: the expansion vocabulary is closed per
    // store, so every in-vocabulary term's candidate pool can be collected
    // now, once per weekly refresh, instead of once per request.
    expert::TermEvidenceIndex::BuildOptions evidence_options;
    evidence_options.pool = options.pool;
    artifacts.evidence_index =
        std::make_shared<const expert::TermEvidenceIndex>(
            expert::TermEvidenceIndex::Build(
                *options.corpus, ExpansionVocabulary(artifacts.store),
                evidence_options));
    ESHARP_SPAN_ANNOTATE(
        index_span, "evidence_terms",
        static_cast<int64_t>(artifacts.evidence_index->num_terms()));
  }
  index_span.End();
  artifacts.similarity_graph = std::move(g);
  job->SetFraction(1.0);
  job->Finish("ok");
  return artifacts;
}

}  // namespace esharp::core
