#ifndef ESHARP_INGEST_INGEST_H_
#define ESHARP_INGEST_INGEST_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "common/sparse_vector.h"
#include "common/thread_pool.h"
#include "community/store.h"
#include "esharp/pipeline.h"
#include "expert/evidence_index.h"
#include "graph/builder.h"
#include "graph/graph.h"
#include "microblog/corpus.h"
#include "obs/metrics.h"
#include "querylog/log.h"
#include "serving/snapshot.h"

namespace esharp::ingest {

/// \brief Configuration of the streaming ingestion pipeline.
struct IngestOptions {
  /// Extraction knobs (min similarity, hub fanout, min query count). The
  /// incremental graph maintenance honors them exactly — they define the
  /// reference BuildSimilarityGraph output every publish must match.
  graph::SimilarityGraphOptions extraction;
  /// Clustering backend, mirroring OfflineOptions (the equivalence gate
  /// rebuilds with the same backend).
  core::ClusteringBackend backend = core::ClusteringBackend::kParallelNative;
  size_t max_iterations = 30;
  ThreadPool* pool = nullptr;
  size_t num_partitions = 8;
  /// Options of the published serving generations.
  core::ESharpOptions serving;
  /// Ingest gauges (ingest.lag_ms / ingest.backlog / ingest.dirty_terms)
  /// land here; null disables. A TimeSeriesStore sampling this registry
  /// puts them on /graphz.
  obs::MetricsRegistry* metrics = nullptr;
};

/// \brief Accounting of one Publish call.
struct PublishStats {
  uint64_t version = 0;
  /// Appends (tweets + users + log triples) folded into this generation.
  size_t batch_appends = 0;
  size_t batch_tweets = 0;
  /// Vocabulary terms whose evidence pools had to be re-collected because
  /// a batch tweet matched them.
  size_t dirty_terms = 0;
  size_t evidence_reused = 0;
  size_t evidence_rebuilt = 0;
  /// True when the batch touched the query log in a way that changes the
  /// similarity graph (otherwise graph, detection and store are reused
  /// wholesale from the previous generation — zero clustering work).
  bool graph_changed = false;
  size_t graph_vertices = 0;
  size_t graph_edges = 0;
  size_t communities = 0;
  double publish_ms = 0;
};

/// \brief Append-only streaming ingestion: accepts new tweets, users and
/// query-log triples at runtime and publishes delta serving generations
/// through SnapshotManager::Publish at sub-second cadence.
///
/// Every published generation is bit-identical to what the offline
/// pipeline would produce from scratch over the same accumulated inputs
/// (ingest/verify.h proves it; the `ingest` test label and
/// bench/ingest_bench enforce it before any timing). The delta work per
/// publish is proportional to the batch, not the corpus:
///
///  * Corpus: appends go to a copy-on-write tail; Publish freezes it as
///    the new generation and forks a fresh tail. Generations structurally
///    share all untouched chunks and postings (microblog/corpus.h), and
///    the per-user TS/MI/RI denominators are maintained per append.
///  * Evidence: a tweet only changes the pools of vocabulary terms whose
///    tokens it contains (pool = pure function of (corpus, term)), so the
///    pipeline tracks dirty terms per append and Extend() re-collects only
///    those, sharing every clean pool with the previous generation.
///  * Graph: per-query click vectors, url fanout (hub state) and the edge
///    adjacency are maintained incrementally; only queries whose vectors,
///    candidate urls or hub exposure changed are re-scored. A batch that
///    touches no query-log triple leaves the graph bitwise unchanged and
///    the previous store (and its clustering) is republished wholesale.
///  * Clustering: when the graph did change, detection re-runs through the
///    exact per-component decomposition (community/component_cd.h) under
///    the full graph's total weight — bit-identical to a monolithic run.
///    Modularity's global coupling through m_G makes true partial
///    re-clustering impossible under bit-identity (see DESIGN.md), so a
///    changed graph re-clusters every component; the delta win on the
///    clustering stage is skipping it entirely for tweet-only batches.
///
/// Threading: appends and Publish must come from ONE writer thread; any
/// number of query threads may serve concurrently from the manager's
/// published generations (RCU hot-swap). lag_ms()/backlog()/
/// dirty_term_count() are safe from any thread (SLO watchdog sampling).
class IngestPipeline {
 public:
  /// The manager receives every published generation; it may be empty
  /// (constructed with a null corpus) — generations own their corpora.
  IngestPipeline(serving::SnapshotManager* manager, IngestOptions options);
  explicit IngestPipeline(serving::SnapshotManager* manager)
      : IngestPipeline(manager, IngestOptions()) {}

  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  /// Appends one user profile (dense ids, in order — as TweetCorpus).
  microblog::UserId AppendUser(microblog::UserProfile user);

  /// Appends one tweet; returns its corpus id. Marks every vocabulary term
  /// the tweet matches dirty for the next publish.
  uint32_t AppendTweet(microblog::UserId author, std::string text,
                       std::vector<microblog::UserId> mentions = {},
                       uint32_t retweet_count = 0);

  /// Adds to a query's monthly search count (queries keyed by text; first
  /// append registers the query). Crossing the min-count filter makes the
  /// query a graph vertex at the next publish.
  void AppendSearches(const std::string& query, uint64_t count);

  /// Adds clicks for (query, url), accumulating duplicates — one
  /// query-log triple.
  void AppendClicks(const std::string& query, uint32_t url, uint64_t clicks);

  /// Publishes everything appended so far as a new serving generation:
  /// delta evidence + (when needed) re-clustered store + frozen corpus
  /// generation, installed via SnapshotManager::Publish.
  Result<PublishStats> Publish();

  // ---- Introspection (any thread) ----------------------------------------

  /// Appends not yet folded into a published generation.
  size_t backlog() const { return backlog_.load(std::memory_order_relaxed); }

  /// Age of the oldest unpublished append, milliseconds (0 when drained).
  double lag_ms() const;

  /// Vocabulary terms currently marked dirty.
  size_t dirty_term_count() const {
    return dirty_term_count_.load(std::memory_order_relaxed);
  }

  /// Re-exports the ingest gauges from the current counters (the watchdog
  /// and demo call this so sampled lag reflects wall time, not only the
  /// last append).
  void RefreshGauges();

  // ---- Accessors for the equivalence gate / benches (writer thread) ------

  /// The mutable tail corpus (appends since the last publish included).
  const microblog::TweetCorpus& tail() const { return tail_; }

  /// The accumulated query log (replayable: same triples, same ids).
  const querylog::QueryLog& accumulated_log() const { return log_; }

  std::shared_ptr<const microblog::TweetCorpus> published_corpus() const {
    return published_corpus_;
  }
  std::shared_ptr<const graph::Graph> published_graph() const {
    return published_graph_;
  }
  std::shared_ptr<const community::CommunityStore> published_store() const {
    return published_store_;
  }
  std::shared_ptr<const expert::TermEvidenceIndex> published_evidence() const {
    return published_evidence_;
  }
  const std::vector<std::string>& published_vocabulary() const {
    return vocabulary_;
  }

  /// The vocabulary terms (previous published generation's) whose pools a
  /// tweet with this text would dirty. Exposed so the sharded tier can
  /// attribute dirty terms to the shard the tweet routes to.
  std::vector<std::string> DirtyTermsFor(const std::string& text) const;

  const IngestOptions& options() const { return options_; }
  serving::SnapshotManager* manager() const { return manager_; }

 private:
  /// Incremental per-query extraction state, keyed by accumulated-log id.
  struct QueryState {
    std::unordered_map<uint32_t, uint64_t> clicks;  // url -> total clicks
    /// Materialized click vector + norm; survivors only, refreshed lazily
    /// at publish for queries whose clicks changed.
    SparseVector vector;
    double norm = 0;
    bool survivor = false;
    bool vector_stale = false;
  };
  struct UrlState {
    /// Surviving queries with clicks on this url (= the filtered log's
    /// postings list for the url; fanout = size).
    std::unordered_set<uint32_t> clickers;
    bool hub = false;
  };

  uint32_t InternQuery(const std::string& query);
  void PromoteSurvivor(uint32_t qid);
  /// Registers a (survivor, url) pair; flips the url to hub when its
  /// fanout crosses the cap, dirtying every clicker (pairs that were only
  /// discoverable through it lose their witness).
  void AddSurvivorUrl(uint32_t qid, uint32_t url);
  void MarkQueryDirty(uint32_t qid);
  /// Applies the pending dirty-query recomputation to the adjacency.
  void UpdateGraphState();
  /// Materializes the adjacency as a finalized Graph, in the exact vertex
  /// and edge order BuildSimilarityGraph emits.
  Result<graph::Graph> MaterializeGraph() const;
  /// Rebuilds the vocabulary -> token registry used by dirty-term
  /// detection (after each publish that changed the vocabulary).
  void RebuildVocabularyRegistry();
  void NoteAppend();

  serving::SnapshotManager* manager_;
  IngestOptions options_;

  // Corpus tail + last published generation (COW-linked).
  microblog::TweetCorpus tail_;
  std::shared_ptr<const microblog::TweetCorpus> published_corpus_;

  // Accumulated query log + incremental extraction state.
  querylog::QueryLog log_;
  std::vector<QueryState> queries_;
  std::unordered_map<uint32_t, UrlState> urls_;
  /// Edge adjacency over accumulated query ids, both directions.
  std::unordered_map<uint32_t, std::unordered_map<uint32_t, double>> adj_;
  std::unordered_set<uint32_t> dirty_queries_;
  bool graph_dirty_ = true;  // first publish always materializes

  // Published artifacts of the previous generation.
  std::shared_ptr<const graph::Graph> published_graph_;
  std::shared_ptr<const community::CommunityStore> published_store_;
  std::shared_ptr<const expert::TermEvidenceIndex> published_evidence_;

  // Vocabulary of the published generation + dirty-term tracking.
  std::vector<std::string> vocabulary_;
  std::vector<std::vector<std::string>> vocabulary_tokens_;
  std::unordered_map<std::string, std::vector<uint32_t>> token_to_terms_;
  std::unordered_set<std::string> dirty_terms_;

  // Introspection counters (watchdog-thread readable).
  std::atomic<size_t> backlog_{0};
  std::atomic<size_t> dirty_term_count_{0};
  std::atomic<double> oldest_unpublished_seconds_{0};
  size_t batch_tweets_ = 0;
};

}  // namespace esharp::ingest

#endif  // ESHARP_INGEST_INGEST_H_
