#include "ingest/verify.h"

#include <cstring>
#include <utility>

#include "common/strings.h"
#include "community/parallel_cd.h"
#include "community/sql_cd.h"
#include "esharp/esharp.h"
#include "graph/builder.h"

namespace esharp::ingest {

namespace {

/// Bitwise double comparison: the gate's claim is bit-identity, so two
/// NaNs compare equal and +0/-0 do not.
bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

Status CompareCorpora(const microblog::TweetCorpus& got,
                      const microblog::TweetCorpus& want) {
  if (got.num_users() != want.num_users() ||
      got.num_tweets() != want.num_tweets() ||
      got.num_tokens() != want.num_tokens()) {
    return Status::Internal(StrFormat(
        "corpus shape: got %zu users/%zu tweets/%zu tokens, want %zu/%zu/%zu",
        got.num_users(), got.num_tweets(), got.num_tokens(), want.num_users(),
        want.num_tweets(), want.num_tokens()));
  }
  std::vector<std::string> got_tokens = got.TokenStrings();
  std::vector<std::string> want_tokens = want.TokenStrings();
  if (got_tokens != want_tokens) {
    return Status::Internal("token dictionaries diverge");
  }
  for (microblog::TokenId t = 0; t < got.num_tokens(); ++t) {
    if (got.Postings(t) != want.Postings(t)) {
      return Status::Internal(
          StrFormat("postings diverge for token '%s'", got_tokens[t].c_str()));
    }
  }
  for (microblog::UserId u = 0; u < got.num_users(); ++u) {
    if (got.TweetsByUser(u) != want.TweetsByUser(u) ||
        got.MentionsOfUser(u) != want.MentionsOfUser(u) ||
        got.RetweetsOfUser(u) != want.RetweetsOfUser(u)) {
      return Status::Internal(
          StrFormat("per-user totals diverge for user %u", u));
    }
  }
  for (uint32_t i = 0; i < got.num_tweets(); ++i) {
    const microblog::Tweet& a = got.tweet(i);
    const microblog::Tweet& b = want.tweet(i);
    if (a.author != b.author || a.text != b.text ||
        a.mentions != b.mentions || a.retweet_count != b.retweet_count) {
      return Status::Internal(StrFormat("tweet %u diverges", i));
    }
  }
  return Status::OK();
}

Status CompareGraphs(const graph::Graph& got, const graph::Graph& want) {
  if (got.num_vertices() != want.num_vertices()) {
    return Status::Internal(StrFormat("graph vertices: got %zu want %zu",
                                      got.num_vertices(),
                                      want.num_vertices()));
  }
  for (graph::VertexId v = 0; v < got.num_vertices(); ++v) {
    if (got.label(v) != want.label(v)) {
      return Status::Internal(StrFormat(
          "vertex %u label: got '%s' want '%s'", v, got.label(v).c_str(),
          want.label(v).c_str()));
    }
  }
  if (got.num_edges() != want.num_edges()) {
    return Status::Internal(StrFormat("graph edges: got %zu want %zu",
                                      got.num_edges(), want.num_edges()));
  }
  for (size_t i = 0; i < got.edges().size(); ++i) {
    const graph::Edge& a = got.edges()[i];
    const graph::Edge& b = want.edges()[i];
    if (a.u != b.u || a.v != b.v || !BitEqual(a.weight, b.weight)) {
      return Status::Internal(StrFormat(
          "edge %zu diverges: got (%u,%u,%.17g) want (%u,%u,%.17g)", i, a.u,
          a.v, a.weight, b.u, b.v, b.weight));
    }
  }
  if (!BitEqual(got.TotalWeight(), want.TotalWeight())) {
    return Status::Internal(StrFormat("TotalWeight: got %.17g want %.17g",
                                      got.TotalWeight(), want.TotalWeight()));
  }
  return Status::OK();
}

Status CompareStores(const community::CommunityStore& got,
                     const community::CommunityStore& want) {
  if (got.num_communities() != want.num_communities()) {
    return Status::Internal(StrFormat("communities: got %zu want %zu",
                                      got.num_communities(),
                                      want.num_communities()));
  }
  for (size_t i = 0; i < got.num_communities(); ++i) {
    if (got.community(i).terms != want.community(i).terms) {
      return Status::Internal(StrFormat("community %zu terms diverge", i));
    }
  }
  std::vector<std::pair<uint64_t, double>> got_inter = got.InterWeights();
  std::vector<std::pair<uint64_t, double>> want_inter = want.InterWeights();
  if (got_inter.size() != want_inter.size()) {
    return Status::Internal("inter-community weight counts diverge");
  }
  for (size_t i = 0; i < got_inter.size(); ++i) {
    if (got_inter[i].first != want_inter[i].first ||
        !BitEqual(got_inter[i].second, want_inter[i].second)) {
      return Status::Internal("inter-community weights diverge");
    }
  }
  return Status::OK();
}

Status CompareEvidence(const expert::TermEvidenceIndex& got,
                       const expert::TermEvidenceIndex& want) {
  std::vector<std::string> got_terms = got.TermStrings();
  std::vector<std::string> want_terms = want.TermStrings();
  if (got_terms != want_terms) {
    return Status::Internal(StrFormat("evidence term sets: got %zu want %zu",
                                      got_terms.size(), want_terms.size()));
  }
  for (size_t i = 0; i < got_terms.size(); ++i) {
    const std::vector<expert::CandidateEvidence>& a = got.pool(i);
    const std::vector<expert::CandidateEvidence>& b = want.pool(i);
    if (a.size() != b.size()) {
      return Status::Internal(StrFormat("pool '%s': got %zu want %zu entries",
                                        got_terms[i].c_str(), a.size(),
                                        b.size()));
    }
    for (size_t j = 0; j < a.size(); ++j) {
      if (a[j].user != b[j].user || a[j].is_author != b[j].is_author ||
          a[j].is_mentioned != b[j].is_mentioned ||
          a[j].tweets_on_topic != b[j].tweets_on_topic ||
          a[j].mentions_on_topic != b[j].mentions_on_topic ||
          a[j].retweets_on_topic != b[j].retweets_on_topic ||
          a[j].conversational_on_topic != b[j].conversational_on_topic ||
          a[j].hashtag_on_topic != b[j].hashtag_on_topic) {
        return Status::Internal(StrFormat("pool '%s' entry %zu diverges",
                                          got_terms[i].c_str(), j));
      }
    }
  }
  return Status::OK();
}

Status CompareRanked(const std::vector<expert::RankedExpert>& got,
                     const std::vector<expert::RankedExpert>& want,
                     const std::string& query) {
  if (got.size() != want.size()) {
    return Status::Internal(StrFormat("query '%s': got %zu want %zu experts",
                                      query.c_str(), got.size(),
                                      want.size()));
  }
  for (size_t i = 0; i < got.size(); ++i) {
    const expert::RankedExpert& a = got[i];
    const expert::RankedExpert& b = want[i];
    if (a.user != b.user || !BitEqual(a.score, b.score) ||
        !BitEqual(a.z_topical_signal, b.z_topical_signal) ||
        !BitEqual(a.z_mention_impact, b.z_mention_impact) ||
        !BitEqual(a.z_retweet_impact, b.z_retweet_impact)) {
      return Status::Internal(
          StrFormat("query '%s' rank %zu diverges: got user %u score %.17g, "
                    "want user %u score %.17g",
                    query.c_str(), i, a.user, a.score, b.user, b.score));
    }
  }
  return Status::OK();
}

Result<RebuildArtifacts> RebuildFromScratch(const IngestPipeline& pipeline) {
  if (pipeline.backlog() != 0) {
    return Status::FailedPrecondition(
        "RebuildFromScratch on an undrained pipeline: Publish() first so the "
        "rebuild targets exactly the published generation");
  }
  std::shared_ptr<const microblog::TweetCorpus> published =
      pipeline.published_corpus();
  if (published == nullptr) {
    return Status::FailedPrecondition(
        "RebuildFromScratch before the first Publish()");
  }
  const IngestOptions& options = pipeline.options();

  RebuildArtifacts out;
  // Replay the corpus append-by-append. Replay determinism is the corpus's
  // own contract: same sequence => same dense ids, token ids, postings and
  // totals.
  auto corpus = std::make_shared<microblog::TweetCorpus>();
  for (microblog::UserId u = 0; u < published->num_users(); ++u) {
    corpus->AddUser(published->user(u));
  }
  for (uint32_t i = 0; i < published->num_tweets(); ++i) {
    const microblog::Tweet& t = published->tweet(i);
    corpus->AddTweet(t.author, t.text, t.mentions, t.retweet_count);
  }
  out.corpus = std::move(corpus);

  // Full extraction from the accumulated log (the reference the
  // incremental adjacency must reproduce).
  graph::SimilarityGraphOptions extraction = options.extraction;
  extraction.pool = options.pool;
  extraction.num_partitions = options.num_partitions;
  ESHARP_ASSIGN_OR_RETURN(
      graph::Graph g,
      graph::BuildSimilarityGraph(pipeline.accumulated_log(), extraction));
  out.graph = std::make_shared<const graph::Graph>(std::move(g));

  // Monolithic full-graph detection, cold — deliberately NOT the
  // per-component decomposition the ingest path runs, so the gate also
  // re-proves component CD == monolithic CD on every verified corpus.
  community::DetectionResult detection;
  if (out.graph->num_vertices() > 0) {
    if (options.backend == core::ClusteringBackend::kSqlEngine) {
      community::SqlCdOptions cd;
      cd.max_iterations = options.max_iterations;
      cd.pool = options.pool;
      cd.num_partitions = options.num_partitions;
      ESHARP_ASSIGN_OR_RETURN(detection,
                              DetectCommunitiesSql(*out.graph, cd));
    } else {
      community::ParallelCdOptions cd;
      cd.max_iterations = options.max_iterations;
      cd.pool = options.pool;
      cd.num_partitions = options.num_partitions;
      ESHARP_ASSIGN_OR_RETURN(detection,
                              DetectCommunitiesParallel(*out.graph, cd));
    }
  }
  out.store = std::make_shared<const community::CommunityStore>(
      community::CommunityStore::Build(*out.graph, detection.assignment));

  out.vocabulary = core::ExpansionVocabulary(*out.store);
  expert::TermEvidenceIndex::BuildOptions evidence_options;
  evidence_options.pool = options.pool;
  out.evidence = std::make_shared<const expert::TermEvidenceIndex>(
      expert::TermEvidenceIndex::Build(*out.corpus, out.vocabulary,
                                       evidence_options));
  return out;
}

Status VerifyAgainstRebuild(const IngestPipeline& pipeline,
                            const std::vector<std::string>& probe_queries) {
  ESHARP_ASSIGN_OR_RETURN(RebuildArtifacts rebuilt,
                          RebuildFromScratch(pipeline));

  ESHARP_RETURN_NOT_OK(
      CompareCorpora(*pipeline.published_corpus(), *rebuilt.corpus));
  ESHARP_RETURN_NOT_OK(
      CompareGraphs(*pipeline.published_graph(), *rebuilt.graph));
  ESHARP_RETURN_NOT_OK(
      CompareStores(*pipeline.published_store(), *rebuilt.store));
  if (pipeline.published_vocabulary() != rebuilt.vocabulary) {
    return Status::Internal("published vocabulary diverges from rebuild");
  }
  ESHARP_RETURN_NOT_OK(
      CompareEvidence(*pipeline.published_evidence(), *rebuilt.evidence));

  // Ranked probes: the live snapshot (delta world, end to end through the
  // serving tier) against a reference e# assembled purely from the rebuilt
  // artifacts.
  std::shared_ptr<const serving::ServingSnapshot> snapshot =
      pipeline.manager()->Acquire();
  if (snapshot == nullptr) {
    return Status::Internal("manager has no published generation");
  }
  core::ESharp reference(rebuilt.store.get(), rebuilt.corpus.get(),
                         pipeline.options().serving);
  for (const std::string& query : probe_queries) {
    ESHARP_ASSIGN_OR_RETURN(std::vector<expert::RankedExpert> got,
                            snapshot->esharp().FindExperts(query));
    ESHARP_ASSIGN_OR_RETURN(std::vector<expert::RankedExpert> want,
                            reference.FindExperts(query));
    ESHARP_RETURN_NOT_OK(CompareRanked(got, want, query));
  }
  return Status::OK();
}

}  // namespace esharp::ingest
