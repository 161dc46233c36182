#ifndef ESHARP_EXPERT_DETECTOR_H_
#define ESHARP_EXPERT_DETECTOR_H_

#include <atomic>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "microblog/corpus.h"

namespace esharp::expert {

/// \brief Raw per-candidate evidence counts for one topic query.
struct CandidateEvidence {
  microblog::UserId user = 0;
  /// Candidate surfaced as an author of a matching tweet, as a mentioned
  /// user in one, or both (§3 candidate selection).
  bool is_author = false;
  bool is_mentioned = false;
  uint64_t tweets_on_topic = 0;
  uint64_t mentions_on_topic = 0;
  uint64_t retweets_on_topic = 0;
  /// Extended evidence (the features Pal & Counts evaluated but e#'s
  /// production build dropped; used by the feature ablation):
  /// on-topic tweets that @-mention someone (conversational).
  uint64_t conversational_on_topic = 0;
  /// on-topic tweets containing a hashtag token.
  uint64_t hashtag_on_topic = 0;
};

/// \brief One ranked expert.
struct RankedExpert {
  microblog::UserId user = 0;
  /// Aggregated z-score (the ranking key).
  double score = 0;
  /// Individual feature z-scores, for inspection and benches.
  double z_topical_signal = 0;
  double z_mention_impact = 0;
  double z_retweet_impact = 0;
  /// Extended-feature z-scores (0 unless the weights below are non-zero).
  double z_conversation = 0;
  double z_hashtag = 0;
  double z_followers = 0;
};

/// \brief Options of the production Pal & Counts detector (§3).
struct DetectorOptions {
  /// Feature weights of the aggregated score ("we used a weighted sum,
  /// using the authors' guidelines"): TS and MI carry the topical evidence,
  /// RI the influence evidence.
  double weight_topical_signal = 0.4;
  double weight_mention_impact = 0.4;
  double weight_retweet_impact = 0.2;
  /// Extended features from Pal & Counts' full taxonomy, off by default —
  /// the production e# build keeps only TS/MI/RI (§3). Setting any of
  /// these non-zero re-enables the corresponding signal:
  /// CS, share of a user's on-topic tweets that converse (@-mention).
  double weight_conversation = 0.0;
  /// HS, share of on-topic tweets carrying a hashtag.
  double weight_hashtag = 0.0;
  /// NF, log follower count (network influence prior).
  double weight_followers = 0.0;
  /// Minimum aggregated z-score for a candidate to be reported. This is the
  /// precision/recall knob of Fig. 9 ("The users must choose a minimum
  /// z-score, under which the experts are rejected").
  double min_z_score = 0.0;
  /// Cap on the number of experts returned (the crowdsourcing study uses
  /// up to 15 per algorithm).
  size_t max_experts = 15;
  /// Laplace smoothing added to feature numerators/denominators so sparse
  /// candidates do not produce 0/0.
  double smoothing = 0.01;
  /// Pal & Counts' optional cluster-analysis filter: keep only the
  /// "authority cluster" of the candidate pool. e#'s production deployment
  /// disables it ("computationally expensive, and ... contrary to our
  /// objective of improving recall", §3); the ablation bench measures the
  /// recall it costs.
  bool enable_cluster_filter = false;
};

/// \brief Cooperative cancellation for candidate collection. The serving
/// layer's per-request deadline cannot interrupt a thread mid-collection;
/// instead the collector polls `Cancelled()` on entry and every
/// `kCollectCancelStride` matching tweets, so one term over a head token's
/// postings cannot blow past the deadline unchecked.
class CollectCancel {
 public:
  virtual ~CollectCancel() = default;
  /// Polled from the collecting thread; once it returns true it should
  /// keep returning true.
  virtual bool Cancelled() = 0;
};

/// How many matching tweets are processed between Cancelled() polls.
inline constexpr size_t kCollectCancelStride = 1024;

/// \brief Production implementation of Pal & Counts' topical-authority
/// detector, simplified per §3 of the e# paper.
///
/// Candidate selection: every author of a tweet matching the query and
/// every user mentioned in one ("a tweet matches a query if it contains all
/// of its terms after lower-casing"). Ranking: features TS (topical
/// signal), MI (mention impact) and RI (retweet impact), log-transformed,
/// z-scored over the candidate pool and combined by weighted sum. The
/// optional cluster-analysis filter of the original paper is deliberately
/// omitted (it is expensive and recall-hostile; §3).
class ExpertDetector {
 public:
  explicit ExpertDetector(const microblog::TweetCorpus* corpus,
                          DetectorOptions options = {})
      : corpus_(corpus), options_(options) {}

  /// Collects candidates and their raw evidence for one query, sorted by
  /// user id. Normalizes (lower-cases, tokenizes, interns) exactly once.
  std::vector<CandidateEvidence> CollectCandidates(
      const std::string& query) const;

  /// Pre-tokenized overload: `tokens` are already lower-cased and interned
  /// (TweetCorpus::TokenizeQuery), so the per-request hot path never
  /// re-normalizes or re-hashes a term. When `cancel` fires mid-collection
  /// the return is nullopt; a null `cancel` never cancels.
  std::optional<std::vector<CandidateEvidence>> CollectCandidates(
      const std::vector<microblog::TokenId>& tokens,
      CollectCancel* cancel = nullptr) const;

  /// Full pipeline for one query: candidates, features, z-scoring, ranking.
  /// Returns at most `max_experts` experts with score >= min_z_score,
  /// best first.
  Result<std::vector<RankedExpert>> FindExperts(const std::string& query) const;

  /// Ranks a pre-collected candidate pool (used by e#, which unions the
  /// pools of several expanded queries before ranking, §5).
  Result<std::vector<RankedExpert>> RankCandidates(
      const std::vector<CandidateEvidence>& candidates) const;

  const DetectorOptions& options() const { return options_; }
  /// Mutable access so harnesses can sweep min_z_score (Fig. 9).
  DetectorOptions* mutable_options() { return &options_; }

  /// The corpus this detector collects from (callers pre-tokenize against
  /// it for the TokenId overload).
  const microblog::TweetCorpus* corpus() const { return corpus_; }

 private:
  const microblog::TweetCorpus* corpus_;
  DetectorOptions options_;
};

/// \brief Merges evidence lists by user, summing counts and OR-ing flags —
/// the union step of e#'s expanded search (§5).
///
/// Lists sorted by user with unique users (the CollectCandidates /
/// TermEvidenceIndex output invariant) merge by dense accumulation with no
/// hashing or sorting; a list that breaks the invariant is normalized
/// first, so the historical any-order contract still holds.
std::vector<CandidateEvidence> MergeEvidence(
    const std::vector<std::vector<CandidateEvidence>>& lists);

/// \brief Zero-copy variant over borrowed pools: what the serving fast path
/// uses to union precomputed (snapshot-owned) and live pools without
/// copying either. Null entries are skipped. Every pool must be sorted by
/// user with unique users: the merge sizes its thread-local scratch by
/// each pool's last user, and a single non-empty pool is returned as is.
std::vector<CandidateEvidence> MergeEvidenceViews(
    const std::vector<const std::vector<CandidateEvidence>*>& lists);

}  // namespace esharp::expert

#endif  // ESHARP_EXPERT_DETECTOR_H_
