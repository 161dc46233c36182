// A full-sort reference ranker: the oracle the randomized ranking test
// compares ExpertDetector::RankCandidates against, bit for bit.
//
// It ranks the way the detector did before top-K selection: a
// RankedExpert for every candidate with its z-scores from
// OnlineStats::ZScore, a full sort by (score descending, user ascending),
// ClusterFilter over the whole sorted list when enabled, then the first
// max_experts at or above min_z_score (none when max_experts is 0).

#ifndef ESHARP_TESTS_RANKING_REFERENCE_H_
#define ESHARP_TESTS_RANKING_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/stats.h"
#include "expert/cluster_filter.h"
#include "expert/detector.h"

namespace esharp::expert::ref {

inline Result<std::vector<RankedExpert>> RankCandidates(
    const microblog::TweetCorpus& corpus, const DetectorOptions& options,
    const std::vector<CandidateEvidence>& candidates) {
  if (candidates.empty()) return std::vector<RankedExpert>{};
  const double eps = options.smoothing;
  if (eps <= 0) return Status::InvalidArgument("smoothing must be positive");

  const bool extended = options.weight_conversation != 0 ||
                        options.weight_hashtag != 0 ||
                        options.weight_followers != 0;
  struct RawFeatures {
    double log_ts, log_mi, log_ri;
    double log_cs = 0, log_hs = 0, log_nf = 0;
  };
  std::vector<RawFeatures> feats(candidates.size());
  OnlineStats ts_stats, mi_stats, ri_stats, cs_stats, hs_stats, nf_stats;
  for (size_t i = 0; i < candidates.size(); ++i) {
    const CandidateEvidence& c = candidates[i];
    double total_tweets = static_cast<double>(corpus.TweetsByUser(c.user));
    double total_mentions =
        static_cast<double>(corpus.MentionsOfUser(c.user));
    double total_retweets =
        static_cast<double>(corpus.RetweetsOfUser(c.user));
    double ts = (static_cast<double>(c.tweets_on_topic) + eps) /
                (total_tweets + eps);
    double mi = (static_cast<double>(c.mentions_on_topic) + eps) /
                (total_mentions + eps);
    double ri = (static_cast<double>(c.retweets_on_topic) + eps) /
                (total_retweets + eps);
    feats[i] = RawFeatures{std::log(ts), std::log(mi), std::log(ri)};
    ts_stats.Add(feats[i].log_ts);
    mi_stats.Add(feats[i].log_mi);
    ri_stats.Add(feats[i].log_ri);
    if (extended) {
      double on_topic = static_cast<double>(c.tweets_on_topic);
      double cs = (static_cast<double>(c.conversational_on_topic) + eps) /
                  (on_topic + eps);
      double hs = (static_cast<double>(c.hashtag_on_topic) + eps) /
                  (on_topic + eps);
      feats[i].log_cs = std::log(cs);
      feats[i].log_hs = std::log(hs);
      feats[i].log_nf = std::log(
          1.0 + static_cast<double>(corpus.user(c.user).followers));
      cs_stats.Add(feats[i].log_cs);
      hs_stats.Add(feats[i].log_hs);
      nf_stats.Add(feats[i].log_nf);
    }
  }

  std::vector<RankedExpert> ranked;
  ranked.reserve(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    RankedExpert e;
    e.user = candidates[i].user;
    e.z_topical_signal = ts_stats.ZScore(feats[i].log_ts);
    e.z_mention_impact = mi_stats.ZScore(feats[i].log_mi);
    e.z_retweet_impact = ri_stats.ZScore(feats[i].log_ri);
    e.score = options.weight_topical_signal * e.z_topical_signal +
              options.weight_mention_impact * e.z_mention_impact +
              options.weight_retweet_impact * e.z_retweet_impact;
    if (extended) {
      e.z_conversation = cs_stats.ZScore(feats[i].log_cs);
      e.z_hashtag = hs_stats.ZScore(feats[i].log_hs);
      e.z_followers = nf_stats.ZScore(feats[i].log_nf);
      e.score += options.weight_conversation * e.z_conversation +
                 options.weight_hashtag * e.z_hashtag +
                 options.weight_followers * e.z_followers;
    }
    ranked.push_back(e);
  }

  std::sort(ranked.begin(), ranked.end(),
            [](const RankedExpert& a, const RankedExpert& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.user < b.user;
            });
  if (options.enable_cluster_filter) ranked = ClusterFilter(ranked);

  std::vector<RankedExpert> out;
  for (const RankedExpert& e : ranked) {
    if (out.size() >= options.max_experts) break;
    if (e.score < options.min_z_score) continue;
    out.push_back(e);
  }
  return out;
}

}  // namespace esharp::expert::ref

#endif  // ESHARP_TESTS_RANKING_REFERENCE_H_
