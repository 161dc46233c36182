#include "expert/detector.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/stats.h"
#include "expert/cluster_filter.h"
#include "common/strings.h"

namespace esharp::expert {

namespace {

/// Dense touched-list scratch for candidate accumulation: slot_of_user maps
/// a user id to its index in the output pool, validated by an epoch stamp
/// so consecutive collections skip the O(num_users) clear. Thread-local —
/// each collecting or merging thread (serving request threads, index-build
/// workers) reuses its own, sized to the largest user id it has seen.
struct EvidenceScratch {
  std::vector<uint64_t> epoch_of_user;
  std::vector<uint32_t> slot_of_user;
  uint64_t epoch = 0;
  /// MergeEvidenceViews only: one bit per user the current merge has seen
  /// (all zero between merges: the merge's sweep clears what it set), and
  /// the merge's accumulation buffer, kept for its capacity.
  std::vector<uint64_t> seen_words;
  std::vector<CandidateEvidence> pooled;

  /// Sizes the scratch for user ids below `num_users` and opens an epoch,
  /// which invalidates every slot of the previous one.
  void Begin(size_t num_users) {
    if (epoch_of_user.size() < num_users) {
      epoch_of_user.resize(num_users, 0);
      slot_of_user.resize(num_users, 0);
    }
    ++epoch;
  }
};
thread_local EvidenceScratch tls_evidence_scratch;

/// Looks up (or creates) the accumulator slot of `user` in `out`.
inline CandidateEvidence* SlotFor(EvidenceScratch& scratch,
                                  std::vector<CandidateEvidence>* out,
                                  microblog::UserId user) {
  if (scratch.epoch_of_user[user] != scratch.epoch) {
    scratch.epoch_of_user[user] = scratch.epoch;
    scratch.slot_of_user[user] = static_cast<uint32_t>(out->size());
    out->emplace_back();
    out->back().user = user;
  }
  return &(*out)[scratch.slot_of_user[user]];
}

}  // namespace

std::optional<std::vector<CandidateEvidence>> ExpertDetector::CollectCandidates(
    const std::vector<microblog::TokenId>& tokens,
    CollectCancel* cancel) const {
  if (cancel != nullptr && cancel->Cancelled()) return std::nullopt;
  std::vector<uint32_t> matching = corpus_->MatchTweets(tokens);

  EvidenceScratch& scratch = tls_evidence_scratch;
  scratch.Begin(corpus_->num_users());

  std::vector<CandidateEvidence> out;
  // Each matching tweet surfaces its author plus its mentions; candidates
  // repeat across tweets, so the match count is a generous upper bound and
  // a cheap way to avoid growth reallocations on head terms.
  out.reserve(std::min<size_t>(matching.size() + 1, corpus_->num_users()));
  size_t since_check = 0;
  for (uint32_t tid : matching) {
    if (cancel != nullptr && ++since_check >= kCollectCancelStride) {
      since_check = 0;
      if (cancel->Cancelled()) return std::nullopt;
    }
    const microblog::Tweet& t = corpus_->tweet(tid);
    CandidateEvidence* author = SlotFor(scratch, &out, t.author);
    author->is_author = true;
    author->tweets_on_topic += 1;
    author->retweets_on_topic += t.retweet_count;
    if (!t.mentions.empty()) author->conversational_on_topic += 1;
    if (t.text.find('#') != std::string::npos) author->hashtag_on_topic += 1;
    for (microblog::UserId m : t.mentions) {
      CandidateEvidence* mentioned = SlotFor(scratch, &out, m);
      mentioned->is_mentioned = true;
      mentioned->mentions_on_topic += 1;
    }
  }

  std::sort(out.begin(), out.end(),
            [](const CandidateEvidence& a, const CandidateEvidence& b) {
              return a.user < b.user;
            });
  return out;
}

std::vector<CandidateEvidence> ExpertDetector::CollectCandidates(
    const std::string& query) const {
  // One normalization pass: lower-case + tokenize + intern here, then the
  // TokenId path — the corpus never sees the raw strings again.
  return *CollectCandidates(corpus_->TokenizeQuery(query));
}

Result<std::vector<RankedExpert>> ExpertDetector::RankCandidates(
    const std::vector<CandidateEvidence>& candidates) const {
  if (candidates.empty()) return std::vector<RankedExpert>{};
  const double eps = options_.smoothing;
  if (eps <= 0) {
    return Status::InvalidArgument("smoothing must be positive");
  }

  // Features per §3: ratios of on-topic to total activity, log-transformed
  // ("the features appear to be log-normally distributed. Therefore, we
  // take their logarithm to obtain Gaussian distributions").
  const bool extended = options_.weight_conversation != 0 ||
                        options_.weight_hashtag != 0 ||
                        options_.weight_followers != 0;
  // Feature-major: feature f of candidate i is log_features[f * n + i].
  enum Feature : size_t { kTs, kMi, kRi, kCs, kHs, kNf, kNumFeatures };
  const size_t n = candidates.size();
  std::vector<double> log_features((extended ? kNumFeatures : kCs) * n);
  OnlineStats stats[kNumFeatures];
  for (size_t i = 0; i < n; ++i) {
    auto put = [&](Feature f, double x) {
      log_features[f * n + i] = x;
      stats[f].Add(x);
    };
    const CandidateEvidence& c = candidates[i];
    double total_tweets =
        static_cast<double>(corpus_->TweetsByUser(c.user));
    double total_mentions =
        static_cast<double>(corpus_->MentionsOfUser(c.user));
    double total_retweets =
        static_cast<double>(corpus_->RetweetsOfUser(c.user));
    double ts = (static_cast<double>(c.tweets_on_topic) + eps) /
                (total_tweets + eps);
    double mi = (static_cast<double>(c.mentions_on_topic) + eps) /
                (total_mentions + eps);
    double ri = (static_cast<double>(c.retweets_on_topic) + eps) /
                (total_retweets + eps);
    put(kTs, std::log(ts));
    put(kMi, std::log(mi));
    put(kRi, std::log(ri));
    if (extended) {
      double on_topic = static_cast<double>(c.tweets_on_topic);
      double cs = (static_cast<double>(c.conversational_on_topic) + eps) /
                  (on_topic + eps);
      double hs = (static_cast<double>(c.hashtag_on_topic) + eps) /
                  (on_topic + eps);
      double nf = std::log(
          1.0 + static_cast<double>(corpus_->user(c.user).followers));
      put(kCs, std::log(cs));
      put(kHs, std::log(hs));
      put(kNf, nf);  // already a log scale
    }
  }

  // OnlineStats::ZScore with each feature's mean and standard deviation
  // hoisted out of the per-candidate loops (one square root per feature).
  double mean[kNumFeatures], sd[kNumFeatures];
  for (size_t f = 0; f < kNumFeatures; ++f) {
    mean[f] = stats[f].Mean();
    sd[f] = stats[f].StdDev();
  }
  auto z = [&](Feature f, size_t i) {
    return sd[f] == 0.0 ? 0.0 : (log_features[f * n + i] - mean[f]) / sd[f];
  };
  // The one scoring expression. Selection reads the scores it computes and
  // the winners' records are rebuilt from it, so both carry the same bits.
  auto rank = [&](size_t i) {
    RankedExpert e;
    e.user = candidates[i].user;
    e.z_topical_signal = z(kTs, i);
    e.z_mention_impact = z(kMi, i);
    e.z_retweet_impact = z(kRi, i);
    e.score = options_.weight_topical_signal * e.z_topical_signal +
              options_.weight_mention_impact * e.z_mention_impact +
              options_.weight_retweet_impact * e.z_retweet_impact;
    if (extended) {
      e.z_conversation = z(kCs, i);
      e.z_hashtag = z(kHs, i);
      e.z_followers = z(kNf, i);
      e.score += options_.weight_conversation * e.z_conversation +
                 options_.weight_hashtag * e.z_hashtag +
                 options_.weight_followers * e.z_followers;
    }
    return e;
  };

  // Top-K: drop the candidates under min_z_score, then order only the
  // first max_experts of the rest (score descending, user ascending). The
  // order is total over distinct users, so this is a full sort's prefix.
  // The cluster filter clusters the whole ranked pool, so with it every
  // candidate is kept and ordered, and the cap and threshold apply after.
  const bool filter = options_.enable_cluster_filter;
  std::vector<double> scores(n);
  std::vector<uint32_t> kept;
  kept.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    scores[i] = rank(i).score;
    if (!filter && scores[i] < options_.min_z_score) continue;
    kept.push_back(static_cast<uint32_t>(i));
  }
  const size_t k =
      filter ? kept.size() : std::min(options_.max_experts, kept.size());
  std::partial_sort(kept.begin(), kept.begin() + k, kept.end(),
                    [&](uint32_t a, uint32_t b) {
                      if (scores[a] != scores[b]) return scores[a] > scores[b];
                      return candidates[a].user < candidates[b].user;
                    });
  std::vector<RankedExpert> ranked;
  ranked.reserve(k);
  for (size_t j = 0; j < k; ++j) ranked.push_back(rank(kept[j]));
  if (!filter) return ranked;

  std::vector<RankedExpert> out;
  for (const RankedExpert& e : ClusterFilter(ranked)) {
    if (out.size() >= options_.max_experts) break;
    if (e.score < options_.min_z_score) continue;
    out.push_back(e);
  }
  return out;
}

Result<std::vector<RankedExpert>> ExpertDetector::FindExperts(
    const std::string& query) const {
  return RankCandidates(CollectCandidates(query));
}

namespace {

inline void AccumulateInto(CandidateEvidence* acc, const CandidateEvidence& c) {
  acc->is_author = acc->is_author || c.is_author;
  acc->is_mentioned = acc->is_mentioned || c.is_mentioned;
  acc->tweets_on_topic += c.tweets_on_topic;
  acc->mentions_on_topic += c.mentions_on_topic;
  acc->retweets_on_topic += c.retweets_on_topic;
  acc->conversational_on_topic += c.conversational_on_topic;
  acc->hashtag_on_topic += c.hashtag_on_topic;
}

bool SortedUniqueByUser(const std::vector<CandidateEvidence>& list) {
  for (size_t i = 1; i < list.size(); ++i) {
    if (list[i - 1].user >= list[i].user) return false;
  }
  return true;
}

/// Restores the sorted-unique invariant for a list produced outside
/// CollectCandidates (sort, then combine equal users in place).
std::vector<CandidateEvidence> Normalize(
    const std::vector<CandidateEvidence>& list) {
  std::vector<CandidateEvidence> sorted = list;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const CandidateEvidence& a, const CandidateEvidence& b) {
                     return a.user < b.user;
                   });
  std::vector<CandidateEvidence> out;
  out.reserve(sorted.size());
  for (const CandidateEvidence& c : sorted) {
    if (!out.empty() && out.back().user == c.user) {
      AccumulateInto(&out.back(), c);
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

std::vector<CandidateEvidence> MergeEvidenceViews(
    const std::vector<const std::vector<CandidateEvidence>*>& lists) {
  const std::vector<CandidateEvidence>* only = nullptr;
  size_t non_empty = 0;
  microblog::UserId min_user = std::numeric_limits<microblog::UserId>::max();
  microblog::UserId max_user = 0;
  for (const std::vector<CandidateEvidence>* list : lists) {
    if (list == nullptr || list->empty()) continue;
    only = list;
    ++non_empty;
    // Pools are sorted, so their ends bound the user-id span.
    min_user = std::min(min_user, list->front().user);
    max_user = std::max(max_user, list->back().user);
  }
  if (non_empty == 0) return {};
  if (non_empty == 1) return *only;  // already sorted with unique users

  // Dense accumulation: one slot per user in first-sighting order, plus a
  // bit per user; sweeping the bits emits the slots in ascending user
  // order. O(pooled entries + user-id span / 64), whatever the pool count.
  EvidenceScratch& scratch = tls_evidence_scratch;
  scratch.Begin(size_t{max_user} + 1);
  const size_t words = max_user / 64 + 1;
  if (scratch.seen_words.size() < words) scratch.seen_words.resize(words, 0);
  std::vector<CandidateEvidence>& pooled = scratch.pooled;
  pooled.clear();
  for (const std::vector<CandidateEvidence>* list : lists) {
    if (list == nullptr) continue;
    for (const CandidateEvidence& c : *list) {
      AccumulateInto(SlotFor(scratch, &pooled, c.user), c);
      scratch.seen_words[c.user / 64] |= uint64_t{1} << (c.user % 64);
    }
  }
  std::vector<CandidateEvidence> out;
  out.reserve(pooled.size());
  for (size_t w = min_user / 64; w < words; ++w) {
    uint64_t bits = scratch.seen_words[w];
    scratch.seen_words[w] = 0;
    for (; bits != 0; bits &= bits - 1) {
      const size_t user = w * 64 + static_cast<size_t>(std::countr_zero(bits));
      out.push_back(pooled[scratch.slot_of_user[user]]);
    }
  }
  return out;
}

std::vector<CandidateEvidence> MergeEvidence(
    const std::vector<std::vector<CandidateEvidence>>& lists) {
  // Lists from CollectCandidates already satisfy the sorted-unique
  // invariant; normalize any caller-built list that does not, preserving
  // the historical any-order contract.
  std::vector<std::vector<CandidateEvidence>> normalized;
  normalized.reserve(lists.size());  // pointer stability for `views`
  std::vector<const std::vector<CandidateEvidence>*> views;
  views.reserve(lists.size());
  for (const std::vector<CandidateEvidence>& list : lists) {
    if (SortedUniqueByUser(list)) {
      views.push_back(&list);
    } else {
      normalized.push_back(Normalize(list));
      views.push_back(&normalized.back());
    }
  }
  return MergeEvidenceViews(views);
}

}  // namespace esharp::expert
