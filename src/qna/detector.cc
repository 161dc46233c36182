#include "qna/detector.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/stats.h"
#include "common/strings.h"

namespace esharp::qna {

std::vector<AnswererEvidence> QnaExpertDetector::CollectCandidates(
    const std::string& query) const {
  std::vector<std::string> tokens = SplitWhitespace(ToLowerAscii(query));
  std::vector<uint32_t> questions = corpus_->MatchQuestions(tokens);

  std::unordered_map<UserId, AnswererEvidence> by_user;
  for (uint32_t qid : questions) {
    for (uint32_t aid : corpus_->AnswersOf(qid)) {
      const Answer& a = corpus_->answer(aid);
      AnswererEvidence& ev = by_user[a.author];
      ev.user = a.author;
      ev.answers_on_topic += 1;
      ev.upvotes_on_topic += a.upvotes;
      if (a.accepted) ev.accepts_on_topic += 1;
    }
  }
  std::vector<AnswererEvidence> out;
  out.reserve(by_user.size());
  for (const auto& [uid, ev] : by_user) out.push_back(ev);
  std::sort(out.begin(), out.end(),
            [](const AnswererEvidence& a, const AnswererEvidence& b) {
              return a.user < b.user;
            });
  return out;
}

Result<std::vector<RankedAnswerer>> QnaExpertDetector::RankCandidates(
    const std::vector<AnswererEvidence>& candidates) const {
  if (candidates.empty()) return std::vector<RankedAnswerer>{};
  const double eps = options_.smoothing;
  if (eps <= 0) {
    return Status::InvalidArgument("smoothing must be positive");
  }

  struct Raw {
    double log_as, log_vi, log_ai;
  };
  std::vector<Raw> feats(candidates.size());
  OnlineStats as_stats, vi_stats, ai_stats;
  for (size_t i = 0; i < candidates.size(); ++i) {
    const AnswererEvidence& c = candidates[i];
    double total_answers = static_cast<double>(corpus_->AnswersByUser(c.user));
    double total_upvotes = static_cast<double>(corpus_->UpvotesOfUser(c.user));
    double total_accepts = static_cast<double>(corpus_->AcceptsOfUser(c.user));
    feats[i].log_as = std::log(
        (static_cast<double>(c.answers_on_topic) + eps) / (total_answers + eps));
    feats[i].log_vi = std::log(
        (static_cast<double>(c.upvotes_on_topic) + eps) / (total_upvotes + eps));
    feats[i].log_ai = std::log(
        (static_cast<double>(c.accepts_on_topic) + eps) / (total_accepts + eps));
    as_stats.Add(feats[i].log_as);
    vi_stats.Add(feats[i].log_vi);
    ai_stats.Add(feats[i].log_ai);
  }

  std::vector<RankedAnswerer> ranked;
  ranked.reserve(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    RankedAnswerer r;
    r.user = candidates[i].user;
    r.z_answer_share = as_stats.ZScore(feats[i].log_as);
    r.z_vote_impact = vi_stats.ZScore(feats[i].log_vi);
    r.z_accept_impact = ai_stats.ZScore(feats[i].log_ai);
    r.score = options_.weight_answer_share * r.z_answer_share +
              options_.weight_vote_impact * r.z_vote_impact +
              options_.weight_accept_impact * r.z_accept_impact;
    ranked.push_back(r);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const RankedAnswerer& a, const RankedAnswerer& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.user < b.user;
            });
  std::vector<RankedAnswerer> out;
  for (const RankedAnswerer& r : ranked) {
    if (out.size() >= options_.max_experts) break;
    if (r.score < options_.min_z_score) continue;
    out.push_back(r);
  }
  return out;
}

Result<std::vector<RankedAnswerer>> QnaExpertDetector::FindExperts(
    const std::string& query) const {
  return RankCandidates(CollectCandidates(query));
}

Result<std::vector<RankedAnswerer>> QnaExpertDetector::FindExpertsExpanded(
    const community::CommunityStore& store, const std::string& query,
    size_t max_expansion_terms) const {
  std::vector<std::string> terms = {ToLowerAscii(query)};
  Result<const community::Community*> found = store.Find(query);
  if (found.ok()) {
    for (const std::string& term : (*found)->terms) {
      if (terms.size() >= max_expansion_terms) break;
      if (ToLowerAscii(term) == terms[0]) continue;
      terms.push_back(ToLowerAscii(term));
    }
  }
  std::vector<std::vector<AnswererEvidence>> pools;
  pools.reserve(terms.size());
  for (const std::string& term : terms) {
    pools.push_back(CollectCandidates(term));
  }
  return RankCandidates(MergeQnaEvidence(pools));
}

std::vector<AnswererEvidence> MergeQnaEvidence(
    const std::vector<std::vector<AnswererEvidence>>& lists) {
  std::unordered_map<UserId, AnswererEvidence> by_user;
  for (const auto& list : lists) {
    for (const AnswererEvidence& c : list) {
      AnswererEvidence& acc = by_user[c.user];
      acc.user = c.user;
      acc.answers_on_topic += c.answers_on_topic;
      acc.upvotes_on_topic += c.upvotes_on_topic;
      acc.accepts_on_topic += c.accepts_on_topic;
    }
  }
  std::vector<AnswererEvidence> out;
  out.reserve(by_user.size());
  for (const auto& [uid, ev] : by_user) out.push_back(ev);
  std::sort(out.begin(), out.end(),
            [](const AnswererEvidence& a, const AnswererEvidence& b) {
              return a.user < b.user;
            });
  return out;
}

}  // namespace esharp::qna
