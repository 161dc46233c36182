#include "esharp/esharp.h"

#include "common/strings.h"

namespace esharp::core {

std::vector<std::string> ExpansionVocabulary(
    const community::CommunityStore& store) {
  std::vector<std::string> vocabulary;
  for (const community::Community& c : store.communities()) {
    for (const std::string& term : c.terms) {
      vocabulary.push_back(ToLowerAscii(term));  // as Expand emits it
    }
  }
  return vocabulary;
}

QueryExpansion ESharp::Expand(const std::string& query) const {
  QueryExpansion expansion;
  std::string normalized = ToLowerAscii(query);
  expansion.terms.push_back(normalized);

  Result<const community::Community*> found = store_->Find(normalized);
  if (!found.ok() && options_.match_mode == MatchMode::kPhraseFallback) {
    found = store_->FindPhrase(normalized);
  }
  if (!found.ok()) return expansion;  // no community: degrade to baseline

  expansion.matched = true;
  for (const std::string& term : (*found)->terms) {
    if (expansion.terms.size() >= options_.max_expansion_terms) break;
    if (ToLowerAscii(term) == normalized) continue;  // already first
    expansion.terms.push_back(ToLowerAscii(term));
  }
  return expansion;
}

Result<std::vector<expert::RankedExpert>> ESharp::FindExperts(
    const std::string& query) const {
  QueryExpansion expansion = Expand(query);
  // "we run the expert search for all the related terms separately. We then
  // union the results and rank the experts." (§5)
  std::vector<std::vector<expert::CandidateEvidence>> pools;
  pools.reserve(expansion.terms.size());
  for (const std::string& term : expansion.terms) {
    pools.push_back(detector_.CollectCandidates(term));
  }
  std::vector<expert::CandidateEvidence> merged = MergeEvidence(pools);
  return detector_.RankCandidates(merged);
}

}  // namespace esharp::core
