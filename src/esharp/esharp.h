#ifndef ESHARP_ESHARP_ESHARP_H_
#define ESHARP_ESHARP_ESHARP_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/timer.h"
#include "community/store.h"
#include "expert/detector.h"

namespace esharp::core {

/// \brief Outcome of expanding one query against the community store.
struct QueryExpansion {
  /// True when a community matched the query (exact, lower-cased, §5).
  bool matched = false;
  /// All terms searched: the original query first, then community siblings.
  std::vector<std::string> terms;
};

/// \brief How queries are matched against the community store (§5).
enum class MatchMode {
  /// The paper's production setting: "purposely conservative" exact match
  /// of the whole lower-cased query string.
  kExactOnly,
  /// Extension: when the exact match misses, look for a community term
  /// containing the query tokens "exactly and in order" as a phrase.
  kPhraseFallback,
};

/// \brief Options of the online stage.
struct ESharpOptions {
  /// Cap on expansion terms per query (head communities can be large).
  size_t max_expansion_terms = 30;
  /// Query-to-community matching behavior.
  MatchMode match_mode = MatchMode::kExactOnly;
  /// Detector configuration (shared by baseline and expanded searches).
  expert::DetectorOptions detector;
};

/// \brief The expansion vocabulary of `store`: every term ESharp::Expand
/// can emit as a community sibling, normalized the way Expand normalizes
/// it, in store order (community by community, each community's terms in
/// order). It is closed per store, so the evidence index of a serving
/// generation is built over exactly these terms.
std::vector<std::string> ExpansionVocabulary(
    const community::CommunityStore& store);

/// \brief The e# system: a community store + a baseline detector, composed
/// per Fig. 1's online stage.
///
/// FindExperts matches the query to its expertise domain (exact match on
/// the lower-cased query string), runs the baseline expert search once per
/// domain term, unions the candidate pools, and ranks the union with the
/// usual z-scored features. When no community matches, e# degrades to the
/// plain baseline — by construction it never returns fewer candidates.
class ESharp {
 public:
  ESharp(const community::CommunityStore* store,
         const microblog::TweetCorpus* corpus, ESharpOptions options = {})
      : store_(store),
        detector_(corpus, options.detector),
        options_(options) {}

  /// Expands a query against the store (§5).
  QueryExpansion Expand(const std::string& query) const;

  /// Full e# search: expansion + union + ranking.
  Result<std::vector<expert::RankedExpert>> FindExperts(
      const std::string& query) const;

  /// The underlying baseline detector (for side-by-side comparisons).
  const expert::ExpertDetector& detector() const { return detector_; }
  expert::ExpertDetector* mutable_detector() { return &detector_; }

  const ESharpOptions& options() const { return options_; }

 private:
  const community::CommunityStore* store_;
  expert::ExpertDetector detector_;
  ESharpOptions options_;
};

}  // namespace esharp::core

#endif  // ESHARP_ESHARP_ESHARP_H_
