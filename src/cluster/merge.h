#ifndef ESHARP_CLUSTER_MERGE_H_
#define ESHARP_CLUSTER_MERGE_H_

#include <vector>

#include "common/result.h"
#include "expert/detector.h"

namespace esharp::cluster {

/// \brief Checks that one shard's pool is something MergeAndRank can
/// rank: sorted-unique by user (the merge invariant below) and every
/// user below `num_users`, the union corpus size the detector indexes its
/// per-user totals with. Evidence that crossed a process boundary is
/// outside input; the router fails the attempt on a violation (IOError)
/// instead of ranking it.
Status CheckShardEvidence(
    const std::vector<expert::CandidateEvidence>& pool, size_t num_users);

/// \brief Merges per-shard evidence pools into the union pool
/// (expert::MergeEvidenceViews) and ranks it once. `detector` must be built
/// over the union corpus (the paper's §3 features divide by corpus-wide
/// per-user totals; partition-local denominators would skew every score).
///
/// Why this is exactly rank-equivalent to an unsharded engine (the
/// cluster test suite proves it bit-identical on randomized worlds):
///
///  1. Shards hold *disjoint* tweet sets covering the source corpus
///     (PartitionCorpus), and every CandidateEvidence count is a sum of
///     per-tweet 0/1 contributions — so summing a user's counts across
///     shards reproduces the unsharded count exactly (uint64 addition is
///     exact and commutative; the is_author/is_mentioned flags OR).
///  2. Every shard expands against the *same shared* CommunityStore, so
///     the expansion term set is identical everywhere, and "tweet matches
///     query" depends only on the tweet's text — a user is a candidate in
///     the union iff it is a candidate on some shard.
///  3. Shard pools arrive sorted-unique by user (the invariant
///     QueryEvidence maintains and CheckShardEvidence enforces), so the
///     merge emits the same ascending-user vector the unsharded detect
///     stage builds.
///  4. Ranking happens once, here, with a detector over the union corpus:
///     TS/MI/RI denominators (per-user corpus totals) and the
///     candidate-pool z-scores see exactly the unsharded inputs, so every
///     double comes out of the same sequence of operations.
///
/// Null entries in `pools` (shards that failed or missed the deadline)
/// are skipped — that is the degraded partial-result mode, which trades
/// completeness, never correctness of the merge itself.
Result<std::vector<expert::RankedExpert>> MergeAndRank(
    const expert::ExpertDetector& detector,
    const std::vector<const std::vector<expert::CandidateEvidence>*>& pools);

}  // namespace esharp::cluster

#endif  // ESHARP_CLUSTER_MERGE_H_
