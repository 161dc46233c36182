#include "cluster/merge.h"

namespace esharp::cluster {

Status CheckShardEvidence(
    const std::vector<expert::CandidateEvidence>& pool, size_t num_users) {
  for (size_t i = 0; i < pool.size(); ++i) {
    if (pool[i].user >= num_users) {
      return Status::IOError("shard evidence names user ", pool[i].user,
                             " of a ", num_users, "-user union corpus");
    }
    if (i > 0 && pool[i].user <= pool[i - 1].user) {
      return Status::IOError("shard evidence not sorted-unique by user at ",
                             "entry ", i, " (user ", pool[i].user,
                             " after ", pool[i - 1].user, ")");
    }
  }
  return Status::OK();
}

Result<std::vector<expert::RankedExpert>> MergeAndRank(
    const expert::ExpertDetector& detector,
    const std::vector<const std::vector<expert::CandidateEvidence>*>& pools) {
  return detector.RankCandidates(expert::MergeEvidenceViews(pools));
}

}  // namespace esharp::cluster
