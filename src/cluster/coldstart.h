#ifndef ESHARP_CLUSTER_COLDSTART_H_
#define ESHARP_CLUSTER_COLDSTART_H_

#include <memory>
#include <string>
#include <vector>

#include "cluster/partition.h"
#include "common/result.h"
#include "community/store.h"
#include "expert/evidence_index.h"
#include "serving/snapshot.h"

namespace esharp::cluster {

/// Per-shard binary snapshots: each shard of the serving tier cold-starts
/// by mapping its own file (serving/snapshot_file.h format) holding its
/// sub-corpus, the replicated community store, and its shard-local
/// term-evidence index. The snapshot builder and the loader
/// derive the same `<prefix>.shard<i>-of-<n>.esnap` names, so a restarted
/// shard process only needs the prefix and its index.
std::string ShardSnapshotPath(const std::string& prefix, uint32_t shard,
                              uint32_t num_shards);

/// Saves one file per shard. `evidence` holds exactly one non-null
/// per-shard index aligned with `partition.shards` (InvalidArgument
/// otherwise).
Status SaveShardSnapshots(
    const PartitionedCorpus& partition,
    const community::CommunityStore& store,
    const std::vector<const expert::TermEvidenceIndex*>& evidence,
    const std::string& prefix);

/// One cold-started shard: its decoded sub-corpus plus a SnapshotManager
/// with generation 1 published (see SnapshotManager::LoadSnapshot for the
/// lifetime semantics).
struct ColdShard {
  std::shared_ptr<microblog::TweetCorpus> corpus;
  std::unique_ptr<serving::SnapshotManager> manager;
  serving::SnapshotFileInfo info;
};

/// Cold-starts every shard of an `num_shards`-way tier from its snapshot
/// file. Fails (naming the shard) if any file is missing, corrupt, or
/// version-skewed — the caller then falls back to the pipeline path.
Result<std::vector<ColdShard>> LoadShardSnapshots(
    const std::string& prefix, uint32_t num_shards,
    core::ESharpOptions options = {});

}  // namespace esharp::cluster

#endif  // ESHARP_CLUSTER_COLDSTART_H_
