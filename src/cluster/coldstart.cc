#include "cluster/coldstart.h"

#include "common/strings.h"
#include "serving/snapshot_file.h"

namespace esharp::cluster {

std::string ShardSnapshotPath(const std::string& prefix, uint32_t shard,
                              uint32_t num_shards) {
  return prefix + StrFormat(".shard%u-of-%u.esnap", shard, num_shards);
}

Status SaveShardSnapshots(
    const PartitionedCorpus& partition,
    const community::CommunityStore& store,
    const std::vector<const expert::TermEvidenceIndex*>& evidence,
    const std::string& prefix) {
  if (evidence.size() != partition.num_shards()) {
    return Status::InvalidArgument(
        "SaveShardSnapshots: ", evidence.size(), " evidence indexes for ",
        partition.num_shards(), " shards");
  }
  const uint32_t n = static_cast<uint32_t>(partition.num_shards());
  for (uint32_t i = 0; i < n; ++i) {
    ESHARP_RETURN_NOT_OK(serving::SaveSnapshotFile(
        ShardSnapshotPath(prefix, i, n), *partition.shards[i], store,
        evidence[i]));
  }
  return Status::OK();
}

Result<std::vector<ColdShard>> LoadShardSnapshots(
    const std::string& prefix, uint32_t num_shards,
    core::ESharpOptions options) {
  std::vector<ColdShard> shards;
  shards.reserve(num_shards);
  for (uint32_t i = 0; i < num_shards; ++i) {
    const std::string path = ShardSnapshotPath(prefix, i, num_shards);
    Result<serving::SnapshotManager::ColdStartArtifacts> loaded =
        serving::SnapshotManager::LoadSnapshot(path, options);
    if (!loaded.ok()) {
      return Status::IOError("shard ", i, " cold start failed: ",
                             loaded.status().message());
    }
    serving::SnapshotManager::ColdStartArtifacts artifacts =
        loaded.MoveValueUnsafe();
    ColdShard shard;
    shard.corpus = std::move(artifacts.corpus);
    shard.manager = std::move(artifacts.manager);
    shard.info = artifacts.info;
    shards.push_back(std::move(shard));
  }
  return shards;
}

}  // namespace esharp::cluster
