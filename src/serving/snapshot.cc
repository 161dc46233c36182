#include "serving/snapshot.h"

#include "common/strings.h"
#include "obs/event_log.h"

namespace esharp::serving {

uint64_t SnapshotManager::Publish(
    std::shared_ptr<const community::CommunityStore> store,
    core::ESharpOptions options,
    std::shared_ptr<const expert::TermEvidenceIndex> evidence) {
  return Publish(std::move(store), nullptr, options, std::move(evidence));
}

uint64_t SnapshotManager::Publish(
    std::shared_ptr<const community::CommunityStore> store,
    std::shared_ptr<const microblog::TweetCorpus> corpus,
    core::ESharpOptions options,
    std::shared_ptr<const expert::TermEvidenceIndex> evidence) {
  // Publishes serialize so the pointer and the counter advance together:
  // two unserialized publishers could otherwise install snapshots out of
  // version order, leaving current_ a generation behind version_ — readers
  // would then judge every cache entry stale until the next publish.
  // Acquire() never takes this lock.
  std::lock_guard<std::mutex> lock(publish_mu_);
  const microblog::TweetCorpus* generation_corpus =
      corpus != nullptr ? corpus.get() : corpus_;
  if (evidence == nullptr) {
    // Precompute every expansion-vocabulary term's candidate pool so the
    // engine's detect stage is a lookup for in-vocabulary terms. Runs on
    // the publisher's thread under the publish lock — the weekly refresh
    // path, not a query path. Without a corpus nothing can be collected.
    evidence = std::make_shared<const expert::TermEvidenceIndex>(
        generation_corpus != nullptr
            ? expert::TermEvidenceIndex::Build(
                  *generation_corpus, core::ExpansionVocabulary(*store))
            : expert::TermEvidenceIndex());
  }
  uint64_t version = next_version_++;
  auto snapshot =
      corpus != nullptr
          ? std::make_shared<const ServingSnapshot>(version, std::move(store),
                                                    std::move(corpus), options,
                                                    std::move(evidence))
          : std::make_shared<const ServingSnapshot>(version, std::move(store),
                                                    corpus_, options,
                                                    std::move(evidence));
  current_.store(std::move(snapshot), std::memory_order_release);
  // version_ trails the pointer: once a reader observes version N it can
  // Acquire() a snapshot at least that new (possibly newer, never older).
  version_.store(version, std::memory_order_release);
  obs::EventLog::Global().Add(
      obs::LogLevel::kINFO, "serving", "snapshot published",
      {{"version", StrFormat("%llu", static_cast<unsigned long long>(
                                         version))}});
  return version;
}

uint64_t SnapshotManager::Publish(
    community::CommunityStore store, core::ESharpOptions options,
    std::shared_ptr<const expert::TermEvidenceIndex> evidence) {
  return Publish(std::make_shared<const community::CommunityStore>(
                     std::move(store)),
                 options, std::move(evidence));
}

Status SnapshotManager::SaveSnapshot(const std::string& path) const {
  std::shared_ptr<const ServingSnapshot> snapshot = Acquire();
  if (snapshot == nullptr) {
    return Status::FailedPrecondition(
        "SaveSnapshot before the first Publish: no generation to save");
  }
  return SaveSnapshotFile(path, *snapshot->corpus(), snapshot->store(),
                          snapshot->evidence());
}

Result<SnapshotManager::ColdStartArtifacts> SnapshotManager::LoadSnapshot(
    const std::string& path, core::ESharpOptions options) {
  ESHARP_ASSIGN_OR_RETURN(SnapshotArtifacts decoded, LoadSnapshotFile(path));
  ColdStartArtifacts artifacts;
  artifacts.corpus = decoded.corpus;
  artifacts.info = decoded.info;
  artifacts.manager = std::make_unique<SnapshotManager>(decoded.corpus.get());
  // The generation owns the decoded corpus, so it survives even if the
  // caller drops ColdStartArtifacts::corpus.
  artifacts.manager->Publish(decoded.store, decoded.corpus, options,
                             decoded.evidence);
  obs::EventLog::Global().Add(
      obs::LogLevel::kINFO, "serving", "cold start from snapshot file",
      {{"file_bytes",
        StrFormat("%llu",
                  static_cast<unsigned long long>(decoded.info.file_bytes))}});
  return artifacts;
}

}  // namespace esharp::serving
