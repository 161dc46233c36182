#ifndef ESHARP_SERVING_SNAPSHOT_H_
#define ESHARP_SERVING_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

#include <string>

#include "community/store.h"
#include "esharp/esharp.h"
#include "expert/evidence_index.h"
#include "microblog/corpus.h"
#include "obs/metrics.h"
#include "serving/snapshot_file.h"

namespace esharp::serving {

/// \brief One immutable generation of serving artifacts: a community store
/// plus an ESharp facade bound to it.
///
/// The paper's offline stage "runs weekly" (§6.3) and republishes the
/// community collection; the online stage must keep answering queries while
/// that happens. A snapshot freezes one week's artifacts: the store is held
/// by shared_ptr so in-flight requests that acquired the snapshot keep it
/// (and every `const Community*` into it) alive even after the manager has
/// moved on to a newer generation.
class ServingSnapshot {
 public:
  /// `evidence` must not be null; an empty index makes the engine collect
  /// every term live. The corpus is borrowed and must outlive the snapshot
  /// (the weekly-refresh setup, where one corpus spans every generation).
  ServingSnapshot(
      uint64_t version,
      std::shared_ptr<const community::CommunityStore> store,
      const microblog::TweetCorpus* corpus, core::ESharpOptions options,
      std::shared_ptr<const expert::TermEvidenceIndex> evidence)
      : version_(version),
        store_(std::move(store)),
        evidence_(std::move(evidence)),
        owned_corpus_(nullptr),
        corpus_(corpus),
        esharp_(store_.get(), corpus, options),
        published_at_seconds_(obs::NowSeconds()) {}

  /// Owning-corpus form, for the streaming ingest path where every
  /// generation extends the corpus: the snapshot holds its own corpus
  /// generation alive (structurally shared with its neighbors through the
  /// corpus's copy-on-write chunks), so in-flight readers of generation N
  /// are unaffected by N+1 appearing.
  ServingSnapshot(
      uint64_t version,
      std::shared_ptr<const community::CommunityStore> store,
      std::shared_ptr<const microblog::TweetCorpus> corpus,
      core::ESharpOptions options,
      std::shared_ptr<const expert::TermEvidenceIndex> evidence)
      : version_(version),
        store_(std::move(store)),
        evidence_(std::move(evidence)),
        owned_corpus_(std::move(corpus)),
        corpus_(owned_corpus_.get()),
        esharp_(store_.get(), owned_corpus_.get(), options),
        published_at_seconds_(obs::NowSeconds()) {}

  ServingSnapshot(const ServingSnapshot&) = delete;
  ServingSnapshot& operator=(const ServingSnapshot&) = delete;

  /// Monotonically increasing generation number (1 for the first publish).
  uint64_t version() const { return version_; }

  /// The store this generation serves from.
  const community::CommunityStore& store() const { return *store_; }

  /// ESharp facade over this generation's store. Safe to use from any
  /// number of threads concurrently: both the store and the detector are
  /// read-only after construction.
  const core::ESharp& esharp() const { return esharp_; }

  /// Precomputed per-term candidate pools for this generation's expansion
  /// vocabulary; never null. The engine collects a term outside it live.
  /// Borrowed pools stay valid while the snapshot is held — exactly the
  /// serving engine's per-request pinning discipline.
  const expert::TermEvidenceIndex* evidence() const { return evidence_.get(); }

  /// The corpus this generation was built against (owned by the snapshot on
  /// the streaming path, borrowed from the manager otherwise).
  const microblog::TweetCorpus* corpus() const { return corpus_; }

  /// When this generation was installed (obs::NowSeconds() time base).
  /// Readiness probes derive snapshot staleness from it: a weekly-refresh
  /// service whose snapshot stops turning over is quietly broken even
  /// though every request still succeeds.
  double published_at_seconds() const { return published_at_seconds_; }

 private:
  const uint64_t version_;
  const std::shared_ptr<const community::CommunityStore> store_;
  const std::shared_ptr<const expert::TermEvidenceIndex> evidence_;
  const std::shared_ptr<const microblog::TweetCorpus> owned_corpus_;
  const microblog::TweetCorpus* const corpus_;
  const core::ESharp esharp_;
  const double published_at_seconds_;
};

/// \brief RCU-style holder of the current serving snapshot.
///
/// Readers call Acquire() — a single atomic shared_ptr load, no mutex — and
/// work against the returned generation for the rest of their request.
/// Writers (the weekly refresh) call Publish(), which atomically installs a
/// new generation; old generations are reclaimed when the last in-flight
/// reader drops its reference. This is the reproduction's stand-in for
/// re-indexing the collection in SQL Server under live traffic (§6.3).
class SnapshotManager {
 public:
  /// The corpus is shared across generations (only the community store is
  /// refreshed weekly) and must outlive the manager. May be nullptr when
  /// every Publish supplies its own per-generation corpus (the streaming
  /// ingest path).
  explicit SnapshotManager(const microblog::TweetCorpus* corpus = nullptr)
      : corpus_(corpus) {}

  /// Atomically installs a new generation built from `store` and returns
  /// its version number. Thread-safe against concurrent Acquire() and
  /// Publish() calls; concurrent publishes serialize on a mutex so
  /// generations are installed in version order (readers stay lock-free).
  ///
  /// `evidence` is the generation's precomputed term-evidence index
  /// (RunOfflinePipeline builds one when OfflineOptions::corpus is set).
  /// When null, Publish builds it over the store's expansion vocabulary
  /// here — on the publisher's thread, i.e. the weekly refresh, never the
  /// query path. A caller that wants every term collected live passes an
  /// empty index.
  uint64_t Publish(
      std::shared_ptr<const community::CommunityStore> store,
      core::ESharpOptions options = {},
      std::shared_ptr<const expert::TermEvidenceIndex> evidence = nullptr);

  /// Convenience overload: takes ownership of a store by value (the common
  /// hand-off from RunOfflinePipeline artifacts).
  uint64_t Publish(
      community::CommunityStore store, core::ESharpOptions options = {},
      std::shared_ptr<const expert::TermEvidenceIndex> evidence = nullptr);

  /// Per-generation-corpus overload, for the streaming ingest path: the
  /// published snapshot owns `corpus` (no default — supply it explicitly),
  /// so each generation pins exactly the corpus it was built against while
  /// consecutive generations structurally share storage through the
  /// corpus's copy-on-write chunks. The manager's construction-time corpus
  /// (if any) is ignored for this generation.
  uint64_t Publish(
      std::shared_ptr<const community::CommunityStore> store,
      std::shared_ptr<const microblog::TweetCorpus> corpus,
      core::ESharpOptions options = {},
      std::shared_ptr<const expert::TermEvidenceIndex> evidence = nullptr);

  /// Serializes the current generation (corpus, store, evidence) to the
  /// versioned binary snapshot file at `path` — the artifact LoadSnapshot
  /// cold-starts from. FailedPrecondition before the first Publish.
  Status SaveSnapshot(const std::string& path) const;

  /// The result of a cold start from a snapshot file: the corpus decoded
  /// from the file (which the manager borrows, so the caller must keep it
  /// alive for the manager's lifetime) plus a manager with generation 1
  /// already published.
  struct ColdStartArtifacts {
    std::shared_ptr<microblog::TweetCorpus> corpus;
    std::unique_ptr<SnapshotManager> manager;
    SnapshotFileInfo info;
  };

  /// Cold-starts a serving tier from a snapshot file: maps and validates
  /// `path`, reassembles the artifacts (the file's EVIDENCE section is the
  /// generation's index), and publishes them as generation 1 — no log
  /// parsing, graph build, clustering or evidence collection.
  static Result<ColdStartArtifacts> LoadSnapshot(
      const std::string& path, core::ESharpOptions options = {});

  /// Returns the current generation, or nullptr before the first Publish.
  /// Lock-free on the fast path; the returned shared_ptr pins the
  /// generation for the caller's lifetime.
  std::shared_ptr<const ServingSnapshot> Acquire() const {
    return current_.load(std::memory_order_acquire);
  }

  /// Version of the current generation (0 before the first Publish).
  /// Cheap enough to poll per-request for cache invalidation.
  uint64_t version() const { return version_.load(std::memory_order_acquire); }

 private:
  const microblog::TweetCorpus* corpus_;
  std::mutex publish_mu_;
  uint64_t next_version_ = 1;  // guarded by publish_mu_
  std::atomic<uint64_t> version_{0};
  std::atomic<std::shared_ptr<const ServingSnapshot>> current_{nullptr};
};

}  // namespace esharp::serving

#endif  // ESHARP_SERVING_SNAPSHOT_H_
