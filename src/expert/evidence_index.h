#ifndef ESHARP_EXPERT_EVIDENCE_INDEX_H_
#define ESHARP_EXPERT_EVIDENCE_INDEX_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/thread_pool.h"
#include "expert/detector.h"
#include "microblog/corpus.h"

namespace esharp::expert {

/// \brief Snapshot-time per-term evidence index: the candidate pool of
/// every expansion-vocabulary term, precomputed once when a serving
/// generation is built.
///
/// The online stage's expansion vocabulary is closed per snapshot — it is
/// exactly the community store's term set (§5 expands a query into its
/// community siblings; nothing else). The corpus is immutable while a
/// generation serves, so each term's CandidateEvidence pool is a pure
/// function of (corpus, term) and can be computed offline: online detection
/// for an in-vocabulary term becomes a hash lookup plus its share of the
/// evidence merge instead of a postings intersection plus per-tweet
/// accumulation. Ad-hoc terms (the raw query when no community matches,
/// phrase-fallback synthesized terms) are not in the vocabulary and take
/// the live collection path.
///
/// Pools are built by the same CollectCandidates code the live path runs,
/// so the two paths are bit-identical by construction; the `online`-labeled
/// test suite enforces this across randomized corpora.
///
/// Pools are held by shared_ptr so the streaming ingest path (src/ingest)
/// can publish delta generations: Extend() shares every pool whose term was
/// untouched by the batch with the previous generation's index and
/// re-collects only the dirty ones. A pool is a pure function of (corpus,
/// term) and a new tweet only changes the pools of terms it matches, so
/// the shared pools are bitwise the ones a from-scratch Build over the
/// extended corpus would produce — the ingest equivalence gate enforces
/// exactly that.
///
/// Immutable after Build/Extend; safe for concurrent readers. Hot-swapped
/// with the snapshot that owns it.
class TermEvidenceIndex {
 public:
  using Pool = std::vector<CandidateEvidence>;

  struct BuildOptions {
    /// Parallelizes the per-term collection across the pool when set (the
    /// offline pipeline's worker pool); terms are independent, so the
    /// result is identical either way.
    ThreadPool* pool = nullptr;
  };

  /// Pool-reuse accounting of one Extend call, for the ingest gauges.
  struct ExtendStats {
    size_t reused = 0;
    size_t rebuilt = 0;
  };

  TermEvidenceIndex() = default;

  /// Builds the index over `vocabulary` (terms as they leave query
  /// expansion: lower-cased). Duplicate terms are indexed once.
  static TermEvidenceIndex Build(const microblog::TweetCorpus& corpus,
                                 const std::vector<std::string>& vocabulary,
                                 const BuildOptions& options);
  static TermEvidenceIndex Build(const microblog::TweetCorpus& corpus,
                                 const std::vector<std::string>& vocabulary) {
    return Build(corpus, vocabulary, BuildOptions());
  }

  /// Delta build for the streaming path: indexes `vocabulary` over the
  /// (extended) `corpus`, sharing the previous generation's pool for every
  /// term that is present in `previous` and not in `dirty_terms`, and
  /// re-collecting the rest. `previous` may be null (degenerates to
  /// Build). With `dirty_terms` = the terms matched by the batch's new
  /// tweets, the result is bit-identical to Build(corpus, vocabulary) —
  /// a pool only depends on the tweets that match its term.
  static TermEvidenceIndex Extend(const TermEvidenceIndex* previous,
                                  const microblog::TweetCorpus& corpus,
                                  const std::vector<std::string>& vocabulary,
                                  const std::unordered_set<std::string>& dirty_terms,
                                  const BuildOptions& options,
                                  ExtendStats* stats = nullptr);

  /// Reassembles an index from pre-built parts, as decoded from a binary
  /// snapshot: `terms[i]` owns `pools[i]`. Skips CollectCandidates entirely
  /// — this is the zero-parse cold-start path, valid because pools are a
  /// pure function of the (immutable) corpus and vocabulary that were
  /// saved together with them.
  static TermEvidenceIndex FromSnapshotParts(
      std::vector<std::string> terms,
      std::vector<std::vector<CandidateEvidence>> pools);

  /// Terms in pool order (the inverse of Find), for snapshot
  /// serialization. pools(i) below is the pool of term i.
  std::vector<std::string> TermStrings() const;

  /// Pool by dense index (aligned with TermStrings).
  const std::vector<CandidateEvidence>& pool(size_t i) const {
    return *pools_[i];
  }
  size_t num_pools() const { return pools_.size(); }

  /// The precomputed pool of a normalized (lower-cased) term, or nullptr
  /// when the term is outside this snapshot's vocabulary. The pointer
  /// aliases pool storage shared across generations: valid while any index
  /// (in serving, the snapshot holding it) that references the pool is
  /// alive.
  const std::vector<CandidateEvidence>* Find(
      const std::string& normalized_term) const {
    auto it = term_to_pool_.find(normalized_term);
    return it == term_to_pool_.end() ? nullptr : pools_[it->second].get();
  }

  /// The shared pool handle of a term, for structural-sharing reuse (and
  /// the tests that assert clean pools ARE the previous generation's).
  std::shared_ptr<const Pool> FindShared(
      const std::string& normalized_term) const {
    auto it = term_to_pool_.find(normalized_term);
    return it == term_to_pool_.end() ? nullptr : pools_[it->second];
  }

  size_t num_terms() const { return term_to_pool_.size(); }

  /// Total precomputed evidence entries across all pools.
  size_t num_entries() const;

  /// Approximate memory footprint.
  uint64_t SizeBytes() const;

 private:
  std::unordered_map<std::string, size_t> term_to_pool_;
  std::vector<std::shared_ptr<const Pool>> pools_;
};

}  // namespace esharp::expert

#endif  // ESHARP_EXPERT_EVIDENCE_INDEX_H_
