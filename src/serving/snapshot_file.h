#ifndef ESHARP_SERVING_SNAPSHOT_FILE_H_
#define ESHARP_SERVING_SNAPSHOT_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/byte_io.h"
#include "common/result.h"
#include "community/store.h"
#include "expert/detector.h"
#include "expert/evidence_index.h"
#include "microblog/corpus.h"

namespace esharp::serving {

/// Versioned binary snapshot of one serving generation's artifacts, in a
/// single mmap-able file. Layout (all integers little-endian, sections
/// 8-byte aligned):
///
///   +--------------------------------------------------------------+
///   | header: magic(8) version(4) section_count(4) table_cksum(8)  |
///   +--------------------------------------------------------------+
///   | section table: section_count x 32-byte entries               |
///   |   { id(4) reserved(4) offset(8) size(8) checksum(8) }        |
///   +--------------------------------------------------------------+
///   | sections: META USERS TWEETS TOKENS TOTALS STORE EVIDENCE     |
///   +--------------------------------------------------------------+
///
/// Every section body is flat columnar arrays — counts, offset arrays and
/// payload blobs — so a load is mmap + validate + memcpy-decode, with no
/// text parsing, tokenization, graph build or clustering ("zero-parse";
/// the dictionaries' hash maps are still rebuilt in memory, which is the
/// only O(n) work on the load path).
///
/// Versioning policy: `kSnapshotFormatVersion` bumps on any layout change;
/// a loader only accepts its own version (snapshots are regenerated by the
/// weekly offline job, so cross-version migration is not worth carrying).
/// Validation: the table checksum covers the section table, each entry's
/// checksum covers its section bytes (simd::Checksum64), and every decode
/// is bounds-checked — a truncated, flipped or rewritten file fails
/// LoadSnapshotFile with a diagnostic Status, never a crash.
inline constexpr uint32_t kSnapshotFormatVersion = 2;

/// First header bytes: "ESHARPSN".
inline constexpr uint64_t kSnapshotMagic = 0x4e53505241485345ULL;

/// What a loaded snapshot file contained, for logs and benches.
struct SnapshotFileInfo {
  uint32_t format_version = 0;
  uint64_t file_bytes = 0;
  uint32_t num_sections = 0;
};

/// The reassembled artifacts of a snapshot file: everything a serving
/// process (or one cluster shard) needs to answer queries. `evidence` is
/// never null on a successful load.
struct SnapshotArtifacts {
  std::shared_ptr<microblog::TweetCorpus> corpus;
  std::shared_ptr<const community::CommunityStore> store;
  std::shared_ptr<const expert::TermEvidenceIndex> evidence;
  SnapshotFileInfo info;
};

/// Serializes (corpus, store, evidence) to `path`. InvalidArgument when
/// `evidence` is null: every serving generation carries its index (an
/// empty one makes a cold-started process collect every term live).
Status SaveSnapshotFile(const std::string& path,
                        const microblog::TweetCorpus& corpus,
                        const community::CommunityStore& store,
                        const expert::TermEvidenceIndex* evidence);

/// Maps `path`, validates magic, version, section table and per-section
/// checksums, and reassembles the artifacts. Any validation or bounds
/// failure returns a Status naming the failing section — callers fall back
/// to the offline pipeline path.
Result<SnapshotArtifacts> LoadSnapshotFile(const std::string& path);

/// Bytes one CandidateEvidence takes in the columnar layout below.
inline constexpr size_t kEvidenceColumnBytes = 4 + 1 + 5 * 8;

/// Columnar layout of a run of CandidateEvidence, shared by the snapshot's
/// EVIDENCE section and the shard evidence frame: user u32[n], flags u8[n]
/// (bit 0 author, bit 1 mentioned), then tweets, mentions, retweets,
/// conversational and hashtag counts as u64[n] each. Appends the entries
/// of `runs`, concatenated in order, as one column set.
void AppendEvidenceColumns(
    std::string* out,
    const std::vector<const std::vector<expert::CandidateEvidence>*>& runs);

/// Reads `count` entries written by AppendEvidenceColumns. Fails (IOError
/// naming the reader's context) when the columns overrun the reader or a
/// flags byte sets any other bit.
Status ReadEvidenceColumns(ByteReader* reader, uint64_t count,
                           std::vector<expert::CandidateEvidence>* out);

}  // namespace esharp::serving

#endif  // ESHARP_SERVING_SNAPSHOT_FILE_H_
