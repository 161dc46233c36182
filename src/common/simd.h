#ifndef ESHARP_COMMON_SIMD_H_
#define ESHARP_COMMON_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

#include "common/hash.h"

/// \file
/// Portable SIMD kernel layer for the hot loops the profile actually
/// shows: selection-vector compaction (columnar filter), batched
/// HashCombine/Mix64 (join/partition/aggregate key hashing), sorted-u32
/// intersection (token postings) and a word-parallel checksum (binary
/// snapshot validation).
///
/// Contract: every dispatched kernel is **bit-identical** to its scalar
/// twin in `simd::scalar` — same outputs for the same inputs, on every
/// input. The randomized equivalence suite in tests/simd_test.cc holds the
/// pair to that; callers may therefore switch freely between them.
///
/// Dispatch: `-DESHARP_SIMD=OFF` compiles the scalar twins only (the
/// portable build CI keeps honest). When ON (default), the implementation
/// compiles AVX2 variants as target-attribute functions — no global -mavx2,
/// the binary stays runnable on any x86-64 — and uses them when the CPU
/// supports AVX2 (checked once, at first use); any other CPU runs the
/// scalar twins. ForceLevelForTest clamps the dispatch for equivalence
/// tests and A/B benches.

namespace esharp::simd {

/// Instruction-set level of the dispatched kernels. The values are what
/// the bench.simd.level gauge reports, so they never change meaning.
enum class Level : int {
  kScalar = 0,
  kAvx2 = 2,
};

/// The level the dispatcher currently uses: the best supported level,
/// clamped by ForceLevelForTest. kScalar always works.
Level ActiveLevel();

/// Best level this CPU (and build configuration) supports.
Level DetectedLevel();

/// Human-readable level name ("scalar", "avx2").
std::string_view LevelName(Level level);

/// Clamps dispatch to `level` (levels above the detected one are reduced
/// to it). Tests and benches only; not thread-safe against in-flight
/// kernels on other threads.
void ForceLevelForTest(Level level);

/// \name Scalar reference twins
///
/// Always compiled, never dispatched: the behavioral specification of the
/// kernels below, and the fallback body when ESHARP_SIMD is OFF or the CPU
/// lacks vector units.
/// @{
namespace scalar {

/// Writes the indexes of non-zero bytes of `flags[0..n)` to `out`
/// (ascending) and returns how many were written. `out` must have room
/// for n + 7 entries: the vector variants emulate a compress-store with
/// full-register writes at `out + k`, so up to 7 slots past the returned
/// count are clobbered with garbage (the scalar twin never touches them,
/// but the contract is uniform across levels).
size_t CompactSelection(const uint8_t* flags, size_t n, uint32_t* out);

/// acc[i] = HashCombine(acc[i], h[i]) for i in [0, n).
void HashCombineBatch(uint64_t* acc, const uint64_t* h, size_t n);

/// acc[i] = HashCombine(acc[i], Mix64(keys[i])) — the fused form the key
/// hashers use (hash of a canonicalized numeric cell combined into the
/// running row hash).
void HashCombineMix64Batch(uint64_t* acc, const uint64_t* keys, size_t n);

/// Intersects two strictly-increasing u32 arrays into `out` (ascending);
/// returns the intersection size. `out` must have room for min(na, nb).
size_t IntersectSortedU32(const uint32_t* a, size_t na, const uint32_t* b,
                          size_t nb, uint32_t* out);

/// Order-independent 64-bit checksum over bytes: the data is cut into
/// little-endian 8-byte words (the tail zero-padded), each word is mixed
/// with its position and XOR-folded. XOR makes the accumulation fully
/// parallel; the position term makes swapped words detectable.
uint64_t Checksum64(const void* data, size_t size);

}  // namespace scalar
/// @}

/// \name Dispatched kernels
///
/// Same contracts as the scalar twins, routed to the best enabled level.
/// @{
size_t CompactSelection(const uint8_t* flags, size_t n, uint32_t* out);
void HashCombineBatch(uint64_t* acc, const uint64_t* h, size_t n);
void HashCombineMix64Batch(uint64_t* acc, const uint64_t* keys, size_t n);
size_t IntersectSortedU32(const uint32_t* a, size_t na, const uint32_t* b,
                          size_t nb, uint32_t* out);
uint64_t Checksum64(const void* data, size_t size);
/// @}

}  // namespace esharp::simd

#endif  // ESHARP_COMMON_SIMD_H_
