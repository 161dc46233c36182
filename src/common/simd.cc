#include "common/simd.h"

#include <atomic>

// ESHARP_SIMD_OFF (set by -DESHARP_SIMD=OFF) compiles the scalar twins
// only; the dispatcher then reports and uses kScalar everywhere. The
// vector variants are target-attribute functions, so the rest of the
// project needs no -mavx2 and the binary keeps running on machines
// without those units.
#if !defined(ESHARP_SIMD_OFF) && (defined(__x86_64__) || defined(__i386__))
#define ESHARP_SIMD_X86 1
#include <immintrin.h>
#else
#define ESHARP_SIMD_X86 0
#endif

namespace esharp::simd {

namespace scalar {

size_t CompactSelection(const uint8_t* flags, size_t n, uint32_t* out) {
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    // Branchless: always write the candidate index, advance only on a hit.
    out[k] = static_cast<uint32_t>(i);
    k += flags[i] != 0;
  }
  return k;
}

void HashCombineBatch(uint64_t* acc, const uint64_t* h, size_t n) {
  for (size_t i = 0; i < n; ++i) acc[i] = HashCombine(acc[i], h[i]);
}

void HashCombineMix64Batch(uint64_t* acc, const uint64_t* keys, size_t n) {
  for (size_t i = 0; i < n; ++i) acc[i] = HashCombine(acc[i], Mix64(keys[i]));
}

size_t IntersectSortedU32(const uint32_t* a, size_t na, const uint32_t* b,
                          size_t nb, uint32_t* out) {
  size_t i = 0, j = 0, k = 0;
  while (i < na && j < nb) {
    uint32_t x = a[i], y = b[j];
    if (x < y) {
      ++i;
    } else if (y < x) {
      ++j;
    } else {
      out[k++] = x;
      ++i;
      ++j;
    }
  }
  return k;
}

namespace {
/// Word-position multiplier of Checksum64 (golden-ratio constant; the
/// (i+1)*kChecksumStep term makes word swaps change the XOR fold).
constexpr uint64_t kChecksumStep = 0x9e3779b97f4a7c15ULL;
}  // namespace

uint64_t Checksum64(const void* data, size_t size) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  const size_t words = size / 8;
  uint64_t h = kChecksumStep ^ static_cast<uint64_t>(size);
  for (size_t i = 0; i < words; ++i) {
    uint64_t w;
    std::memcpy(&w, p + i * 8, 8);
    h ^= Mix64(w + (static_cast<uint64_t>(i) + 1) * kChecksumStep);
  }
  const size_t tail = size - words * 8;
  if (tail > 0) {
    uint64_t w = 0;
    std::memcpy(&w, p + words * 8, tail);
    h ^= Mix64(w + (static_cast<uint64_t>(words) + 1) * kChecksumStep);
  }
  return h;
}

}  // namespace scalar

#if ESHARP_SIMD_X86

namespace {

// ---- AVX2 variants --------------------------------------------------------

#define ESHARP_TARGET_AVX2 __attribute__((target("avx2")))

/// 64x64 -> low 64 multiply per lane (AVX2 has no _mm256_mullo_epi64):
/// lo(a)*lo(b) + ((lo(a)*hi(b) + hi(a)*lo(b)) << 32), exact mod 2^64.
ESHARP_TARGET_AVX2 inline __m256i Mul64Lo(__m256i a, __m256i b) {
  __m256i lo_hi = _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32));
  __m256i hi_lo = _mm256_mul_epu32(_mm256_srli_epi64(a, 32), b);
  __m256i cross = _mm256_add_epi64(lo_hi, hi_lo);
  __m256i lo_lo = _mm256_mul_epu32(a, b);
  return _mm256_add_epi64(lo_lo, _mm256_slli_epi64(cross, 32));
}

ESHARP_TARGET_AVX2 inline __m256i Mix64Lanes(__m256i k) {
  k = _mm256_xor_si256(k, _mm256_srli_epi64(k, 33));
  k = Mul64Lo(k, _mm256_set1_epi64x(static_cast<long long>(0xff51afd7ed558ccdULL)));
  k = _mm256_xor_si256(k, _mm256_srli_epi64(k, 33));
  k = Mul64Lo(k, _mm256_set1_epi64x(static_cast<long long>(0xc4ceb9fe1a85ec53ULL)));
  k = _mm256_xor_si256(k, _mm256_srli_epi64(k, 33));
  return k;
}

/// acc = HashCombine(acc, h) per lane: acc ^ (h + C + (acc<<6) + (acc>>2)).
ESHARP_TARGET_AVX2 inline __m256i HashCombineLanes(__m256i acc, __m256i h) {
  __m256i t = _mm256_add_epi64(
      h, _mm256_set1_epi64x(static_cast<long long>(0x9e3779b97f4a7c15ULL)));
  t = _mm256_add_epi64(t, _mm256_slli_epi64(acc, 6));
  t = _mm256_add_epi64(t, _mm256_srli_epi64(acc, 2));
  return _mm256_xor_si256(acc, t);
}

/// 256-entry compress LUT: for each 8-bit hit mask, the lane numbers of
/// its set bits packed to the front (trailing lanes are don't-care — the
/// callers' +7 output slack absorbs the full-register store).
struct CompressLut8 {
  alignas(32) uint32_t idx[256][8];
  CompressLut8() {
    for (int m = 0; m < 256; ++m) {
      int c = 0;
      for (int b = 0; b < 8; ++b) {
        if ((m >> b) & 1) idx[m][c++] = static_cast<uint32_t>(b);
      }
      for (; c < 8; ++c) idx[m][c] = 0;
    }
  }
};
const CompressLut8 kCompressLut8;

ESHARP_TARGET_AVX2 size_t CompactSelectionAvx2(const uint8_t* flags, size_t n,
                                               uint32_t* out) {
  // Emulated compress-store (no AVX2 vpcompressd): per mask byte, a LUT
  // shuffle packs the 8 candidate indexes and one full-register store
  // writes them — density-independent, ~3x the autovectorized branchless
  // sweep, with a whole-block skip for the selective-filter case. Writes
  // up to 7 garbage lanes past the final count (the contract's +7 slack).
  size_t k = 0;
  size_t i = 0;
  const __m256i zero = _mm256_setzero_si256();
  const __m256i inc8 = _mm256_set1_epi32(8);
  const __m256i inc32 = _mm256_set1_epi32(32);
  __m256i base = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  for (; i + 32 <= n; i += 32) {
    __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(flags + i));
    // cmpeq-with-zero marks the *false* lanes; invert for the hits.
    uint32_t mask = ~static_cast<uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, zero)));
    if (mask == 0) {  // whole block empty: the selective-filter win
      base = _mm256_add_epi32(base, inc32);
      continue;
    }
    for (int b = 0; b < 4; ++b) {
      const uint8_t mb = static_cast<uint8_t>(mask >> (8 * b));
      __m256i lanes = _mm256_load_si256(
          reinterpret_cast<const __m256i*>(kCompressLut8.idx[mb]));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + k),
                          _mm256_permutevar8x32_epi32(base, lanes));
      k += static_cast<size_t>(__builtin_popcount(mb));
      base = _mm256_add_epi32(base, inc8);
    }
  }
  for (; i < n; ++i) {
    out[k] = static_cast<uint32_t>(i);
    k += flags[i] != 0;
  }
  return k;
}

ESHARP_TARGET_AVX2 void HashCombineBatchAvx2(uint64_t* acc, const uint64_t* h,
                                             size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    __m256i b = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(h + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i),
                        HashCombineLanes(a, b));
  }
  for (; i < n; ++i) acc[i] = HashCombine(acc[i], h[i]);
}

ESHARP_TARGET_AVX2 void HashCombineMix64BatchAvx2(uint64_t* acc,
                                                  const uint64_t* keys,
                                                  size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    __m256i k = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i),
                        HashCombineLanes(a, Mix64Lanes(k)));
  }
  for (; i < n; ++i) acc[i] = HashCombine(acc[i], Mix64(keys[i]));
}

/// 8x8 all-pairs block intersection: compare an 8-lane block of `a`
/// against every rotation of an 8-lane block of `b`, emit the matched `a`
/// lanes in order, and advance whichever block's maximum is smaller.
/// Inputs are strictly increasing, so the matches of a block pair are
/// unique and in ascending lane order.
ESHARP_TARGET_AVX2 size_t IntersectSortedU32Avx2(const uint32_t* a, size_t na,
                                                 const uint32_t* b, size_t nb,
                                                 uint32_t* out) {
  size_t i = 0, j = 0, k = 0;
  while (i + 8 <= na && j + 8 <= nb) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
    __m256i match = _mm256_cmpeq_epi32(va, vb);
    __m256i rot = vb;
    const __m256i rotate1 = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
    for (int r = 1; r < 8; ++r) {
      rot = _mm256_permutevar8x32_epi32(rot, rotate1);
      match = _mm256_or_si256(match, _mm256_cmpeq_epi32(va, rot));
    }
    uint32_t mask = static_cast<uint32_t>(
        _mm256_movemask_ps(_mm256_castsi256_ps(match)));
    while (mask != 0) {
      out[k++] = a[i + __builtin_ctz(mask)];
      mask &= mask - 1;
    }
    // A block whose max is <= the other's max cannot match anything the
    // other array holds beyond its current block (values there are
    // strictly greater), so it is fully resolved.
    const uint32_t amax = a[i + 7];
    const uint32_t bmax = b[j + 7];
    if (amax <= bmax) i += 8;
    if (bmax <= amax) j += 8;
  }
  // gcc 12 emits no vzeroupper anywhere in this function (its exit runs
  // through the scalar twin), and a dirty upper YMM state slows later SSE
  // code on the calling thread: clean it before leaving the vector loop.
  _mm256_zeroupper();
  return k + scalar::IntersectSortedU32(a + i, na - i, b + j, nb - j, out + k);
}

ESHARP_TARGET_AVX2 uint64_t Checksum64Avx2(const void* data, size_t size) {
  constexpr uint64_t kStep = 0x9e3779b97f4a7c15ULL;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  const size_t words = size / 8;
  uint64_t h = kStep ^ static_cast<uint64_t>(size);
  size_t i = 0;
  if (words >= 4) {
    __m256i acc = _mm256_setzero_si256();
    // Per-lane position multipliers (i+1)*kStep .. (i+4)*kStep, kept
    // incrementally (all arithmetic mod 2^64, same as the scalar twin).
    __m256i pos = _mm256_setr_epi64x(
        static_cast<long long>(kStep), static_cast<long long>(2 * kStep),
        static_cast<long long>(3 * kStep), static_cast<long long>(4 * kStep));
    const __m256i step = _mm256_set1_epi64x(static_cast<long long>(4 * kStep));
    for (; i + 4 <= words; i += 4) {
      __m256i w =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i * 8));
      acc = _mm256_xor_si256(acc, Mix64Lanes(_mm256_add_epi64(w, pos)));
      pos = _mm256_add_epi64(pos, step);
    }
    alignas(32) uint64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
    h ^= lanes[0] ^ lanes[1] ^ lanes[2] ^ lanes[3];
  }
  for (; i < words; ++i) {
    uint64_t w;
    std::memcpy(&w, p + i * 8, 8);
    h ^= Mix64(w + (static_cast<uint64_t>(i) + 1) * kStep);
  }
  const size_t tail = size - words * 8;
  if (tail > 0) {
    uint64_t w = 0;
    std::memcpy(&w, p + words * 8, tail);
    h ^= Mix64(w + (static_cast<uint64_t>(words) + 1) * kStep);
  }
  return h;
}

}  // namespace

#endif  // ESHARP_SIMD_X86

namespace {
/// -1 = no override; otherwise the forced Level (clamped on read).
std::atomic<int> g_forced_level{-1};
}  // namespace

Level DetectedLevel() {
  static const Level detected = [] {
#if ESHARP_SIMD_X86
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2")) return Level::kAvx2;
#endif
    return Level::kScalar;
  }();
  return detected;
}

Level ActiveLevel() {
  const Level detected = DetectedLevel();
  const int forced = g_forced_level.load(std::memory_order_relaxed);
  if (forced < 0) return detected;
  return static_cast<int>(detected) < forced ? detected
                                             : static_cast<Level>(forced);
}

void ForceLevelForTest(Level level) {
  g_forced_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

std::string_view LevelName(Level level) {
  switch (level) {
    case Level::kScalar: return "scalar";
    case Level::kAvx2: return "avx2";
  }
  return "unknown";
}

size_t CompactSelection(const uint8_t* flags, size_t n, uint32_t* out) {
#if ESHARP_SIMD_X86
  switch (ActiveLevel()) {
    case Level::kAvx2: return CompactSelectionAvx2(flags, n, out);
    case Level::kScalar: break;
  }
#endif
  return scalar::CompactSelection(flags, n, out);
}

void HashCombineBatch(uint64_t* acc, const uint64_t* h, size_t n) {
#if ESHARP_SIMD_X86
  switch (ActiveLevel()) {
    case Level::kAvx2: HashCombineBatchAvx2(acc, h, n); return;
    case Level::kScalar: break;
  }
#endif
  scalar::HashCombineBatch(acc, h, n);
}

void HashCombineMix64Batch(uint64_t* acc, const uint64_t* keys, size_t n) {
#if ESHARP_SIMD_X86
  switch (ActiveLevel()) {
    case Level::kAvx2: HashCombineMix64BatchAvx2(acc, keys, n); return;
    case Level::kScalar: break;
  }
#endif
  scalar::HashCombineMix64Batch(acc, keys, n);
}

size_t IntersectSortedU32(const uint32_t* a, size_t na, const uint32_t* b,
                          size_t nb, uint32_t* out) {
#if ESHARP_SIMD_X86
  switch (ActiveLevel()) {
    case Level::kAvx2: return IntersectSortedU32Avx2(a, na, b, nb, out);
    case Level::kScalar: break;
  }
#endif
  return scalar::IntersectSortedU32(a, na, b, nb, out);
}

uint64_t Checksum64(const void* data, size_t size) {
#if ESHARP_SIMD_X86
  switch (ActiveLevel()) {
    case Level::kAvx2: return Checksum64Avx2(data, size);
    case Level::kScalar: break;
  }
#endif
  return scalar::Checksum64(data, size);
}

}  // namespace esharp::simd
