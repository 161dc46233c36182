// Randomized bit-identity suite for the common/simd.h kernels: every
// dispatched kernel must produce exactly the scalar twin's output at every
// level the machine supports. This is the contract that lets the engine
// call simd::* on correctness-critical paths (partition routing, postings
// intersection, snapshot checksums) without a behavioral SIMD/scalar split.

#include "common/simd.h"

#include <algorithm>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#if !defined(ESHARP_SIMD_OFF) && defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

#include "common/hash.h"
#include "common/rng.h"
#include "gtest/gtest.h"

namespace esharp {
namespace {

using simd::Level;

/// Levels to exercise: every level from scalar up to what the machine
/// supports (ForceLevelForTest clamps, so asking for more is safe but
/// would silently re-test the same level).
std::vector<Level> TestableLevels() {
  std::vector<Level> levels = {Level::kScalar};
  if (simd::DetectedLevel() >= Level::kAvx2) levels.push_back(Level::kAvx2);
  return levels;
}

/// Restores full dispatch after each forced-level block.
struct LevelGuard {
  ~LevelGuard() { simd::ForceLevelForTest(simd::DetectedLevel()); }
};

TEST(SimdDispatchTest, ForcingAboveDetectedClampsToDetected) {
  LevelGuard guard;
  simd::ForceLevelForTest(Level::kAvx2);
  EXPECT_LE(simd::ActiveLevel(), simd::DetectedLevel());
  simd::ForceLevelForTest(Level::kScalar);
  EXPECT_EQ(simd::ActiveLevel(), Level::kScalar);
}

TEST(SimdDispatchTest, LevelNamesAreStable) {
  EXPECT_EQ(simd::LevelName(Level::kScalar), "scalar");
  EXPECT_EQ(simd::LevelName(Level::kAvx2), "avx2");
}

#if !defined(ESHARP_SIMD_OFF) && defined(__x86_64__)
__attribute__((target("avx"))) void ClearUpperYmm() { _mm256_zeroupper(); }

/// XINUSE bit 2 (YMM_Hi128): set while the upper half of some YMM register
/// may be non-zero. Legacy-SSE code run in that state pays a transition
/// penalty or a false dependency on every instruction.
__attribute__((target("xsave"))) bool UpperYmmInUse() {
  return ((_xgetbv(1) >> 2) & 1) != 0;
}

/// XGETBV with ECX=1 (XINUSE) is supported: CPUID.(EAX=0DH,ECX=1):EAX[2].
bool CanReadXinuse() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  return __get_cpuid_count(0xD, 1, &eax, &ebx, &ecx, &edx) != 0 &&
         (eax & (1u << 2)) != 0;
}
#endif

// Every AVX2 kernel must return with the upper YMM state clean. gcc adds
// vzeroupper on most exits of a target("avx2") function but not on all
// (a tail call into scalar code skips it); a dirty state then slows every
// later SSE instruction on the calling thread until something cleans it.
TEST(SimdDispatchTest, KernelsLeaveUpperYmmClean) {
#if defined(ESHARP_SIMD_OFF) || !defined(__x86_64__)
  GTEST_SKIP() << "no vector kernels in this build";
#else
  if (simd::DetectedLevel() < Level::kAvx2) GTEST_SKIP() << "no AVX2";
  if (!CanReadXinuse()) GTEST_SKIP() << "XGETBV cannot read XINUSE";
  LevelGuard guard;
  simd::ForceLevelForTest(Level::kAvx2);
  // Lengths that run each kernel's vector loop and its scalar tail.
  std::vector<uint8_t> flags(100, 1);
  std::vector<uint32_t> selected(flags.size() + 7);
  std::vector<uint64_t> acc(10, 3), keys(10, 5);
  std::vector<uint32_t> a(37), b(37), common(37);
  for (uint32_t i = 0; i < a.size(); ++i) {
    a[i] = 2 * i;
    b[i] = 3 * i;
  }
  std::vector<uint8_t> bytes(75, 7);
  const std::pair<const char*, std::function<void()>> kernels[] = {
      {"CompactSelection",
       [&] { simd::CompactSelection(flags.data(), flags.size(),
                                    selected.data()); }},
      {"HashCombineBatch",
       [&] { simd::HashCombineBatch(acc.data(), keys.data(), acc.size()); }},
      {"HashCombineMix64Batch",
       [&] {
         simd::HashCombineMix64Batch(acc.data(), keys.data(), acc.size());
       }},
      {"IntersectSortedU32",
       [&] {
         simd::IntersectSortedU32(a.data(), a.size(), b.data(), b.size(),
                                  common.data());
       }},
      {"Checksum64", [&] { simd::Checksum64(bytes.data(), bytes.size()); }},
  };
  for (const auto& [name, run] : kernels) {
    ClearUpperYmm();
    // A processor may report XINUSE[2] set for a component in its initial
    // state (emulators do), and then no clean state can be observed.
    if (UpperYmmInUse()) {
      GTEST_SKIP() << "XINUSE[2] reads set right after vzeroupper";
    }
    run();
    EXPECT_FALSE(UpperYmmInUse()) << name << " returned with dirty upper YMM";
  }
#endif
}

TEST(SimdCompactTest, MatchesScalarOnRandomFlags) {
  LevelGuard guard;
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t n = rng.Uniform(400);
    const double density = rng.NextDouble();
    std::vector<uint8_t> flags(n);
    for (size_t i = 0; i < n; ++i) {
      // Any nonzero byte is a hit; use varied nonzero values, not just 1.
      flags[i] = rng.Bernoulli(density)
                     ? static_cast<uint8_t>(1 + rng.Uniform(255))
                     : 0;
    }
    // Exactly the contract's n + 7 capacity, so an out-of-contract store
    // trips ASan/valgrind instead of hiding in slack.
    std::vector<uint32_t> expected(n + 7, 0xAAAAAAAAu);
    const size_t want =
        simd::scalar::CompactSelection(flags.data(), n, expected.data());
    for (Level level : TestableLevels()) {
      simd::ForceLevelForTest(level);
      std::vector<uint32_t> got(n + 7, 0xBBBBBBBBu);
      const size_t k = simd::CompactSelection(flags.data(), n, got.data());
      ASSERT_EQ(k, want) << simd::LevelName(level) << " trial " << trial;
      for (size_t i = 0; i < k; ++i) {
        ASSERT_EQ(got[i], expected[i])
            << simd::LevelName(level) << " trial " << trial << " slot " << i;
      }
    }
  }
}

TEST(SimdCompactTest, AllAndNoneSelected) {
  LevelGuard guard;
  for (Level level : TestableLevels()) {
    simd::ForceLevelForTest(level);
    std::vector<uint8_t> all(129, 1), none(129, 0);
    std::vector<uint32_t> out(129 + 7);
    EXPECT_EQ(simd::CompactSelection(all.data(), all.size(), out.data()),
              all.size());
    EXPECT_EQ(simd::CompactSelection(none.data(), none.size(), out.data()),
              0u);
  }
}

TEST(SimdHashTest, CombineBatchMatchesScalarChain) {
  LevelGuard guard;
  Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t n = rng.Uniform(300);
    std::vector<uint64_t> seed(n), h(n);
    for (size_t i = 0; i < n; ++i) {
      seed[i] = rng.Next();
      h[i] = rng.Next();
    }
    std::vector<uint64_t> expected = seed;
    for (size_t i = 0; i < n; ++i) {
      expected[i] = HashCombine(expected[i], h[i]);
    }
    for (Level level : TestableLevels()) {
      simd::ForceLevelForTest(level);
      std::vector<uint64_t> acc = seed;
      simd::HashCombineBatch(acc.data(), h.data(), n);
      ASSERT_EQ(acc, expected) << simd::LevelName(level) << " trial " << trial;
    }
  }
}

TEST(SimdHashTest, CombineMix64BatchMatchesScalarChain) {
  LevelGuard guard;
  Rng rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t n = rng.Uniform(300);
    std::vector<uint64_t> seed(n), keys(n);
    for (size_t i = 0; i < n; ++i) {
      seed[i] = rng.Next();
      keys[i] = rng.Next();
    }
    std::vector<uint64_t> expected = seed;
    for (size_t i = 0; i < n; ++i) {
      expected[i] = HashCombine(expected[i], Mix64(keys[i]));
    }
    for (Level level : TestableLevels()) {
      simd::ForceLevelForTest(level);
      std::vector<uint64_t> acc = seed;
      simd::HashCombineMix64Batch(acc.data(), keys.data(), n);
      ASSERT_EQ(acc, expected) << simd::LevelName(level) << " trial " << trial;
    }
  }
}

TEST(SimdHashTest, HashF64CanonicalizesSignedZero) {
  EXPECT_EQ(HashF64(0.0), HashF64(-0.0));
  EXPECT_EQ(HashF64(1.0), Mix64(CanonicalF64Bits(1.0)));
  EXPECT_NE(HashF64(1.0), HashF64(2.0));
}

/// Random sorted-unique u32 array with controllable value density, so the
/// intersection tests cover sparse-vs-sparse, dense-vs-dense and the
/// mixed cases the adaptive matcher switches between.
std::vector<uint32_t> RandomSortedUnique(Rng* rng, size_t max_len,
                                         uint32_t value_range) {
  const size_t len = rng->Uniform(max_len + 1);
  std::set<uint32_t> values;
  for (size_t i = 0; i < len; ++i) {
    values.insert(static_cast<uint32_t>(rng->Uniform(value_range)));
  }
  return std::vector<uint32_t>(values.begin(), values.end());
}

TEST(SimdIntersectTest, MatchesScalarAndStdOnRandomArrays) {
  LevelGuard guard;
  Rng rng(17);
  for (int trial = 0; trial < 80; ++trial) {
    const uint32_t range = 1 + static_cast<uint32_t>(rng.Uniform(500));
    std::vector<uint32_t> a = RandomSortedUnique(&rng, 300, range);
    std::vector<uint32_t> b = RandomSortedUnique(&rng, 300, range);
    std::vector<uint32_t> expected;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(expected));
    std::vector<uint32_t> scalar_out(std::min(a.size(), b.size()));
    const size_t scalar_k = simd::scalar::IntersectSortedU32(
        a.data(), a.size(), b.data(), b.size(), scalar_out.data());
    scalar_out.resize(scalar_k);
    ASSERT_EQ(scalar_out, expected) << "scalar twin diverges from std";
    for (Level level : TestableLevels()) {
      simd::ForceLevelForTest(level);
      std::vector<uint32_t> got(std::min(a.size(), b.size()) + 1,
                                0xCCCCCCCCu);
      const size_t k = simd::IntersectSortedU32(a.data(), a.size(), b.data(),
                                                b.size(), got.data());
      got.resize(k);
      ASSERT_EQ(got, expected) << simd::LevelName(level) << " trial "
                               << trial;
    }
  }
}

TEST(SimdIntersectTest, SkewedLengthsAndBlockBoundaries) {
  LevelGuard guard;
  Rng rng(19);
  // Exact multiples of the 4/8-lane block sizes plus off-by-ones, where
  // the vector loop hands off to the scalar tail.
  const size_t sizes[] = {0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33};
  for (size_t na : sizes) {
    for (size_t nb : sizes) {
      std::vector<uint32_t> a, b;
      for (size_t i = 0; i < na; ++i) {
        a.push_back(static_cast<uint32_t>(2 * i));
      }
      for (size_t i = 0; i < nb; ++i) {
        b.push_back(static_cast<uint32_t>(3 * i));
      }
      std::vector<uint32_t> expected;
      std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                            std::back_inserter(expected));
      for (Level level : TestableLevels()) {
        simd::ForceLevelForTest(level);
        std::vector<uint32_t> got(std::max<size_t>(1, std::min(na, nb)));
        const size_t k = simd::IntersectSortedU32(
            a.data(), na, b.data(), nb, got.data());
        got.resize(k);
        ASSERT_EQ(got, expected)
            << simd::LevelName(level) << " na=" << na << " nb=" << nb;
      }
    }
  }
}

TEST(SimdChecksumTest, MatchesScalarOnRandomBuffers) {
  LevelGuard guard;
  Rng rng(29);
  for (int trial = 0; trial < 60; ++trial) {
    // Sizes straddle the 16/32-byte vector strides and 8-byte tails.
    const size_t n = rng.Uniform(600);
    std::vector<uint8_t> buf(n);
    for (size_t i = 0; i < n; ++i) {
      buf[i] = static_cast<uint8_t>(rng.Next());
    }
    const uint64_t expected = simd::scalar::Checksum64(buf.data(), n);
    for (Level level : TestableLevels()) {
      simd::ForceLevelForTest(level);
      ASSERT_EQ(simd::Checksum64(buf.data(), n), expected)
          << simd::LevelName(level) << " trial " << trial << " n=" << n;
    }
  }
}

TEST(SimdChecksumTest, DetectsFlipsSwapsAndLengthChanges) {
  std::vector<uint8_t> buf(257);
  Rng rng(31);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<uint8_t>(rng.Next());
  }
  const uint64_t base = simd::Checksum64(buf.data(), buf.size());
  // Single byte flip, anywhere.
  for (size_t i = 0; i < buf.size(); i += 37) {
    std::vector<uint8_t> mutated = buf;
    mutated[i] ^= 0x40;
    EXPECT_NE(simd::Checksum64(mutated.data(), mutated.size()), base)
        << "flip at " << i;
  }
  // Swapping two distinct 8-byte words must change the fold (the
  // positional (i+1)*step term exists exactly for this).
  std::vector<uint8_t> swapped = buf;
  for (size_t i = 0; i < 8; ++i) std::swap(swapped[i], swapped[64 + i]);
  EXPECT_NE(simd::Checksum64(swapped.data(), swapped.size()), base);
  // A truncated buffer must not collide via zero padding.
  EXPECT_NE(simd::Checksum64(buf.data(), buf.size() - 1), base);
  EXPECT_EQ(simd::Checksum64(buf.data(), buf.size()), base);
}

}  // namespace
}  // namespace esharp
