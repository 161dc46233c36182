#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "common/hash.h"
#include "common/partitioner.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/sparse_vector.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "common/timer.h"

namespace esharp {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.message(), "");
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorFactoriesCarryCodeAndMessage) {
  Status st = Status::InvalidArgument("bad k: ", 42);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_EQ(st.message(), "bad k: 42");
  EXPECT_EQ(st.ToString(), "Invalid argument: bad k: 42");
}

TEST(StatusTest, AllFactoriesMapToTheirCode) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  EXPECT_TRUE(Status::NotImplemented("x").IsNotImplemented());
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
}

TEST(StatusTest, ReturnNotOkPropagates) {
  auto inner = []() { return Status::NotFound("gone"); };
  auto outer = [&]() -> Status {
    ESHARP_RETURN_NOT_OK(inner());
    return Status::OK();
  };
  EXPECT_TRUE(outer().IsNotFound());
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status::OK());
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
}

// ---------------------------------------------------------------- Result --

TEST(ResultTest, HoldsValue) {
  Result<int> r(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(ResultTest, AssignOrReturnUnwraps) {
  auto fetch = [](bool fail) -> Result<std::string> {
    if (fail) return Status::IOError("disk");
    return std::string("payload");
  };
  auto use = [&](bool fail) -> Result<size_t> {
    ESHARP_ASSIGN_OR_RETURN(std::string s, fetch(fail));
    return s.size();
  };
  ASSERT_TRUE(use(false).ok());
  EXPECT_EQ(*use(false), 7u);
  EXPECT_TRUE(use(true).status().IsIOError());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).ValueOrDie();
  EXPECT_EQ(*v, 5);
}

// ------------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(13), 13u);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusively) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    int64_t v = rng.UniformInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(11);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, GaussianMomentsAreStandard) {
  Rng rng(13);
  OnlineStats stats;
  for (int i = 0; i < 50000; ++i) stats.Add(rng.Gaussian());
  EXPECT_NEAR(stats.Mean(), 0.0, 0.03);
  EXPECT_NEAR(stats.StdDev(), 1.0, 0.03);
}

TEST(RngTest, PoissonMeanMatches) {
  Rng rng(17);
  double total = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) total += static_cast<double>(rng.Poisson(4.5));
  EXPECT_NEAR(total / n, 4.5, 0.15);
}

TEST(RngTest, PoissonLargeMeanUsesNormalApprox) {
  Rng rng(19);
  double total = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) total += static_cast<double>(rng.Poisson(200.0));
  EXPECT_NEAR(total / n, 200.0, 2.0);
}

TEST(RngTest, CategoricalFollowsWeights) {
  Rng rng(23);
  std::vector<double> weights = {1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  const int n = 30000;
  for (int i = 0; i < n; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.02);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.6, 0.02);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(29);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng a(31);
  Rng child = a.Split();
  // The child stream must not replay the parent stream.
  Rng b(31);
  b.Split();
  EXPECT_NE(child.Next(), b.Next());
}

// ------------------------------------------------------------------ Zipf --

class ZipfParamTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfParamTest, PmfSumsToOneAndDecreases) {
  ZipfSampler zipf(100, GetParam());
  double sum = 0;
  for (size_t k = 0; k < zipf.size(); ++k) {
    sum += zipf.Pmf(k);
    if (k > 0) {
      EXPECT_LE(zipf.Pmf(k), zipf.Pmf(k - 1));
    }
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST_P(ZipfParamTest, EmpiricalFrequenciesTrackPmf) {
  ZipfSampler zipf(20, GetParam());
  Rng rng(37);
  std::vector<int> counts(20, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[zipf.Sample(&rng)];
  for (size_t k = 0; k < 5; ++k) {
    EXPECT_NEAR(counts[k] / static_cast<double>(n), zipf.Pmf(k), 0.02);
  }
}

INSTANTIATE_TEST_SUITE_P(Exponents, ZipfParamTest,
                         ::testing::Values(0.8, 1.0, 1.2, 2.0));

TEST(ZipfTest, SingleRankAlwaysSampled) {
  ZipfSampler zipf(1, 1.0);
  Rng rng(41);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf.Sample(&rng), 0u);
}

// --------------------------------------------------------------- Strings --

TEST(StringsTest, ToLowerAscii) {
  EXPECT_EQ(ToLowerAscii("49ers DRAFT"), "49ers draft");
  EXPECT_EQ(ToLowerAscii(""), "");
  EXPECT_EQ(ToLowerAscii("#SanFrancisco"), "#sanfrancisco");
}

TEST(StringsTest, SplitWhitespaceSkipsRuns) {
  EXPECT_EQ(SplitWhitespace("  a  b\tc\n"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
  EXPECT_TRUE(SplitWhitespace("").empty());
}

TEST(StringsTest, SplitCharKeepsEmptyFields) {
  EXPECT_EQ(SplitChar("a\t\tb", '\t'),
            (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(SplitChar("", ','), (std::vector<std::string>{""}));
}

TEST(StringsTest, JoinRoundTripsSplit) {
  std::vector<std::string> parts = {"dow", "futures"};
  EXPECT_EQ(Join(parts, " "), "dow futures");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringsTest, StripAscii) {
  EXPECT_EQ(StripAscii("  x y  "), "x y");
  EXPECT_EQ(StripAscii(""), "");
  EXPECT_EQ(StripAscii(" \t\n"), "");
}

TEST(StringsTest, ContainsAllTokensIsTheSection3Predicate) {
  // "a tweet matches a query if it contains all of its terms after
  // lower-casing" — whole-word containment, any order.
  EXPECT_TRUE(ContainsAllTokens("The 49ers DRAFT looks strong",
                                {"49ers", "draft"}));
  EXPECT_TRUE(ContainsAllTokens("draft news for the 49ers today",
                                {"49ers", "draft"}));
  EXPECT_FALSE(ContainsAllTokens("the 49ers game", {"49ers", "draft"}));
  // Whole-word: "draft" inside "drafting" must not match.
  EXPECT_FALSE(ContainsAllTokens("the 49ers drafting", {"draft"}));
  EXPECT_TRUE(ContainsAllTokens("anything", {}));
}

TEST(StringsTest, ContainsPhraseRequiresOrder) {
  // §5: the community must contain the query "exactly and in order".
  EXPECT_TRUE(ContainsPhrase({"san", "francisco", "giants"},
                             {"san", "francisco"}));
  EXPECT_FALSE(ContainsPhrase({"francisco", "san"}, {"san", "francisco"}));
  EXPECT_TRUE(ContainsPhrase({"A", "b"}, {"a"}));
  EXPECT_FALSE(ContainsPhrase({"a"}, {"a", "b"}));
}

TEST(StringsTest, EditDistance) {
  EXPECT_EQ(EditDistance("49ers", "49ers"), 0u);
  EXPECT_EQ(EditDistance("49ers", "49res"), 2u);  // transposition = 2 edits
  EXPECT_EQ(EditDistance("abc", ""), 3u);
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
}

TEST(StringsTest, JsonAndHtmlEscape) {
  EXPECT_EQ(JsonEscape("say \"hi\" \\ bye"), "say \\\"hi\\\" \\\\ bye");
  EXPECT_EQ(JsonEscape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(JsonEscape(std::string("\x01\x1f", 2) + std::string(1, '\0')),
            "\\u0001\\u001f\\u0000");
  // Bytes at and above 0x80 (UTF-8 sequences) pass through unchanged.
  EXPECT_EQ(JsonEscape("caf\xc3\xa9 \x80\xff"), "caf\xc3\xa9 \x80\xff");
  EXPECT_EQ(JsonEscape(" ~"), " ~");

  EXPECT_EQ(HtmlEscape("<a href=\"x\">&</a>"),
            "&lt;a href=&quot;x&quot;&gt;&amp;&lt;/a&gt;");
  EXPECT_EQ(HtmlEscape("it's \xc3\xa9"), "it's \xc3\xa9");
}

// ----------------------------------------------------------------- Stats --

TEST(StatsTest, WelfordMatchesClosedForm) {
  OnlineStats s;
  std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
  for (double x : xs) s.Add(x);
  EXPECT_EQ(s.count(), xs.size());
  EXPECT_DOUBLE_EQ(s.Mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.Variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.StdDev(), 2.0);
  EXPECT_DOUBLE_EQ(s.ZScore(9.0), 2.0);
}

TEST(StatsTest, EmptyAndDegenerate) {
  OnlineStats s;
  EXPECT_EQ(s.Mean(), 0.0);
  EXPECT_EQ(s.StdDev(), 0.0);
  EXPECT_EQ(s.ZScore(5.0), 0.0);  // zero stddev -> 0, not inf
  s.Add(3.0);
  EXPECT_EQ(s.ZScore(10.0), 0.0);
}

TEST(StatsTest, MergeEqualsSequential) {
  Rng rng(43);
  OnlineStats whole, left, right;
  for (int i = 0; i < 1000; ++i) {
    double x = rng.Gaussian() * 3 + 1;
    whole.Add(x);
    (i % 2 == 0 ? left : right).Add(x);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.Mean(), whole.Mean(), 1e-9);
  EXPECT_NEAR(left.Variance(), whole.Variance(), 1e-9);
}

TEST(StatsTest, MergeWithEmptySides) {
  OnlineStats a, b;
  a.Add(1);
  a.Add(3);
  OnlineStats a_copy = a;
  a.Merge(b);  // merging empty is a no-op
  EXPECT_EQ(a.Mean(), a_copy.Mean());
  b.Merge(a);  // merging into empty copies
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.Mean(), 2.0);
}

TEST(StatsTest, VectorHelpers) {
  EXPECT_DOUBLE_EQ(Mean({1, 2, 3}), 2.0);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_NEAR(StdDev({2, 4, 4, 4, 5, 5, 7, 9}), 2.0, 1e-12);
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3}, {2, 4, 6}), 1.0, 1e-12);
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3}, {6, 4, 2}), -1.0, 1e-12);
  EXPECT_EQ(PearsonCorrelation({1, 1}, {2, 3}), 0.0);  // degenerate
}

// ---------------------------------------------------------- SparseVector --

TEST(SparseVectorTest, AccumulatesDuplicates) {
  SparseVector v;
  v.Add(3, 2.0);
  v.Add(3, 5.0);
  v.Add(1, 1.0);
  EXPECT_EQ(v.NumNonZero(), 2u);
  EXPECT_DOUBLE_EQ(v.Sum(), 8.0);
  EXPECT_EQ(v.entries()[0].first, 1u);  // sorted by dim
  EXPECT_EQ(v.entries()[1].second, 7.0);
}

TEST(SparseVectorTest, CosineMatchesPaperFigure2) {
  // Fig. 2: 49ers -> {49ers.com: 25, espn.com: 10};
  //         nfl   -> {nfl.com: 20, espn.com: 15}. Cosine ~ 0.22.
  SparseVector niners, nfl;
  niners.Add(0, 25);  // 49ers.com
  niners.Add(1, 10);  // espn.com
  nfl.Add(2, 20);     // nfl.com
  nfl.Add(1, 15);
  double expected = (10.0 * 15.0) /
                    (std::sqrt(25. * 25 + 10. * 10) *
                     std::sqrt(20. * 20 + 15. * 15));
  EXPECT_NEAR(niners.Cosine(nfl), expected, 1e-12);
  EXPECT_GT(niners.Cosine(nfl), 0.2);
}

TEST(SparseVectorTest, CosineIdenticalIsOne) {
  SparseVector a;
  a.Add(1, 3);
  a.Add(9, 4);
  EXPECT_NEAR(a.Cosine(a), 1.0, 1e-12);
}

TEST(SparseVectorTest, CosineDisjointIsZeroAndEmptyIsZero) {
  SparseVector a, b, empty;
  a.Add(1, 1);
  b.Add(2, 1);
  EXPECT_EQ(a.Cosine(b), 0.0);
  EXPECT_EQ(a.Cosine(empty), 0.0);
  EXPECT_EQ(empty.Cosine(empty), 0.0);
}

TEST(SparseVectorTest, DotIsSymmetric) {
  Rng rng(47);
  SparseVector a, b;
  for (int i = 0; i < 50; ++i) {
    a.Add(static_cast<uint32_t>(rng.Uniform(100)), rng.NextDouble());
    b.Add(static_cast<uint32_t>(rng.Uniform(100)), rng.NextDouble());
  }
  EXPECT_NEAR(a.Dot(b), b.Dot(a), 1e-12);
}

TEST(SparseVectorTest, ZeroValueAddsIgnored) {
  SparseVector v;
  v.Add(5, 0.0);
  EXPECT_EQ(v.NumNonZero(), 0u);
  EXPECT_EQ(v.Norm(), 0.0);
}

// ------------------------------------------------------------ ThreadPool --

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 100; ++i) {
    futs.push_back(pool.Submit([&] { counter.fetch_add(1); }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(500);
  pool.ParallelFor(500, [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForZeroAndOne) {
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(1, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, MinimumOneThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<bool> ran{false};
  pool.Submit([&] { ran = true; }).get();
  EXPECT_TRUE(ran.load());
}

// --------------------------------------------------------- ResourceMeter --

TEST(ResourceMeterTest, AccumulatesPerStage) {
  ResourceMeter meter;
  meter.AddTime("Extraction", 1.5);
  meter.AddTime("Extraction", 0.5);
  meter.AddIO("Extraction", 1000, 100);
  meter.AddRows("Extraction", 10, 5);
  meter.SetParallelism("Extraction", 65);
  auto s = meter.Get("Extraction");
  EXPECT_DOUBLE_EQ(s.seconds, 2.0);
  EXPECT_EQ(s.bytes_read, 1000u);
  EXPECT_EQ(s.bytes_written, 100u);
  EXPECT_EQ(s.rows_read, 10u);
  EXPECT_EQ(s.parallelism, 65u);
}

TEST(ResourceMeterTest, StageOrderIsInsertionOrder) {
  ResourceMeter meter;
  meter.AddTime("Clustering", 1);
  meter.AddTime("Extraction", 1);
  meter.AddTime("Clustering", 1);
  EXPECT_EQ(meter.StageNames(),
            (std::vector<std::string>{"Clustering", "Extraction"}));
}

TEST(ResourceMeterTest, MissingStageIsZero) {
  ResourceMeter meter;
  EXPECT_EQ(meter.Get("nope").seconds, 0.0);
}

TEST(HumanBytesTest, Formats) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(2048), "2.0 KB");
  EXPECT_EQ(HumanBytes(998ull * 1024 * 1024 * 1024), "998.0 GB");
}

TEST(TimerTest, MeasuresElapsed) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(t.ElapsedMillis(), 15.0);
  t.Reset();
  EXPECT_LT(t.ElapsedMillis(), 15.0);
}

// ----------------------------------------------------------- Partitioner --

TEST(PartitionerTest, GoldenValuesPinCrossPlatformStability) {
  // Changing Mix64/Fnv1a64 (or the modulus) silently re-partitions every
  // sharded corpus; these goldens turn that into a loud test failure.
  EXPECT_EQ(Mix64(0), 0ULL);
  EXPECT_EQ(Mix64(1), 12994781566227106604ULL);
  EXPECT_EQ(Mix64(42), 9297814886316923340ULL);
  EXPECT_EQ(Mix64(123456789), 10339184063621167238ULL);
  EXPECT_EQ(Fnv1a64("tennis"), 3635498634972789058ULL);
  EXPECT_EQ(Fnv1a64(""), 14695981039346656037ULL);

  EXPECT_EQ(Partitioner(1).ShardOfId(42), 0u);
  EXPECT_EQ(Partitioner(2).ShardOfId(42), 0u);
  EXPECT_EQ(Partitioner(8).ShardOfId(42), 4u);
  EXPECT_EQ(Partitioner(2).ShardOfKey("tennis"), 1u);
  EXPECT_EQ(Partitioner(4).ShardOfKey("tennis"), 1u);
  EXPECT_EQ(Partitioner(8).ShardOfKey("tennis"), 1u);
}

TEST(PartitionerTest, IsDeterministicAndInRange) {
  Partitioner p(7);
  for (uint64_t id = 0; id < 1000; ++id) {
    uint32_t shard = p.ShardOfId(id);
    EXPECT_LT(shard, 7u);
    EXPECT_EQ(shard, p.ShardOfId(id));  // stable across calls
  }
  EXPECT_EQ(p.ShardOfKey("alpha"), p.ShardOfKey(std::string("alpha")));
}

TEST(PartitionerTest, SpreadsDenseIdsEvenly) {
  // The whole point of mixing before the modulus: dense ids (insertion
  // order) must not stripe. Expect every shard within 2x of fair share.
  constexpr uint32_t kShards = 8;
  constexpr uint64_t kIds = 8000;
  Partitioner p(kShards);
  size_t counts[kShards] = {0};
  for (uint64_t id = 0; id < kIds; ++id) ++counts[p.ShardOfId(id)];
  for (size_t c : counts) {
    EXPECT_GT(c, kIds / kShards / 2);
    EXPECT_LT(c, kIds / kShards * 2);
  }
}

TEST(PartitionerTest, SingleShardTakesEverything) {
  Partitioner p(1);
  for (uint64_t id = 0; id < 100; ++id) EXPECT_EQ(p.ShardOfId(id), 0u);
  EXPECT_EQ(p.ShardOfKey("anything"), 0u);
}

}  // namespace
}  // namespace esharp
