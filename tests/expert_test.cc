#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <string>

#include "common/rng.h"
#include "expert/detector.h"
#include "ranking_reference.h"

namespace esharp::expert {
namespace {

using microblog::AccountKind;
using microblog::TweetCorpus;
using microblog::UserProfile;

UserProfile MakeUser(microblog::UserId id) {
  UserProfile u;
  u.id = id;
  u.screen_name = "u" + std::to_string(id);
  return u;
}

// A small corpus with a clear topical authority (user 0), a generalist
// (user 1), and a bystander who is only mentioned (user 2).
TweetCorpus SmallCorpus() {
  TweetCorpus corpus;
  for (microblog::UserId id = 0; id < 3; ++id) corpus.AddUser(MakeUser(id));
  // User 0: 4/4 tweets on topic, retweeted, mentioned on topic.
  corpus.AddTweet(0, "nfl preview week one", {}, 10);
  corpus.AddTweet(0, "nfl injury report", {}, 5);
  corpus.AddTweet(0, "nfl draft rumors", {}, 3);
  corpus.AddTweet(0, "nfl power rankings", {}, 8);
  // User 1: 1/4 on topic, rarely engaged.
  corpus.AddTweet(1, "nfl is back", {0}, 0);
  corpus.AddTweet(1, "pasta recipe", {}, 0);
  corpus.AddTweet(1, "my cat photos", {2}, 1);
  corpus.AddTweet(1, "rainy day", {}, 0);
  return corpus;
}

// ---------------------------------------------------- Candidate selection --

TEST(CandidateSelectionTest, AuthorsAndMentionedAreCandidates) {
  TweetCorpus corpus = SmallCorpus();
  ExpertDetector detector(&corpus);
  auto candidates = detector.CollectCandidates("nfl");
  // User 0 (author + mentioned), user 1 (author). User 2 only appears in an
  // off-topic tweet: not a candidate.
  ASSERT_EQ(candidates.size(), 2u);
  EXPECT_EQ(candidates[0].user, 0u);
  EXPECT_TRUE(candidates[0].is_author);
  EXPECT_TRUE(candidates[0].is_mentioned);
  EXPECT_EQ(candidates[0].tweets_on_topic, 4u);
  EXPECT_EQ(candidates[0].mentions_on_topic, 1u);
  EXPECT_EQ(candidates[0].retweets_on_topic, 26u);
  EXPECT_EQ(candidates[1].user, 1u);
  EXPECT_TRUE(candidates[1].is_author);
  EXPECT_FALSE(candidates[1].is_mentioned);
}

TEST(CandidateSelectionTest, MultiTermQueryNeedsAllTerms) {
  TweetCorpus corpus = SmallCorpus();
  ExpertDetector detector(&corpus);
  auto candidates = detector.CollectCandidates("nfl draft");
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].user, 0u);
  EXPECT_EQ(candidates[0].tweets_on_topic, 1u);
}

TEST(CandidateSelectionTest, NoMatchesNoCandidates) {
  TweetCorpus corpus = SmallCorpus();
  ExpertDetector detector(&corpus);
  EXPECT_TRUE(detector.CollectCandidates("cricket").empty());
}

// ---------------------------------------------------------------- Ranking --

TEST(RankingTest, TopicalAuthorityOutranksGeneralist) {
  TweetCorpus corpus = SmallCorpus();
  DetectorOptions options;
  options.min_z_score = -100;  // keep everyone
  ExpertDetector detector(&corpus, options);
  auto experts = *detector.FindExperts("nfl");
  ASSERT_EQ(experts.size(), 2u);
  EXPECT_EQ(experts[0].user, 0u);
  EXPECT_GT(experts[0].score, experts[1].score);
  EXPECT_GT(experts[0].z_topical_signal, experts[1].z_topical_signal);
}

TEST(RankingTest, ZScoresAreCentered) {
  TweetCorpus corpus = SmallCorpus();
  DetectorOptions options;
  options.min_z_score = -100;
  ExpertDetector detector(&corpus, options);
  auto experts = *detector.FindExperts("nfl");
  double sum = 0;
  for (const RankedExpert& e : experts) sum += e.z_topical_signal;
  EXPECT_NEAR(sum, 0.0, 1e-9);  // z-scores over the pool sum to ~0
}

TEST(RankingTest, MinZScoreFiltersAndCapApplies) {
  TweetCorpus corpus = SmallCorpus();
  DetectorOptions options;
  options.min_z_score = 0.0;
  ExpertDetector detector(&corpus, options);
  auto experts = *detector.FindExperts("nfl");
  // With two candidates, z-scores are symmetric: only the better one is
  // non-negative.
  ASSERT_EQ(experts.size(), 1u);
  EXPECT_EQ(experts[0].user, 0u);

  options.min_z_score = -100;
  options.max_experts = 1;
  ExpertDetector capped(&corpus, options);
  EXPECT_EQ((*capped.FindExperts("nfl")).size(), 1u);

  // A cap of 0 returns no expert, with or without the cluster filter.
  options.max_experts = 0;
  ExpertDetector none(&corpus, options);
  EXPECT_TRUE((*none.FindExperts("nfl")).empty());
  options.enable_cluster_filter = true;
  ExpertDetector none_filtered(&corpus, options);
  EXPECT_TRUE((*none_filtered.FindExperts("nfl")).empty());
}

TEST(RankingTest, WeightsChangeTheScore) {
  TweetCorpus corpus = SmallCorpus();
  DetectorOptions ts_only;
  ts_only.weight_topical_signal = 1.0;
  ts_only.weight_mention_impact = 0.0;
  ts_only.weight_retweet_impact = 0.0;
  ts_only.min_z_score = -100;
  ExpertDetector detector(&corpus, ts_only);
  auto experts = *detector.FindExperts("nfl");
  ASSERT_EQ(experts.size(), 2u);
  EXPECT_NEAR(experts[0].score, experts[0].z_topical_signal, 1e-12);
}

TEST(RankingTest, EmptyPoolRanksEmpty) {
  TweetCorpus corpus = SmallCorpus();
  ExpertDetector detector(&corpus);
  EXPECT_TRUE((*detector.RankCandidates({})).empty());
}

TEST(RankingTest, InvalidSmoothingRejected) {
  TweetCorpus corpus = SmallCorpus();
  DetectorOptions options;
  options.smoothing = 0.0;
  ExpertDetector detector(&corpus, options);
  CandidateEvidence c;
  c.user = 0;
  EXPECT_FALSE(detector.RankCandidates({c}).ok());
}

TEST(RankingTest, DeterministicTieBreakByUserId) {
  // Two users with identical evidence: order must be stable by id.
  TweetCorpus corpus;
  corpus.AddUser(MakeUser(0));
  corpus.AddUser(MakeUser(1));
  corpus.AddTweet(0, "golf swing tips", {}, 2);
  corpus.AddTweet(1, "golf swing tips", {}, 2);
  DetectorOptions options;
  options.min_z_score = -100;
  ExpertDetector detector(&corpus, options);
  auto experts = *detector.FindExperts("golf");
  ASSERT_EQ(experts.size(), 2u);
  EXPECT_EQ(experts[0].user, 0u);
  EXPECT_EQ(experts[1].user, 1u);
}

// Users come in classes of four that share every total the ranker reads
// (tweets, mentions received, retweets, followers), so identical evidence
// under different ids scores bit-equal and the user tie-break decides.
TweetCorpus TieHeavyCorpus(size_t num_classes) {
  TweetCorpus corpus;
  const size_t num_users = 4 * num_classes;
  for (size_t id = 0; id < num_users; ++id) {
    UserProfile u = MakeUser(static_cast<microblog::UserId>(id));
    u.followers = (id / 4) * 37 % 1000;
    corpus.AddUser(u);
  }
  for (size_t id = 0; id < num_users; ++id) {
    const size_t cls = id / 4;
    const auto next =
        static_cast<microblog::UserId>(4 * ((cls + 1) % num_classes));
    for (size_t t = 0; t <= cls % 5; ++t) {
      corpus.AddTweet(static_cast<microblog::UserId>(id), "topic chatter",
                      {next, next + 1, next + 2, next + 3},
                      static_cast<uint32_t>(cls % 4));
    }
  }
  return corpus;
}

CandidateEvidence RandomCounts(Rng& rng) {
  CandidateEvidence c;
  c.is_author = rng.Bernoulli(0.5);
  c.is_mentioned = !c.is_author || rng.Bernoulli(0.5);
  c.tweets_on_topic = rng.Uniform(6);
  c.mentions_on_topic = rng.Uniform(10);
  c.retweets_on_topic = rng.Uniform(8);
  c.conversational_on_topic = rng.Uniform(3);
  c.hashtag_on_topic = rng.Uniform(3);
  return c;
}

// A candidate pool sorted by user: most members of a class share one
// evidence draw, so many candidates tie on score.
std::vector<CandidateEvidence> TieHeavyPool(Rng& rng, size_t num_classes) {
  std::vector<CandidateEvidence> pool;
  for (size_t cls = 0; cls < num_classes; ++cls) {
    if (!rng.Bernoulli(0.6)) continue;
    const CandidateEvidence shared = RandomCounts(rng);
    for (size_t member = 0; member < 4; ++member) {
      if (rng.Bernoulli(0.2)) continue;
      CandidateEvidence c = rng.Bernoulli(0.7) ? shared : RandomCounts(rng);
      c.user = static_cast<microblog::UserId>(4 * cls + member);
      pool.push_back(c);
    }
  }
  return pool;
}

void ExpectSameBits(const std::vector<RankedExpert>& got,
                    const std::vector<RankedExpert>& want,
                    const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  auto bits = [](double d) { return std::bit_cast<uint64_t>(d); };
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(label + " rank " + std::to_string(i));
    ASSERT_EQ(got[i].user, want[i].user);
    EXPECT_EQ(bits(got[i].score), bits(want[i].score));
    EXPECT_EQ(bits(got[i].z_topical_signal), bits(want[i].z_topical_signal));
    EXPECT_EQ(bits(got[i].z_mention_impact), bits(want[i].z_mention_impact));
    EXPECT_EQ(bits(got[i].z_retweet_impact), bits(want[i].z_retweet_impact));
    EXPECT_EQ(bits(got[i].z_conversation), bits(want[i].z_conversation));
    EXPECT_EQ(bits(got[i].z_hashtag), bits(want[i].z_hashtag));
    EXPECT_EQ(bits(got[i].z_followers), bits(want[i].z_followers));
  }
}

TEST(RankingTest, MatchesFullSortReferenceBitForBit) {
  constexpr size_t kClasses = 60;
  const TweetCorpus corpus = TieHeavyCorpus(kClasses);
  Rng rng(2016);
  size_t ties = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const std::vector<CandidateEvidence> pool = TieHeavyPool(rng, kClasses);
    const size_t n = pool.size();
    for (double min_z : {-100.0, 0.0, 0.5, 100.0}) {
      for (size_t cap : {size_t{0}, size_t{1}, size_t{15}, n, n + 1}) {
        for (bool extended : {false, true}) {
          for (bool filter : {false, true}) {
            DetectorOptions options;
            options.min_z_score = min_z;
            options.max_experts = cap;
            options.enable_cluster_filter = filter;
            if (extended) {
              options.weight_conversation = 0.1;
              options.weight_hashtag = 0.1;
              options.weight_followers = 0.05;
            }
            const std::string label =
                "trial " + std::to_string(trial) + " n=" + std::to_string(n) +
                " min_z=" + std::to_string(min_z) +
                " cap=" + std::to_string(cap) +
                " extended=" + std::to_string(extended) +
                " filter=" + std::to_string(filter);
            Result<std::vector<RankedExpert>> want =
                ref::RankCandidates(corpus, options, pool);
            Result<std::vector<RankedExpert>> got =
                ExpertDetector(&corpus, options).RankCandidates(pool);
            ASSERT_TRUE(want.ok() && got.ok()) << label;
            ExpectSameBits(*got, *want, label);
            for (size_t i = 1; i < want->size(); ++i) {
              ties += (*want)[i].score == (*want)[i - 1].score;
            }
          }
        }
      }
    }
  }
  // The pools must actually exercise the user tie-break.
  EXPECT_GT(ties, 100u);
}

// ---------------------------------------------------------- MergeEvidence --

TEST(MergeEvidenceTest, SumsCountsAndOrsFlags) {
  CandidateEvidence a;
  a.user = 7;
  a.is_author = true;
  a.tweets_on_topic = 2;
  a.retweets_on_topic = 5;
  CandidateEvidence b;
  b.user = 7;
  b.is_mentioned = true;
  b.tweets_on_topic = 1;
  b.mentions_on_topic = 3;
  CandidateEvidence other;
  other.user = 9;
  other.is_author = true;
  other.tweets_on_topic = 1;

  auto merged = MergeEvidence({{a}, {b, other}});
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].user, 7u);
  EXPECT_TRUE(merged[0].is_author);
  EXPECT_TRUE(merged[0].is_mentioned);
  EXPECT_EQ(merged[0].tweets_on_topic, 3u);
  EXPECT_EQ(merged[0].mentions_on_topic, 3u);
  EXPECT_EQ(merged[0].retweets_on_topic, 5u);
  EXPECT_EQ(merged[1].user, 9u);
}

TEST(MergeEvidenceTest, EmptyInputs) {
  EXPECT_TRUE(MergeEvidence({}).empty());
  EXPECT_TRUE(MergeEvidence({{}, {}}).empty());
}

TEST(FeatureMathTest, TopicalSignalMatchesHandComputation) {
  TweetCorpus corpus = SmallCorpus();
  DetectorOptions options;
  options.min_z_score = -100;
  options.weight_topical_signal = 1.0;
  options.weight_mention_impact = 0.0;
  options.weight_retweet_impact = 0.0;
  ExpertDetector detector(&corpus, options);
  auto experts = *detector.FindExperts("nfl");
  ASSERT_EQ(experts.size(), 2u);
  // TS(user0) = (4 + eps) / (4 + eps) = 1; TS(user1) = (1 + eps)/(4 + eps).
  const double eps = options.smoothing;
  double log_ts0 = std::log((4 + eps) / (4 + eps));
  double log_ts1 = std::log((1 + eps) / (4 + eps));
  double mean = (log_ts0 + log_ts1) / 2;
  double sd = std::sqrt(((log_ts0 - mean) * (log_ts0 - mean) +
                         (log_ts1 - mean) * (log_ts1 - mean)) /
                        2);
  EXPECT_NEAR(experts[0].z_topical_signal, (log_ts0 - mean) / sd, 1e-9);
  EXPECT_NEAR(experts[1].z_topical_signal, (log_ts1 - mean) / sd, 1e-9);
}

}  // namespace
}  // namespace esharp::expert
