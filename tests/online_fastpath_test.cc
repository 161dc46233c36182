// The online fast-path equivalence suite (ctest -L online): the engine
// over the snapshot-time evidence index — complete, or empty so every term
// is collected live — and interned-token matching must be *bit-identical*
// to the reference, core::ESharp::FindExperts over the same store and
// corpus — same ranked experts, same doubles, on randomized worlds; every
// publish path must index its whole expansion vocabulary; and the
// deadline must cancel cooperatively inside candidate collection. Also
// exercised under TSan via -DESHARP_SANITIZE=thread (the stress test at
// the bottom).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/strings.h"
#include "community/store.h"
#include "esharp/esharp.h"
#include "esharp/pipeline.h"
#include "expert/detector.h"
#include "expert/evidence_index.h"
#include "ingest/ingest.h"
#include "ingest/sharded.h"
#include "microblog/corpus.h"
#include "microblog/generator.h"
#include "querylog/generator.h"
#include "serving/engine.h"
#include "serving/snapshot_file.h"

namespace esharp {
namespace {

using expert::CandidateEvidence;
using expert::RankedExpert;

// ------------------------------------------------------------- helpers ----

void ExpectSameExperts(const std::vector<RankedExpert>& a,
                       const std::vector<RankedExpert>& b,
                       const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(context + " expert #" + std::to_string(i));
    EXPECT_EQ(a[i].user, b[i].user);
    // Exact equality on purpose: the fast path must not perturb a single
    // bit of the ranking arithmetic.
    EXPECT_EQ(a[i].score, b[i].score);
    EXPECT_EQ(a[i].z_topical_signal, b[i].z_topical_signal);
    EXPECT_EQ(a[i].z_mention_impact, b[i].z_mention_impact);
    EXPECT_EQ(a[i].z_retweet_impact, b[i].z_retweet_impact);
    EXPECT_EQ(a[i].z_conversation, b[i].z_conversation);
    EXPECT_EQ(a[i].z_hashtag, b[i].z_hashtag);
    EXPECT_EQ(a[i].z_followers, b[i].z_followers);
  }
}

void ExpectSameEvidence(const std::vector<CandidateEvidence>& a,
                        const std::vector<CandidateEvidence>& b,
                        const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(context + " candidate #" + std::to_string(i));
    EXPECT_EQ(a[i].user, b[i].user);
    EXPECT_EQ(a[i].is_author, b[i].is_author);
    EXPECT_EQ(a[i].is_mentioned, b[i].is_mentioned);
    EXPECT_EQ(a[i].tweets_on_topic, b[i].tweets_on_topic);
    EXPECT_EQ(a[i].mentions_on_topic, b[i].mentions_on_topic);
    EXPECT_EQ(a[i].retweets_on_topic, b[i].retweets_on_topic);
    EXPECT_EQ(a[i].conversational_on_topic, b[i].conversational_on_topic);
    EXPECT_EQ(a[i].hashtag_on_topic, b[i].hashtag_on_topic);
  }
}

/// One randomized world: universe -> query log -> offline pipeline ->
/// corpus, at small scale (the offline stage is the expensive part).
struct World {
  querylog::TopicUniverse universe;
  core::OfflineArtifacts artifacts;
  microblog::TweetCorpus corpus;
};

struct WorldShape {
  uint64_t seed;
  size_t categories;
  size_t domains_per_category;
  size_t casual_users;
  size_t spam_users;
};

World MakeWorld(const WorldShape& shape) {
  querylog::UniverseOptions uo;
  uo.num_categories = shape.categories;
  uo.domains_per_category = shape.domains_per_category;
  uo.seed = shape.seed;
  querylog::TopicUniverse universe = *querylog::TopicUniverse::Generate(uo);

  querylog::GeneratorOptions go;
  go.seed = shape.seed + 1;
  go.head_impressions = 15000;
  querylog::GeneratedLog generated = *GenerateQueryLog(universe, go);

  microblog::CorpusOptions co;
  co.seed = shape.seed + 2;
  co.casual_users = shape.casual_users;
  co.spam_users = shape.spam_users;
  microblog::TweetCorpus corpus = *GenerateCorpus(universe, co);

  core::OfflineOptions offline;
  offline.extraction.min_similarity = 0.15;
  offline.corpus = &corpus;  // index stage builds the evidence index
  core::OfflineArtifacts artifacts = *RunOfflinePipeline(generated.log, offline);

  return World{std::move(universe), std::move(artifacts), std::move(corpus)};
}

/// The query mix of the equivalence runs: every domain head term (the
/// in-vocabulary workload), a few community sibling terms, plus ad-hoc
/// shapes the vocabulary cannot cover (unknown tokens, mixed case,
/// duplicate tokens, multi-word raw strings).
std::vector<std::string> QueryMix(const World& world) {
  std::vector<std::string> queries;
  for (const querylog::TopicDomain& dom : world.universe.domains()) {
    if (!dom.terms.empty()) queries.push_back(dom.terms[0]);
    if (dom.terms.size() > 2) queries.push_back(dom.terms[2]);
  }
  for (const community::Community& c : world.artifacts.store.communities()) {
    if (c.terms.size() > 1) {
      queries.push_back(c.terms[1]);
      break;
    }
  }
  queries.push_back("no such topic anywhere");
  queries.push_back("ZZZUNSEEN token");
  if (!queries.empty() && !queries[0].empty()) {
    std::string upper = queries[0];
    for (char& ch : upper) ch = static_cast<char>(std::toupper(ch));
    queries.push_back(upper);                       // case-folding
    queries.push_back(queries[0] + " " + queries[0]);  // duplicate tokens
  }
  return queries;
}

/// The index of a generation whose every term is collected live.
std::shared_ptr<const expert::TermEvidenceIndex> EmptyIndex() {
  return std::make_shared<const expert::TermEvidenceIndex>();
}

// Every request reaches the detector: no cache, no single-flight.
serving::ServingOptions UncachedOptions() {
  serving::ServingOptions o;
  o.num_threads = 3;
  o.enable_cache = false;
  o.enable_single_flight = false;
  return o;
}

// ------------------------------------------- randomized path equivalence --

TEST(OnlineFastPathTest, RandomizedWorldsBitIdenticalToReference) {
  const WorldShape shapes[] = {
      {601, 2, 8, 200, 20},
      {733, 3, 5, 120, 5},
      {901, 2, 4, 300, 40},
  };
  for (const WorldShape& shape : shapes) {
    SCOPED_TRACE("seed " + std::to_string(shape.seed));
    World world = MakeWorld(shape);
    ASSERT_NE(world.artifacts.evidence_index, nullptr);

    auto store = std::make_shared<const community::CommunityStore>(
        world.artifacts.store);
    serving::SnapshotManager fast_manager(&world.corpus);
    // Reuse the pipeline-built index: this is the production hand-off.
    fast_manager.Publish(store, {}, world.artifacts.evidence_index);
    // An empty index: the reference engine collects every term live.
    serving::SnapshotManager ref_manager(&world.corpus);
    ref_manager.Publish(store, {}, EmptyIndex());
    ASSERT_GT(fast_manager.Acquire()->evidence()->num_terms(), 0u);
    ASSERT_EQ(ref_manager.Acquire()->evidence()->num_terms(), 0u);

    serving::ServingEngine ref_engine(&ref_manager, UncachedOptions());
    serving::ServingEngine fast_engine(&fast_manager, UncachedOptions());
    // The oracle: every term collected and merged by ESharp itself.
    const core::ESharp oracle(store.get(), &world.corpus);

    for (const std::string& q : QueryMix(world)) {
      auto expected = oracle.FindExperts(q);
      auto ref = ref_engine.Query({q});
      auto fast = fast_engine.Query({q});
      ASSERT_TRUE(expected.ok()) << q << ": " << expected.status().ToString();
      ASSERT_TRUE(ref.ok()) << q << ": " << ref.status().ToString();
      ASSERT_TRUE(fast.ok()) << q << ": " << fast.status().ToString();
      ExpectSameExperts(ref->experts, *expected, "live query '" + q + "'");
      ExpectSameExperts(fast->experts, *expected, "indexed query '" + q + "'");
    }
  }
}

TEST(OnlineFastPathTest, PublishBuiltEvidenceMatchesPipelineBuilt) {
  World world = MakeWorld({601, 2, 8, 200, 20});
  auto store = std::make_shared<const community::CommunityStore>(
      world.artifacts.store);
  // Default publish path: no index supplied, the manager builds one.
  serving::SnapshotManager manager(&world.corpus);
  manager.Publish(store);
  const expert::TermEvidenceIndex* built = manager.Acquire()->evidence();
  ASSERT_NE(built, nullptr);
  const expert::TermEvidenceIndex& piped = *world.artifacts.evidence_index;
  EXPECT_EQ(built->num_terms(), piped.num_terms());
  EXPECT_EQ(built->num_entries(), piped.num_entries());
  for (const community::Community& c : store->communities()) {
    for (const std::string& term : c.terms) {
      std::string normalized = ToLowerAscii(term);
      const auto* a = built->Find(normalized);
      const auto* b = piped.Find(normalized);
      ASSERT_NE(a, nullptr) << normalized;
      ASSERT_NE(b, nullptr) << normalized;
      ExpectSameEvidence(*a, *b, "term '" + normalized + "'");
    }
  }
}

// ------------------------------------------------ vocabulary coverage ----

/// Every term a query can expand into against `store` has a pool in
/// `index`: each ExpansionVocabulary term, and every term of each store
/// term's expansion; and the index holds nothing else. A publish path that
/// dropped its index would still answer bit-identically, only slower, so
/// this is the check that notices.
void ExpectIndexCoversVocabulary(const community::CommunityStore& store,
                                 const microblog::TweetCorpus* corpus,
                                 const expert::TermEvidenceIndex& index,
                                 const std::string& path) {
  SCOPED_TRACE(path);
  const std::vector<std::string> vocabulary = core::ExpansionVocabulary(store);
  ASSERT_FALSE(vocabulary.empty());
  for (const std::string& term : vocabulary) {
    ASSERT_NE(index.Find(term), nullptr) << "vocabulary term '" << term << "'";
  }
  const core::ESharp esharp(&store, corpus);
  for (const community::Community& c : store.communities()) {
    for (const std::string& term : c.terms) {
      for (const std::string& expanded : esharp.Expand(term).terms) {
        ASSERT_NE(index.Find(expanded), nullptr)
            << "'" << term << "' expands into '" << expanded << "'";
      }
    }
  }
  EXPECT_EQ(index.num_terms(),
            std::set<std::string>(vocabulary.begin(), vocabulary.end()).size());
}

void ExpectSnapshotCoversVocabulary(const serving::SnapshotManager& manager,
                                    const std::string& path) {
  std::shared_ptr<const serving::ServingSnapshot> snapshot = manager.Acquire();
  ASSERT_NE(snapshot, nullptr) << path;
  ExpectIndexCoversVocabulary(snapshot->store(), snapshot->corpus(),
                              *snapshot->evidence(), path);
}

TEST(OnlineFastPathTest, EveryPublishPathIndexesItsWholeVocabulary) {
  // The offline pipeline with a corpus, and Publish building the index.
  World world = MakeWorld({733, 3, 5, 120, 5});
  ExpectIndexCoversVocabulary(world.artifacts.store, &world.corpus,
                              *world.artifacts.evidence_index,
                              "RunOfflinePipeline");
  serving::SnapshotManager manager(&world.corpus);
  manager.Publish(world.artifacts.store);
  ExpectSnapshotCoversVocabulary(manager, "SnapshotManager::Publish(store)");

  // A saved generation, loaded back.
  const std::string path = ::testing::TempDir() + "/coverage.esnap";
  ASSERT_TRUE(manager.SaveSnapshot(path).ok());
  Result<serving::SnapshotArtifacts> loaded = serving::LoadSnapshotFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectIndexCoversVocabulary(*loaded->store, loaded->corpus.get(),
                              *loaded->evidence, "LoadSnapshotFile");

  // Streaming ingest: a first publish, a tweet-only delta (store reused,
  // pools extended) and a click-only delta (store rebuilt).
  ingest::IngestOptions options;
  options.extraction.min_query_count = 2;
  options.extraction.min_similarity = 0.05;
  const char* kTerms[] = {"solar", "panels", "hockey", "sushi"};
  Rng rng(17);
  auto tweet = [&](auto& target) {
    target.AppendTweet(static_cast<microblog::UserId>(rng.Uniform(6)),
                       std::string("about ") + kTerms[rng.Uniform(4)] + " " +
                           kTerms[rng.Uniform(4)],
                       {static_cast<microblog::UserId>(rng.Uniform(6))},
                       static_cast<uint32_t>(rng.Uniform(3)));
  };
  auto clicks = [&](auto& target) {
    const std::string query =
        std::string(kTerms[rng.Uniform(4)]) + " " + kTerms[rng.Uniform(4)];
    target.AppendSearches(query, 1);
    target.AppendClicks(query, static_cast<uint32_t>(rng.Uniform(6)),
                        1 + rng.Uniform(3));
  };
  auto seed = [&](auto& target) {
    for (microblog::UserId u = 0; u < 6; ++u) {
      microblog::UserProfile profile;
      profile.id = u;
      profile.screen_name = "u" + std::to_string(u);
      target.AppendUser(profile);
    }
    for (int i = 0; i < 60; ++i) clicks(target);
    for (int i = 0; i < 60; ++i) tweet(target);
  };

  serving::SnapshotManager ingest_manager;
  ingest::IngestPipeline pipeline(&ingest_manager, options);
  seed(pipeline);
  ASSERT_TRUE(pipeline.Publish().ok());
  ExpectSnapshotCoversVocabulary(ingest_manager, "IngestPipeline first");
  for (int i = 0; i < 20; ++i) tweet(pipeline);
  Result<ingest::PublishStats> tweets_only = pipeline.Publish();
  ASSERT_TRUE(tweets_only.ok());
  EXPECT_FALSE(tweets_only->graph_changed);
  ExpectSnapshotCoversVocabulary(ingest_manager, "IngestPipeline tweets");
  for (int i = 0; i < 20; ++i) clicks(pipeline);
  Result<ingest::PublishStats> clicks_only = pipeline.Publish();
  ASSERT_TRUE(clicks_only.ok());
  EXPECT_TRUE(clicks_only->graph_changed);
  ExpectSnapshotCoversVocabulary(ingest_manager, "IngestPipeline clicks");

  // Every shard of the sharded tier indexes the union vocabulary.
  ingest::ShardedIngest sharded(3, options);
  seed(sharded);
  ASSERT_TRUE(sharded.Publish().ok());
  for (uint32_t s = 0; s < sharded.num_shards(); ++s) {
    ExpectSnapshotCoversVocabulary(*sharded.shard_manager(s),
                                   "ShardedIngest shard " + std::to_string(s));
  }
}

// ------------------------------------------------- evidence-index pools ----

TEST(OnlineFastPathTest, EvidencePoolsEqualLiveCollection) {
  World world = MakeWorld({733, 3, 5, 120, 5});
  const expert::TermEvidenceIndex& index = *world.artifacts.evidence_index;
  expert::ExpertDetector detector(&world.corpus);
  size_t checked = 0;
  for (const community::Community& c : world.artifacts.store.communities()) {
    for (const std::string& term : c.terms) {
      std::string normalized = ToLowerAscii(term);
      const std::vector<CandidateEvidence>* pool = index.Find(normalized);
      ASSERT_NE(pool, nullptr) << "vocabulary term '" << normalized
                               << "' missing from the index";
      ExpectSameEvidence(*pool, detector.CollectCandidates(normalized),
                         "term '" + normalized + "'");
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
  EXPECT_EQ(index.num_terms(), checked);  // vocabulary terms are distinct
  EXPECT_EQ(index.Find("definitely not a vocabulary term"), nullptr);
}

// ------------------------------------------------------ token-id matching --

TEST(OnlineFastPathTest, MatchTweetsStringAndTokenIdPathsAgree) {
  Rng rng(42);
  const char* alphabet[] = {"alpha", "beta", "gamma", "delta", "epsilon",
                            "zeta",  "eta",  "theta", "iota",  "kappa"};
  constexpr size_t kAlphabet = sizeof(alphabet) / sizeof(alphabet[0]);
  for (int round = 0; round < 20; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    microblog::TweetCorpus corpus;
    for (microblog::UserId u = 0; u < 4; ++u) {
      microblog::UserProfile p;
      p.id = u;
      p.screen_name = "u" + std::to_string(u);
      corpus.AddUser(p);
    }
    size_t tweets = 20 + rng.Uniform(60);
    for (size_t t = 0; t < tweets; ++t) {
      std::string text;
      size_t words = 1 + rng.Uniform(6);
      for (size_t w = 0; w < words; ++w) {
        if (w) text += ' ';
        text += alphabet[rng.Uniform(kAlphabet)];
      }
      corpus.AddTweet(static_cast<microblog::UserId>(rng.Uniform(4)),
                      std::move(text), {}, 0);
    }
    for (int q = 0; q < 30; ++q) {
      std::vector<std::string> tokens;
      size_t len = rng.Uniform(4);  // includes the empty query
      for (size_t w = 0; w < len; ++w) {
        if (rng.Uniform(10) == 0) {
          tokens.push_back("UNSEEN" + std::to_string(q));
        } else if (!tokens.empty() && rng.Uniform(4) == 0) {
          tokens.push_back(tokens.back());  // duplicate token
        } else {
          std::string tok = alphabet[rng.Uniform(kAlphabet)];
          if (rng.Uniform(2) == 0) tok[0] = static_cast<char>(
              std::toupper(tok[0]));  // exercise lower-casing
          tokens.push_back(tok);
        }
      }
      std::vector<uint32_t> by_string = corpus.MatchTweets(tokens);
      std::string joined;
      for (const std::string& t : tokens) {
        if (!joined.empty()) joined += ' ';
        joined += t;
      }
      std::vector<uint32_t> by_id =
          corpus.MatchTweets(corpus.TokenizeQuery(joined));
      EXPECT_EQ(by_string, by_id) << "query '" << joined << "'";
      EXPECT_TRUE(std::is_sorted(by_id.begin(), by_id.end()));
    }
  }
}

TEST(OnlineFastPathTest, TokenizeNormalizedSkipsLowerCasing) {
  microblog::TweetCorpus corpus;
  microblog::UserProfile p;
  corpus.AddUser(p);
  corpus.AddTweet(0, "Foo BAR baz", {}, 0);
  // Tweet text is lower-cased at ingest; already-normalized lookups agree
  // with the lower-casing path, and a non-normalized string simply misses.
  EXPECT_EQ(corpus.TokenizeNormalized("foo bar"), corpus.TokenizeQuery("FOO Bar"));
  EXPECT_EQ(corpus.FindToken("BAR"), microblog::kNoToken);
  EXPECT_NE(corpus.FindToken("bar"), microblog::kNoToken);
  EXPECT_EQ(corpus.num_tokens(), 3u);
  EXPECT_EQ(corpus.TokenDf(*corpus.TokenizeQuery("foo").begin()), 1u);
}

// ----------------------------------------------------------- merge paths --

/// The pre-PR-5 merge, kept as the test oracle: hash-map accumulation over
/// every list, then sort by user.
std::vector<CandidateEvidence> HashMergeOracle(
    const std::vector<std::vector<CandidateEvidence>>& lists) {
  std::unordered_map<microblog::UserId, CandidateEvidence> by_user;
  for (const auto& list : lists) {
    for (const CandidateEvidence& c : list) {
      CandidateEvidence& acc = by_user[c.user];
      acc.user = c.user;
      acc.is_author = acc.is_author || c.is_author;
      acc.is_mentioned = acc.is_mentioned || c.is_mentioned;
      acc.tweets_on_topic += c.tweets_on_topic;
      acc.mentions_on_topic += c.mentions_on_topic;
      acc.retweets_on_topic += c.retweets_on_topic;
      acc.conversational_on_topic += c.conversational_on_topic;
      acc.hashtag_on_topic += c.hashtag_on_topic;
    }
  }
  std::vector<CandidateEvidence> out;
  out.reserve(by_user.size());
  for (auto& [user, c] : by_user) out.push_back(c);
  std::sort(out.begin(), out.end(),
            [](const CandidateEvidence& a, const CandidateEvidence& b) {
              return a.user < b.user;
            });
  return out;
}

CandidateEvidence RandomEvidence(Rng& rng, microblog::UserId user) {
  CandidateEvidence c;
  c.user = user;
  c.is_author = rng.Uniform(2) == 0;
  c.is_mentioned = rng.Uniform(2) == 0;
  c.tweets_on_topic = rng.Uniform(20);
  c.mentions_on_topic = rng.Uniform(10);
  c.retweets_on_topic = rng.Uniform(50);
  c.conversational_on_topic = rng.Uniform(5);
  c.hashtag_on_topic = rng.Uniform(5);
  return c;
}

TEST(OnlineFastPathTest, MergeEvidenceMatchesHashOracle) {
  Rng rng(7);
  // User ranges cycle downward, so merges on this thread span several
  // 64-user bitmap words and then fewer: the thread-local scratch must come
  // back clean from a larger merge. Each round's ids start at a random
  // offset, so the bitmap sweep often starts past the first word.
  const uint32_t kUserRanges[] = {1000, 200, 16};
  size_t shrinking_merges = 0, offset_merges = 0;
  microblog::UserId previous_max = 0;
  for (int round = 0; round < 90; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const uint32_t num_users = kUserRanges[round % 3];
    const auto first_user = static_cast<microblog::UserId>(rng.Uniform(300));
    // Up to 30 lists: the expansion cap (max_expansion_terms).
    std::vector<std::vector<CandidateEvidence>> lists(rng.Uniform(31));
    microblog::UserId min_user = first_user + num_users, max_user = 0;
    for (auto& list : lists) {
      size_t n = rng.Uniform(40);
      for (size_t i = 0; i < n; ++i) {
        const auto user = first_user + static_cast<microblog::UserId>(
                                           rng.Uniform(num_users));
        min_user = std::min(min_user, user);
        max_user = std::max(max_user, user);
        list.push_back(RandomEvidence(rng, user));
      }
      // Half the lists honor the sorted-unique invariant (the
      // CollectCandidates shape), half stay arbitrary — duplicates and
      // random order — to pin the historical any-order contract.
      if (rng.Uniform(2) == 0) {
        std::sort(list.begin(), list.end(),
                  [](const CandidateEvidence& a, const CandidateEvidence& b) {
                    return a.user < b.user;
                  });
        list.erase(std::unique(list.begin(), list.end(),
                               [](const CandidateEvidence& a,
                                  const CandidateEvidence& b) {
                                 return a.user == b.user;
                               }),
                   list.end());
      }
    }
    ExpectSameEvidence(expert::MergeEvidence(lists), HashMergeOracle(lists),
                       "merge");
    shrinking_merges += max_user < previous_max;
    offset_merges += min_user >= 64 && max_user > min_user;
    previous_max = max_user;
  }
  EXPECT_GT(shrinking_merges, 0u);
  EXPECT_GT(offset_merges, 0u);
}

TEST(OnlineFastPathTest, MergeEvidenceViewsSkipsNullAndEmpty) {
  Rng rng(11);
  std::vector<CandidateEvidence> a, b, empty;
  for (microblog::UserId u = 0; u < 8; u += 2) a.push_back(RandomEvidence(rng, u));
  for (microblog::UserId u = 1; u < 8; u += 3) b.push_back(RandomEvidence(rng, u));
  std::vector<const std::vector<CandidateEvidence>*> views = {
      &a, nullptr, &empty, &b, nullptr};
  ExpectSameEvidence(expert::MergeEvidenceViews(views),
                     HashMergeOracle({a, b}), "views");
  EXPECT_TRUE(expert::MergeEvidenceViews({}).empty());
  EXPECT_TRUE(expert::MergeEvidenceViews({nullptr, &empty}).empty());
}

// -------------------------------------------- cooperative cancellation ----

TEST(OnlineFastPathTest, DeadlineCancelsInsideLiveCollection) {
  World world = MakeWorld({601, 2, 8, 200, 20});
  serving::SnapshotManager manager(&world.corpus);
  manager.Publish(std::make_shared<const community::CommunityStore>(
                      world.artifacts.store),
                  {}, EmptyIndex());  // every term collects live

  serving::ServingOptions options = UncachedOptions();
  // Burn the whole deadline before collection starts: the stage-boundary
  // check has already passed, so only the poll *inside* CollectCandidates
  // (entry + every kCollectCancelStride tweets) can stop the request.
  options.execution_hook = [](const std::string&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  };
  serving::ServingEngine engine(&manager, options);

  std::string query = world.universe.domains().front().terms.front();
  serving::QueryRequest request;
  request.query = query;
  request.deadline_ms = 10;
  auto response = engine.Query(std::move(request));
  ASSERT_TRUE(response.status().IsDeadlineExceeded())
      << response.status().ToString();
  EXPECT_GE(engine.metrics().Report().timeouts, 1u);

  // Same query, no deadline: completes fine on the same engine.
  auto ok = engine.Query({query});
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
}

// ------------------------------------------------------------- TSan stress --

TEST(OnlineFastPathTest, ConcurrentClientsAndPublishesStayConsistent) {
  World world = MakeWorld({901, 2, 4, 300, 40});
  auto store = std::make_shared<const community::CommunityStore>(
      world.artifacts.store);
  serving::SnapshotManager manager(&world.corpus);
  manager.Publish(store);

  serving::ServingOptions options = UncachedOptions();
  options.num_threads = 4;
  serving::ServingEngine engine(&manager, options);

  std::vector<std::string> queries = QueryMix(world);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      Rng rng(1000 + t);
      for (int i = 0; i < 40 && !stop.load(std::memory_order_relaxed); ++i) {
        const std::string& q = queries[rng.Uniform(queries.size())];
        auto r = engine.Query({q});
        // Shedding is legal under load; anything else must succeed.
        if (!r.ok() && !r.status().IsUnavailable()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // Hot-swap generations while the clients hammer the engine; each publish
  // rebuilds the evidence index, so swapped-in pools are fresh allocations.
  for (int swap = 0; swap < 5; ++swap) {
    manager.Publish(store);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (auto& c : clients) c.join();
  stop.store(true, std::memory_order_relaxed);
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GE(manager.version(), 6u);
}

}  // namespace
}  // namespace esharp
