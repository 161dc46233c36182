#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "common/strings.h"
#include "querylog/generator.h"
#include "querylog/log.h"
#include "querylog/universe.h"
#include "querylog/variants.h"

namespace esharp::querylog {
namespace {

UniverseOptions SmallUniverse() {
  UniverseOptions o;
  o.num_categories = 3;
  o.domains_per_category = 10;
  o.seed = 5;
  return o;
}

// -------------------------------------------------------------- Universe --

TEST(UniverseTest, GeneratesRequestedShape) {
  TopicUniverse u = *TopicUniverse::Generate(SmallUniverse());
  EXPECT_EQ(u.num_domains(), 30u);
  EXPECT_EQ(u.num_categories(), 3u);
  for (const TopicDomain& d : u.domains()) {
    EXPECT_FALSE(d.terms.empty());
    EXPECT_GE(d.urls.size(), SmallUniverse().min_urls_per_domain);
    EXPECT_LE(d.urls.size(), SmallUniverse().max_urls_per_domain);
    EXPECT_LT(d.category, 3u);
  }
}

TEST(UniverseTest, DeterministicForSeed) {
  TopicUniverse a = *TopicUniverse::Generate(SmallUniverse());
  TopicUniverse b = *TopicUniverse::Generate(SmallUniverse());
  ASSERT_EQ(a.num_domains(), b.num_domains());
  for (size_t i = 0; i < a.num_domains(); ++i) {
    EXPECT_EQ(a.domain(i).terms, b.domain(i).terms);
    EXPECT_EQ(a.domain(i).urls, b.domain(i).urls);
  }
}

TEST(UniverseTest, TermsAreUniqueAcrossDomains) {
  TopicUniverse u = *TopicUniverse::Generate(SmallUniverse());
  std::unordered_set<std::string> seen;
  for (const TopicDomain& d : u.domains()) {
    for (const std::string& t : d.terms) {
      EXPECT_TRUE(seen.insert(t).second) << "duplicate term " << t;
    }
  }
}

TEST(UniverseTest, UrlsAreDisjointAcrossDomains) {
  TopicUniverse u = *TopicUniverse::Generate(SmallUniverse());
  std::unordered_set<uint32_t> seen;
  for (const TopicDomain& d : u.domains()) {
    for (uint32_t url : d.urls) {
      EXPECT_TRUE(seen.insert(url).second) << "duplicate url " << url;
    }
  }
  // Category and noise URLs are separate id spaces.
  for (size_t c = 0; c < u.num_categories(); ++c) {
    for (uint32_t url : u.category_urls(static_cast<uint32_t>(c))) {
      EXPECT_TRUE(seen.insert(url).second);
    }
  }
}

TEST(UniverseTest, SeedTermsAppear) {
  TopicUniverse u = *TopicUniverse::Generate(SmallUniverse());
  EXPECT_TRUE(u.DomainOfTerm("49ers").ok());
  EXPECT_TRUE(u.DomainOfTerm("nasdaq").ok());
  EXPECT_FALSE(u.DomainOfTerm("not a term").ok());
}

TEST(UniverseTest, RelatedDomainsStayInCategory) {
  TopicUniverse u = *TopicUniverse::Generate(SmallUniverse());
  for (const TopicDomain& d : u.domains()) {
    EXPECT_LE(d.related.size(), SmallUniverse().related_per_domain);
    for (DomainId r : d.related) {
      EXPECT_EQ(u.CategoryOf(r), d.category);
      EXPECT_NE(r, d.id);
    }
  }
}

TEST(UniverseTest, InvalidOptionsRejected) {
  UniverseOptions o = SmallUniverse();
  o.num_categories = 0;
  EXPECT_FALSE(TopicUniverse::Generate(o).ok());
  o = SmallUniverse();
  o.min_terms_per_domain = 5;
  o.max_terms_per_domain = 2;
  EXPECT_FALSE(TopicUniverse::Generate(o).ok());
}

TEST(UniverseTest, CategoryNames) {
  auto names = DefaultCategoryNames(7);
  EXPECT_EQ(names[0], "sports");
  EXPECT_EQ(names[5], "top250");
  EXPECT_EQ(names[6], "category6");
}

// -------------------------------------------------------------- Variants --

TEST(VariantsTest, HashtagAndNoSpace) {
  Rng rng(1);
  EXPECT_EQ(ApplyVariant("san francisco", VariantKind::kHashtag, &rng),
            "#sanfrancisco");
  EXPECT_EQ(ApplyVariant("san francisco", VariantKind::kNoSpace, &rng),
            "sanfrancisco");
}

TEST(VariantsTest, AbbreviationNeedsMultipleWords) {
  Rng rng(1);
  EXPECT_EQ(ApplyVariant("san francisco", VariantKind::kAbbreviation, &rng),
            "sf");
  EXPECT_EQ(ApplyVariant("nasdaq", VariantKind::kAbbreviation, &rng),
            "nasdaq");  // single word: unchanged
}

TEST(VariantsTest, TyposAreSmallEdits) {
  Rng rng(2);
  for (VariantKind kind : {VariantKind::kTypoSwap, VariantKind::kTypoDrop,
                           VariantKind::kTypoDouble}) {
    for (int i = 0; i < 50; ++i) {
      std::string v = ApplyVariant("bluetooth", kind, &rng);
      EXPECT_LE(EditDistance("bluetooth", v), 2u)
          << "kind=" << static_cast<int>(kind) << " v=" << v;
    }
  }
}

TEST(VariantsTest, DeriveVariantsCanonicalFirstAndUnique) {
  Rng rng(3);
  VariantOptions options;
  options.mean_variants_per_term = 4;
  for (int i = 0; i < 20; ++i) {
    auto variants = DeriveVariants("baltimore ravens", options, &rng);
    ASSERT_FALSE(variants.empty());
    EXPECT_EQ(variants[0].text, "baltimore ravens");
    EXPECT_EQ(variants[0].kind, VariantKind::kCanonical);
    std::set<std::string> texts;
    for (const auto& v : variants) {
      EXPECT_TRUE(texts.insert(v.text).second) << "duplicate " << v.text;
    }
    EXPECT_LE(variants.size(), options.max_variants_per_term + 1);
  }
}

// ------------------------------------------------------------------- Log --

TEST(QueryLogTest, AddQueryDedupes) {
  QueryLog log;
  uint32_t a = log.AddQuery("nfl", 1, false);
  uint32_t b = log.AddQuery("nfl", 1, false);
  EXPECT_EQ(a, b);
  EXPECT_EQ(log.num_queries(), 1u);
  EXPECT_EQ(*log.FindQuery("nfl"), a);
  EXPECT_FALSE(log.FindQuery("nba").ok());
}

TEST(QueryLogTest, ClicksAccumulate) {
  QueryLog log;
  uint32_t q = log.AddQuery("nfl", 1, false);
  log.AddClicks(q, 10, 5);
  log.AddClicks(q, 10, 3);
  log.AddClicks(q, 11, 1);
  log.AddClicks(q, 12, 0);  // zero ignored
  EXPECT_EQ(log.num_records(), 2u);
  auto vectors = log.BuildClickVectors();
  EXPECT_DOUBLE_EQ(vectors[q].Sum(), 9.0);
}

TEST(QueryLogTest, FilterByMinCountKeepsPopular) {
  QueryLog log;
  uint32_t a = log.AddQuery("head", 1, false);
  uint32_t b = log.AddQuery("tail", 2, false);
  log.AddSearches(a, 100);
  log.AddSearches(b, 10);
  log.AddClicks(a, 1, 50);
  log.AddClicks(b, 2, 5);
  QueryLog filtered = log.FilterByMinCount(50);
  EXPECT_EQ(filtered.num_queries(), 1u);
  EXPECT_EQ(filtered.query(0).text, "head");
  EXPECT_EQ(filtered.num_records(), 1u);
  // Ids are re-assigned densely.
  EXPECT_EQ(*filtered.FindQuery("head"), 0u);
}

TEST(QueryLogTest, TsvRoundTrip) {
  QueryLog log;
  uint32_t a = log.AddQuery("dow futures", 1, false);
  log.AddClicks(a, 7, 12);
  log.AddSearches(a, 12);
  std::string tsv = log.SerializeTsv();
  EXPECT_EQ(tsv, "dow futures\t7\t12\n");
  QueryLog parsed = *QueryLog::ParseTsv(tsv);
  EXPECT_EQ(parsed.num_queries(), 1u);
  EXPECT_EQ(parsed.num_records(), 1u);
  EXPECT_EQ(parsed.query(0).text, "dow futures");
}

TEST(QueryLogTest, ParseTsvRejectsGarbage) {
  EXPECT_FALSE(QueryLog::ParseTsv("only\ttwo").ok());
  EXPECT_FALSE(QueryLog::ParseTsv("a\tx\t1").ok());
  EXPECT_TRUE(QueryLog::ParseTsv("").ok());
}

// -------------------------------------------------------------- Generator --

class GeneratorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    universe_ = std::make_unique<TopicUniverse>(
        *TopicUniverse::Generate(SmallUniverse()));
    GeneratorOptions options;
    options.seed = 11;
    options.head_impressions = 20000;
    generated_ = std::make_unique<GeneratedLog>(
        *GenerateQueryLog(*universe_, options));
  }

  std::unique_ptr<TopicUniverse> universe_;
  std::unique_ptr<GeneratedLog> generated_;
};

TEST_F(GeneratorTest, EveryDomainHeadTermIsLogged) {
  for (const TopicDomain& d : universe_->domains()) {
    EXPECT_TRUE(generated_->log.FindQuery(d.terms[0]).ok())
        << "missing head term " << d.terms[0];
  }
}

TEST_F(GeneratorTest, HeadTermOutranksSiblings) {
  const QueryLog& log = generated_->log;
  for (const TopicDomain& d : universe_->domains()) {
    auto head = log.FindQuery(d.terms[0]);
    if (!head.ok()) continue;
    for (size_t t = 1; t < d.terms.size(); ++t) {
      auto sib = log.FindQuery(d.terms[t]);
      if (!sib.ok()) continue;  // tail siblings may round to zero
      EXPECT_GE(log.query(*head).total_count, log.query(*sib).total_count);
    }
  }
}

TEST_F(GeneratorTest, VariantsAreLessPopularThanCanonical) {
  const QueryLog& log = generated_->log;
  std::unordered_map<DomainId, uint64_t> canonical_max;
  for (const QueryInfo& q : log.queries()) {
    if (q.true_domain == kNoDomain || q.is_variant) continue;
    canonical_max[q.true_domain] =
        std::max(canonical_max[q.true_domain], q.total_count);
  }
  for (const QueryInfo& q : log.queries()) {
    if (q.true_domain == kNoDomain || !q.is_variant) continue;
    EXPECT_LE(q.total_count, canonical_max[q.true_domain])
        << "variant " << q.text;
  }
}

TEST_F(GeneratorTest, SameDomainQueriesClickCloserThanCrossDomain) {
  // The core property extraction relies on: cosine within a domain beats
  // cosine across unrelated domains.
  const QueryLog& log = generated_->log;
  auto vectors = log.BuildClickVectors();
  const TopicDomain& d0 = universe_->domain(0);
  const TopicDomain& far = universe_->domain(universe_->num_domains() - 1);
  auto q_head = log.FindQuery(d0.terms[0]);
  ASSERT_TRUE(q_head.ok());
  // Within: head vs its own hashtag/sibling variants.
  double within_best = 0;
  for (const QueryInfo& q : log.queries()) {
    if (q.true_domain == d0.id && q.id != *q_head) {
      within_best =
          std::max(within_best, vectors[*q_head].Cosine(vectors[q.id]));
    }
  }
  auto q_far = log.FindQuery(far.terms[0]);
  ASSERT_TRUE(q_far.ok());
  double across = vectors[*q_head].Cosine(vectors[*q_far]);
  EXPECT_GT(within_best, across);
  EXPECT_GT(within_best, 0.3);
}

TEST_F(GeneratorTest, NoiseQueriesMostlyBelowFilter) {
  const QueryLog& log = generated_->log;
  size_t noise_total = 0, noise_below_50 = 0;
  for (const QueryInfo& q : log.queries()) {
    if (q.true_domain != kNoDomain) continue;
    ++noise_total;
    if (q.total_count < 50) ++noise_below_50;
  }
  ASSERT_GT(noise_total, 0u);
  EXPECT_GT(static_cast<double>(noise_below_50) /
                static_cast<double>(noise_total),
            0.5);
}

TEST_F(GeneratorTest, DeterministicForSeed) {
  GeneratorOptions options;
  options.seed = 11;
  options.head_impressions = 20000;
  GeneratedLog again = *GenerateQueryLog(*universe_, options);
  EXPECT_EQ(again.log.num_queries(), generated_->log.num_queries());
  EXPECT_EQ(again.log.num_records(), generated_->log.num_records());
  EXPECT_EQ(again.log.SerializeTsv(), generated_->log.SerializeTsv());
}

TEST(GeneratorOptionsTest, InvalidSharesRejected) {
  TopicUniverse u = *TopicUniverse::Generate(SmallUniverse());
  GeneratorOptions o;
  o.domain_click_share = 0.8;
  o.category_click_share = 0.4;
  EXPECT_FALSE(GenerateQueryLog(u, o).ok());
  GeneratorOptions o2;
  o2.head_impressions = 0;
  EXPECT_FALSE(GenerateQueryLog(u, o2).ok());
}

}  // namespace
}  // namespace esharp::querylog
