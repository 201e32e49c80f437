#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/hash.h"
#include "common/random.h"
#include "common/statistics.h"
#include "common/strings.h"
#include "common/table_printer.h"

namespace evorec {
namespace {

// ---------------------------------------------------------------- Rng

TEST(RngTest, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  bool any_diff = false;
  Rng a2(42);
  for (int i = 0; i < 100; ++i) {
    if (a2.Next() != c.Next()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, UniformIntStaysInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(-5, 9);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 9);
  }
  EXPECT_EQ(rng.UniformInt(3, 3), 3);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(3);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.Bernoulli(0.25)) ++hits;
  }
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.03);
}

TEST(RngTest, ZipfPrefersLowRanks) {
  Rng rng(4);
  std::vector<size_t> counts(10, 0);
  for (int i = 0; i < 20000; ++i) {
    ++counts[rng.Zipf(10, 1.2)];
  }
  EXPECT_GT(counts[0], counts[4]);
  EXPECT_GT(counts[0], counts[9]);
  for (size_t c : counts) EXPECT_GT(c, 0u);
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng rng(5);
  for (size_t k : {0u, 1u, 5u, 50u, 100u}) {
    auto sample = rng.SampleWithoutReplacement(100, k);
    EXPECT_EQ(sample.size(), k);
    std::set<size_t> uniq(sample.begin(), sample.end());
    EXPECT_EQ(uniq.size(), k);
    for (size_t v : sample) EXPECT_LT(v, 100u);
  }
  // k > n clamps.
  EXPECT_EQ(rng.SampleWithoutReplacement(3, 10).size(), 3u);
}

TEST(RngTest, WeightedIndexRespectsWeights) {
  Rng rng(6);
  std::vector<double> weights = {0.0, 10.0, 0.0, 1.0};
  std::vector<size_t> counts(4, 0);
  for (int i = 0; i < 10000; ++i) {
    const size_t pick = rng.WeightedIndex(weights);
    ASSERT_LT(pick, 4u);
    ++counts[pick];
  }
  EXPECT_EQ(counts[0], 0u);
  EXPECT_EQ(counts[2], 0u);
  EXPECT_GT(counts[1], counts[3] * 5);
  // All-zero weights signal "no pick".
  std::vector<double> zeros = {0.0, 0.0};
  EXPECT_EQ(rng.WeightedIndex(zeros), zeros.size());
}

TEST(RngTest, ShuffleKeepsElements) {
  Rng rng(7);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

// --------------------------------------------------------- statistics

TEST(StatisticsTest, MeanMinMax) {
  std::vector<double> v = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Mean(v), 2.5);
  EXPECT_DOUBLE_EQ(Min(v), 1);
  EXPECT_DOUBLE_EQ(Max(v), 4);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
}

TEST(StatisticsTest, PercentileInterpolates) {
  std::vector<double> v = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 10);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 40);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 25);
}

TEST(StatisticsTest, GiniBounds) {
  EXPECT_DOUBLE_EQ(Gini({5, 5, 5, 5}), 0.0);
  // One person owns everything in a group of 4: Gini = (n-1)/n = 0.75.
  EXPECT_NEAR(Gini({0, 0, 0, 10}), 0.75, 1e-9);
  const double mild = Gini({3, 4, 5, 6});
  EXPECT_GT(mild, 0.0);
  EXPECT_LT(mild, 0.3);
}

TEST(StatisticsTest, JaccardSimilarity) {
  EXPECT_DOUBLE_EQ(JaccardSimilarity({1, 2, 3}, {2, 3, 4}), 0.5);
  EXPECT_DOUBLE_EQ(JaccardSimilarity({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity({1}, {}), 0.0);
  // Duplicates collapse.
  EXPECT_DOUBLE_EQ(JaccardSimilarity({1, 1, 2}, {1, 2, 2}), 1.0);
}

TEST(StatisticsTest, KendallTauAgreementAndReversal) {
  std::vector<double> a = {1, 2, 3, 4, 5};
  std::vector<double> b = {2, 4, 6, 8, 10};
  std::vector<double> r = {5, 4, 3, 2, 1};
  EXPECT_DOUBLE_EQ(KendallTau(a, b), 1.0);
  EXPECT_DOUBLE_EQ(KendallTau(a, r), -1.0);
  EXPECT_NEAR(KendallTau(a, {1, 3, 2, 5, 4}), 0.6, 1e-9);
}

// ------------------------------------------------------------ strings

TEST(StringsTest, SplitAndJoin) {
  EXPECT_EQ(StrSplit("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(StrSplit("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(StrJoin({"a", "b", "c"}, "-"), "a-b-c");
  EXPECT_EQ(StrJoin({}, "-"), "");
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  x y\t"), "x y");
  EXPECT_EQ(StripWhitespace("\t\n "), "");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("hello", "he"));
  EXPECT_FALSE(StartsWith("he", "hello"));
  EXPECT_TRUE(EndsWith("hello", "lo"));
  EXPECT_FALSE(EndsWith("lo", "hello"));
}

TEST(StringsTest, FormatDoubleAndHumanBytes) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(1536), "1.5 KiB");
}

TEST(StringsTest, NTriplesEscapeRoundtrip) {
  const std::string nasty = "line1\nline2\t\"quoted\"\\slash\r";
  EXPECT_EQ(UnescapeNTriples(EscapeNTriples(nasty)), nasty);
  EXPECT_EQ(EscapeNTriples("a\"b"), "a\\\"b");
}

// --------------------------------------------------------------- hash

TEST(HashTest, Fnv1aIsStable) {
  EXPECT_EQ(Fnv1a64("abc"), Fnv1a64("abc"));
  EXPECT_NE(Fnv1a64("abc"), Fnv1a64("abd"));
}

TEST(HashTest, HashCombineOrderSensitive) {
  size_t a = 0, b = 0;
  HashCombine(a, 1);
  HashCombine(a, 2);
  HashCombine(b, 2);
  HashCombine(b, 1);
  EXPECT_NE(a, b);
}

// ------------------------------------------------------ table printer

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"name", "value"});
  table.AddRow({"alpha", TablePrinter::Cell(1.5, 1)});
  table.AddRow({"b", TablePrinter::Cell(size_t{42})});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(TablePrinterTest, HandlesRaggedRows) {
  TablePrinter table({"a"});
  table.AddRow({"x", "extra"});
  table.AddRow({});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("extra"), std::string::npos);
}

}  // namespace
}  // namespace evorec
