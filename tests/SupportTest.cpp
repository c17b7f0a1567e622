//===- SupportTest.cpp - dyndist_support unit tests --------------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//

#include "dyndist/support/FlatMap.h"
#include "dyndist/support/InlineVec.h"
#include "dyndist/support/Logging.h"
#include "dyndist/support/Random.h"
#include "dyndist/support/Result.h"
#include "dyndist/support/Stats.h"
#include "dyndist/support/StringUtils.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

using namespace dyndist;

TEST(Random, SeedDeterminism) {
  Rng A(42), B(42);
  for (int I = 0; I != 1000; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Random, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  int Same = 0;
  for (int I = 0; I != 100; ++I)
    if (A.next() == B.next())
      ++Same;
  EXPECT_EQ(Same, 0);
}

TEST(Random, NextBelowInRange) {
  Rng R(7);
  for (int I = 0; I != 10000; ++I)
    EXPECT_LT(R.nextBelow(17), 17u);
}

TEST(Random, NextBelowCoversAllResidues) {
  Rng R(11);
  std::set<uint64_t> Seen;
  for (int I = 0; I != 1000; ++I)
    Seen.insert(R.nextBelow(7));
  EXPECT_EQ(Seen.size(), 7u);
}

TEST(Random, NextInRangeBounds) {
  Rng R(3);
  for (int I = 0; I != 10000; ++I) {
    int64_t V = R.nextInRange(-5, 9);
    EXPECT_GE(V, -5);
    EXPECT_LE(V, 9);
  }
}

TEST(Random, NextDoubleUnitInterval) {
  Rng R(5);
  for (int I = 0; I != 10000; ++I) {
    double V = R.nextDouble();
    EXPECT_GE(V, 0.0);
    EXPECT_LT(V, 1.0);
  }
}

TEST(Random, BernoulliExtremes) {
  Rng R(9);
  for (int I = 0; I != 100; ++I) {
    EXPECT_FALSE(R.nextBernoulli(0.0));
    EXPECT_TRUE(R.nextBernoulli(1.0));
  }
}

TEST(Random, BernoulliMeanRoughlyP) {
  Rng R(13);
  int Hits = 0;
  const int N = 20000;
  for (int I = 0; I != N; ++I)
    Hits += R.nextBernoulli(0.3);
  double Mean = static_cast<double>(Hits) / N;
  EXPECT_NEAR(Mean, 0.3, 0.02);
}

TEST(Random, ExponentialMean) {
  Rng R(17);
  OnlineStats S;
  for (int I = 0; I != 20000; ++I)
    S.add(R.nextExponential(0.5));
  EXPECT_NEAR(S.mean(), 2.0, 0.1);
}

TEST(Random, PoissonSmallMean) {
  Rng R(19);
  OnlineStats S;
  for (int I = 0; I != 20000; ++I)
    S.add(static_cast<double>(R.nextPoisson(3.0)));
  EXPECT_NEAR(S.mean(), 3.0, 0.1);
  EXPECT_NEAR(S.variance(), 3.0, 0.25);
}

TEST(Random, PoissonLargeMeanApproximation) {
  Rng R(23);
  OnlineStats S;
  for (int I = 0; I != 20000; ++I)
    S.add(static_cast<double>(R.nextPoisson(100.0)));
  EXPECT_NEAR(S.mean(), 100.0, 1.0);
}

TEST(Random, PoissonZeroMean) {
  Rng R(29);
  EXPECT_EQ(R.nextPoisson(0.0), 0u);
}

TEST(Random, GeometricMean) {
  Rng R(31);
  OnlineStats S;
  for (int I = 0; I != 20000; ++I)
    S.add(static_cast<double>(R.nextGeometric(0.25)));
  // Mean of failures-before-success is (1-p)/p = 3.
  EXPECT_NEAR(S.mean(), 3.0, 0.15);
}

TEST(Random, NormalMoments) {
  Rng R(37);
  OnlineStats S;
  for (int I = 0; I != 50000; ++I)
    S.add(R.nextNormal());
  EXPECT_NEAR(S.mean(), 0.0, 0.03);
  EXPECT_NEAR(S.stddev(), 1.0, 0.03);
}

TEST(Random, ParetoAboveMinimum) {
  Rng R(41);
  for (int I = 0; I != 10000; ++I)
    EXPECT_GE(R.nextPareto(2.0, 1.5), 2.0);
}

TEST(Random, ShufflePermutes) {
  Rng R(43);
  std::vector<int> V = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> Orig = V;
  R.shuffle(V);
  std::multiset<int> A(V.begin(), V.end()), B(Orig.begin(), Orig.end());
  EXPECT_EQ(A, B);
}

TEST(Random, SplitDecorrelates) {
  Rng A(47);
  Rng B = A.split();
  int Same = 0;
  for (int I = 0; I != 100; ++I)
    if (A.next() == B.next())
      ++Same;
  EXPECT_EQ(Same, 0);
}

TEST(Stats, EmptyOnlineStats) {
  OnlineStats S;
  EXPECT_EQ(S.count(), 0u);
  EXPECT_EQ(S.mean(), 0.0);
  EXPECT_EQ(S.variance(), 0.0);
}

TEST(Stats, KnownMoments) {
  OnlineStats S;
  for (double V : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
    S.add(V);
  EXPECT_DOUBLE_EQ(S.mean(), 5.0);
  EXPECT_NEAR(S.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(S.min(), 2.0);
  EXPECT_EQ(S.max(), 9.0);
}

TEST(Stats, MergeMatchesSequential) {
  Rng R(51);
  OnlineStats All, Left, Right;
  for (int I = 0; I != 1000; ++I) {
    double V = R.nextDouble() * 10;
    All.add(V);
    (I % 2 ? Left : Right).add(V);
  }
  Left.merge(Right);
  EXPECT_EQ(Left.count(), All.count());
  EXPECT_NEAR(Left.mean(), All.mean(), 1e-9);
  EXPECT_NEAR(Left.variance(), All.variance(), 1e-9);
}

TEST(Stats, QuantileInterpolation) {
  std::vector<double> V = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(quantile(V, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(V, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile(V, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(V, 0.25), 2.0);
}

TEST(Stats, QuantileEmptyAndSingle) {
  EXPECT_EQ(quantile({}, 0.5), 0.0);
  EXPECT_EQ(quantile({7.0}, 0.9), 7.0);
}

TEST(Stats, SummaryFields) {
  Summary S = Summary::of({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_EQ(S.Count, 10u);
  EXPECT_DOUBLE_EQ(S.Mean, 5.5);
  EXPECT_EQ(S.Min, 1.0);
  EXPECT_EQ(S.Max, 10.0);
  EXPECT_DOUBLE_EQ(S.P50, 5.5);
  EXPECT_FALSE(S.str().empty());
}

TEST(Stats, HistogramBucketsAndOutOfRange) {
  Histogram H(0.0, 10.0, 10);
  H.add(-5.0); // Below Lo: underflow, not bucket 0.
  H.add(0.5);
  H.add(9.5);
  H.add(99.0); // At/above Hi: overflow, not the last bucket.
  H.add(10.0); // The upper edge is exclusive.
  EXPECT_EQ(H.total(), 5u);
  EXPECT_EQ(H.bucketCount(0), 1u);
  EXPECT_EQ(H.bucketCount(9), 1u);
  EXPECT_EQ(H.underflow(), 1u);
  EXPECT_EQ(H.overflow(), 2u);
  EXPECT_DOUBLE_EQ(H.bucketLo(5), 5.0);
  std::string Rendered = H.render();
  EXPECT_NE(Rendered.find("underflow 1"), std::string::npos);
  EXPECT_NE(Rendered.find("overflow 2"), std::string::npos);
}

TEST(StringUtils, Format) {
  EXPECT_EQ(format("x=%d y=%s", 3, "abc"), "x=3 y=abc");
  EXPECT_EQ(format("%s", ""), "");
}

TEST(StringUtils, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"only"}, ","), "only");
}

TEST(StringUtils, Pad) {
  EXPECT_EQ(padRight("ab", 5), "ab   ");
  EXPECT_EQ(padLeft("ab", 5), "   ab");
  EXPECT_EQ(padRight("abcdef", 3), "abcdef");
}

TEST(StringUtils, TableRender) {
  Table T;
  T.setHeader({"col1", "c2"});
  T.addRow({"a", "bbbb"});
  T.addRow({"cc"});
  std::string Out = T.render();
  EXPECT_NE(Out.find("col1"), std::string::npos);
  EXPECT_NE(Out.find("bbbb"), std::string::npos);
  EXPECT_NE(Out.find("----"), std::string::npos);
}

// The tools' one numeric-flag parser: whole string, no sign, no overflow.
TEST(StringUtils, ParseU64Checked) {
  uint64_t V = 0;
  EXPECT_TRUE(parseU64Checked("0", V));
  EXPECT_EQ(V, 0u);
  EXPECT_TRUE(parseU64Checked("18446744073709551615", V));
  EXPECT_EQ(V, UINT64_MAX);
  for (const char *Bad : {"", "abc", "12abc", "-1", "+1", " 1", "1 ",
                          "18446744073709551616", "1e3"})
    EXPECT_FALSE(parseU64Checked(Bad, V)) << '"' << Bad << '"';
}

TEST(StringUtils, ParseDoubleChecked) {
  double V = -1;
  EXPECT_TRUE(parseDoubleChecked("0", V));
  EXPECT_EQ(V, 0.0);
  EXPECT_TRUE(parseDoubleChecked("0.05", V));
  EXPECT_EQ(V, 0.05);
  EXPECT_TRUE(parseDoubleChecked(".5", V));
  EXPECT_TRUE(parseDoubleChecked("1e3", V));
  EXPECT_EQ(V, 1000.0);
  for (const char *Bad : {"", "abc", "nan", "inf", "-1", "+1", " 1", "1x",
                          "1e400", "0.5 "})
    EXPECT_FALSE(parseDoubleChecked(Bad, V)) << '"' << Bad << '"';
}

TEST(Result, ValueAndError) {
  Result<int> Ok(42);
  ASSERT_TRUE(Ok.ok());
  EXPECT_EQ(*Ok, 42);

  Result<int> Bad(Error(Error::Code::Timeout, "too slow"));
  ASSERT_FALSE(Bad.ok());
  EXPECT_EQ(Bad.error().Kind, Error::Code::Timeout);
  EXPECT_EQ(Bad.error().str(), "timeout: too slow");
}

TEST(Result, StatusSuccessAndFailure) {
  Status S = Status::success();
  EXPECT_TRUE(S.ok());
  Status F = Error(Error::Code::Unsolvable, "no way");
  EXPECT_FALSE(F.ok());
  EXPECT_EQ(F.error().Kind, Error::Code::Unsolvable);
}

TEST(Logging, LevelGating) {
  Logger::setLevel(LogLevel::Warn);
  EXPECT_TRUE(Logger::enabled(LogLevel::Warn));
  EXPECT_FALSE(Logger::enabled(LogLevel::Info));
  Logger::setLevel(LogLevel::Debug);
  EXPECT_TRUE(Logger::enabled(LogLevel::Info));
  EXPECT_FALSE(Logger::enabled(LogLevel::Trace));
  Logger::setLevel(LogLevel::Warn);
}

TEST(Logging, SinkRedirection) {
  std::FILE *Tmp = std::tmpfile();
  ASSERT_NE(Tmp, nullptr);
  Logger::setSink(Tmp);
  Logger::setLevel(LogLevel::Info);
  DYNDIST_INFO("hello sink");
  std::fflush(Tmp);
  std::rewind(Tmp);
  char Buf[64] = {0};
  ASSERT_NE(std::fgets(Buf, sizeof(Buf), Tmp), nullptr);
  EXPECT_NE(std::string(Buf).find("hello sink"), std::string::npos);
  Logger::setSink(nullptr);
  Logger::setLevel(LogLevel::Warn);
  std::fclose(Tmp);
}

namespace {

using Entry = std::pair<uint32_t, int64_t>;
using Ref = std::map<uint32_t, int64_t>;

template <typename MapT> MapT flatOf(const Ref &M) {
  MapT Out;
  for (const auto &[K, V] : M)
    Out.emplace(K, V);
  return Out;
}

template <typename MapT> Ref refOf(const MapT &M) {
  return Ref(M.begin(), M.end());
}

/// Merges \p Other into \p Into both ways — FlatMap::mergeFrom and the
/// std::map emplace loop — and checks they agree entry for entry.
template <typename MapT>
void expectMergeMatchesEmplaceLoop(const Ref &Into, const Ref &Other,
                                   const std::string &What) {
  MapT Flat = flatOf<MapT>(Into);
  Flat.mergeFrom(flatOf<MapT>(Other));
  Ref Expected = Into;
  for (const auto &[K, V] : Other)
    Expected.emplace(K, V); // The resident value wins.
  EXPECT_EQ(Flat.size(), Expected.size()) << What;
  EXPECT_EQ(refOf(Flat), Expected) << What;
  EXPECT_TRUE(std::is_sorted(Flat.begin(), Flat.end())) << What;
}

template <typename MapT> void checkMergeFrom() {
  // Residents carry even values, incoming entries odd ones, so a collision
  // that kept the incoming value shows up as an odd value.
  auto Keys = [](std::vector<uint32_t> Ks, int64_t Tag) {
    Ref M;
    for (uint32_t K : Ks)
      M.emplace(K, int64_t(K) * 2 + Tag);
    return M;
  };
  const Ref Mid = Keys({10, 20, 30}, 0);
  const std::vector<std::pair<std::string, std::pair<Ref, Ref>>> Cases = {
      {"both empty", {{}, {}}},
      {"empty into", {{}, Keys({1, 2, 3}, 1)}},
      {"empty other", {Mid, {}}},
      {"equal", {Mid, Keys({10, 20, 30}, 1)}},
      {"subset", {Mid, Keys({20}, 1)}},
      {"superset", {Mid, Keys({5, 10, 15, 20, 25, 30, 35}, 1)}},
      {"disjoint", {Mid, Keys({11, 21, 31}, 1)}},
      {"all before", {Mid, Keys({1, 2, 3}, 1)}},
      {"all after", {Mid, Keys({40, 50}, 1)}},
      {"interleaved", {Mid, Keys({5, 20, 25, 40}, 1)}},
  };
  for (const auto &[Name, Sides] : Cases)
    expectMergeMatchesEmplaceLoop<MapT>(Sides.first, Sides.second, Name);

  Rng R(0x5eed);
  for (int Trial = 0; Trial != 400; ++Trial) {
    Ref Into, Other;
    uint32_t Span = 1 + static_cast<uint32_t>(R.nextBelow(64));
    for (uint64_t I = 0, E = R.nextBelow(40); I != E; ++I)
      Into.emplace(static_cast<uint32_t>(R.nextBelow(Span)), 2 * int64_t(I));
    for (uint64_t I = 0, E = R.nextBelow(40); I != E; ++I)
      Other.emplace(static_cast<uint32_t>(R.nextBelow(Span)),
                    2 * int64_t(I) + 1);
    expectMergeMatchesEmplaceLoop<MapT>(Into, Other,
                                        "trial " + std::to_string(Trial));
  }
}

} // namespace

TEST(FlatMap, MergeFromMatchesEmplaceLoopVectorStorage) {
  checkMergeFrom<FlatMap<uint32_t, int64_t>>();
}

TEST(FlatMap, MergeFromMatchesEmplaceLoopInlineStorage) {
  // Inline capacity 8: the random maps cross from the inline buffer to the
  // heap inside mergeFrom's resize.
  checkMergeFrom<FlatMap<uint32_t, int64_t, InlineVec<Entry, 8>>>();
}

TEST(InlineVec, ResizeValueInitializesAndSpills) {
  InlineVec<Entry, 2> V;
  V.push_back({7, 7});
  V.resize(5);
  ASSERT_EQ(V.size(), 5u);
  EXPECT_EQ(V[0], Entry(7, 7));
  for (uint32_t I = 1; I != 5; ++I)
    EXPECT_EQ(V[I], Entry(0, 0));
  V.resize(1);
  EXPECT_EQ(V.size(), 1u);
  EXPECT_EQ(V.back(), Entry(7, 7));
}
