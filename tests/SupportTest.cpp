//===- SupportTest.cpp - dyndist_support unit tests --------------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//

#include "dyndist/support/DenseBitSet.h"
#include "dyndist/support/FlatMap.h"
#include "dyndist/support/InlineVec.h"
#include "dyndist/support/Random.h"
#include "dyndist/support/Result.h"
#include "dyndist/support/Stats.h"
#include "dyndist/support/StringUtils.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
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

/// The rejection loop nextBelow() used before it deferred the threshold
/// division, verbatim; counts the draws it rejects.
static uint64_t referenceNextBelow(Rng &R, uint64_t Bound, uint64_t &Rejects) {
  uint64_t Threshold = (0 - Bound) % Bound;
  for (;;) {
    uint64_t Value = R.next();
    if (Value >= Threshold)
      return Value % Bound;
    ++Rejects;
  }
}

TEST(Rng, NextBelowMatchesRejectionReference) {
  constexpr uint64_t Top = uint64_t(1) << 63;
  std::vector<uint64_t> Bounds = {
      1, 2, 3, 100, (uint64_t(1) << 32) + 1, Top - 1, Top, Top + 1,
      ~uint64_t(0)};
  Rng Pick(2024);
  for (int I = 0; I != 64; ++I) // Random bounds of every magnitude.
    Bounds.push_back(std::max<uint64_t>(1, Pick.next() >> (Pick.next() % 64)));
  uint64_t Rejects = 0;
  for (uint64_t Bound : Bounds) {
    Rng Fast(Bound ^ 0x5eed), Ref(Bound ^ 0x5eed);
    for (int I = 0; I != 2000; ++I) {
      ASSERT_EQ(Fast.nextBelow(Bound), referenceNextBelow(Ref, Bound, Rejects))
          << "bound " << Bound << " draw " << I;
      // Same number of raw draws consumed: the streams stay in lockstep.
      ASSERT_EQ(Fast.next(), Ref.next()) << "bound " << Bound << " draw " << I;
    }
  }
  // Above 2^63 a draw is rejected with probability (2^64 - Bound) / 2^64
  // (about half at Top + 1), so the retry loop ran.
  EXPECT_GT(Rejects, 500u);
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

namespace {

using IdSet = std::set<uint64_t>;

DenseBitSet bitsOf(const IdSet &S) {
  DenseBitSet B;
  for (uint64_t I : S)
    B.insert(I);
  return B;
}

/// Members in the order forEach yields them.
std::vector<uint64_t> membersOf(const DenseBitSet &B) {
  std::vector<uint64_t> Out;
  B.forEach([&](uint64_t I) { Out.push_back(I); });
  return Out;
}

/// Checks \p B against \p Ref: ascending enumeration, popcount and
/// emptiness.
void expectSameSet(const DenseBitSet &B, const IdSet &Ref,
                   const std::string &What) {
  EXPECT_EQ(membersOf(B), std::vector<uint64_t>(Ref.begin(), Ref.end()))
      << What;
  EXPECT_EQ(B.count(), Ref.size()) << What;
  EXPECT_EQ(B.empty(), Ref.empty()) << What;
}

/// Runs every binary operation on (\p A, \p B) against std::set.
void checkPair(const IdSet &A, const IdSet &B, const std::string &What) {
  DenseBitSet BA = bitsOf(A), BB = bitsOf(B);
  expectSameSet(BA, A, What + " build");

  // A is a subset of B exactly when merging it into B adds nothing.
  bool Subset = std::includes(B.begin(), B.end(), A.begin(), A.end());
  DenseBitSet IntoB = BB;
  EXPECT_EQ(!IntoB.unionWith(BA), Subset) << What;

  IdSet Union = A, Diff;
  Union.insert(B.begin(), B.end());
  std::set_difference(A.begin(), A.end(), B.begin(), B.end(),
                      std::inserter(Diff, Diff.end()));

  DenseBitSet Merged = BA;
  // It adds a member unless B is a subset of A.
  EXPECT_EQ(Merged.unionWith(BB),
            !std::includes(A.begin(), A.end(), B.begin(), B.end()))
      << What;
  expectSameSet(Merged, Union, What + " union");
  // Merging a subset adds nothing and says so.
  EXPECT_FALSE(Merged.unionWith(BA)) << What;
  EXPECT_FALSE(Merged.unionWith(BB)) << What;
  expectSameSet(Merged, Union, What + " union again");
  expectSameSet(DenseBitSet::difference(BA, BB), Diff, What + " difference");
}

} // namespace

TEST(DenseBitSet, MatchesStdSetReferenceRandomized) {
  // Word and inline-capacity edges: 64 ids per word, 1024 ids inline.
  const IdSet Edges = {0, 1, 63, 64, 65, 127, 128, 511, 512, 513, 1023,
                       1024, 1025, 4097};
  const std::vector<std::pair<std::string, std::pair<IdSet, IdSet>>> Cases = {
      {"both empty", {{}, {}}},
      {"empty into", {{}, {63, 64, 65}}},
      {"empty other", {{511, 512, 513}, {}}},
      {"word edge", {{63}, {64}}},
      {"equal", {Edges, Edges}},
      {"subset", {{64, 512}, Edges}},
      {"superset", {Edges, {0, 1025}}},
      {"beyond inline", {{3}, {1024, 1025, 70000}}},
      {"disjoint", {{0, 64, 512}, {1, 65, 513}}},
  };
  for (const auto &[Name, Sides] : Cases) {
    checkPair(Sides.first, Sides.second, Name);
    checkPair(Sides.second, Sides.first, Name + " swapped");
  }

  Rng R(0x5eed);
  for (int Trial = 0; Trial != 400; ++Trial) {
    // Spans cross one word, the inline buffer, and well past it.
    const uint64_t Spans[] = {64, 600, 1100, 5000};
    uint64_t Span = Spans[R.nextBelow(4)];
    IdSet A, B;
    for (uint64_t I = 0, E = R.nextBelow(60); I != E; ++I)
      A.insert(R.nextBelow(Span));
    for (uint64_t I = 0, E = R.nextBelow(60); I != E; ++I)
      B.insert(R.nextBelow(Span));
    if (R.nextBelow(4) == 0)
      B.insert(A.begin(), A.end()); // A subset of B.
    checkPair(A, B, "trial " + std::to_string(Trial));
  }

  // Trailing zero words carry no meaning.
  DenseBitSet Wide =
      DenseBitSet::difference(bitsOf({3, 5000}), bitsOf({5000}));
  expectSameSet(Wide, {3}, "trailing zeros");
  DenseBitSet Three = bitsOf({3});
  EXPECT_FALSE(Three.unionWith(Wide));
  EXPECT_TRUE(DenseBitSet::difference(Wide, bitsOf({3})).empty());
}

TEST(DenseBitSet, UnionWithReportsWhetherItAddedAMember) {
  // Other longer: new members past the receiver's last word.
  DenseBitSet Short = bitsOf({1});
  EXPECT_TRUE(Short.unionWith(bitsOf({1, 700})));
  expectSameSet(Short, {1, 700}, "other longer");
  // Other longer, but its extra words hold only known members' zeros.
  DenseBitSet Known = bitsOf({1, 2});
  DenseBitSet Padded =
      DenseBitSet::difference(bitsOf({2, 4000}), bitsOf({4000}));
  EXPECT_FALSE(Known.unionWith(Padded));
  expectSameSet(Known, {1, 2}, "other longer, trailing zero words");
  // Other shorter.
  DenseBitSet Long = bitsOf({5, 900});
  EXPECT_TRUE(Long.unionWith(bitsOf({6})));
  EXPECT_FALSE(Long.unionWith(bitsOf({5})));
  expectSameSet(Long, {5, 6, 900}, "other shorter");
  // Equal sets, disjoint sets, the empty set on either side.
  DenseBitSet Same = bitsOf({64, 65});
  EXPECT_FALSE(Same.unionWith(bitsOf({64, 65})));
  DenseBitSet Apart = bitsOf({0, 64});
  EXPECT_TRUE(Apart.unionWith(bitsOf({1, 65})));
  expectSameSet(Apart, {0, 1, 64, 65}, "disjoint");
  DenseBitSet Empty;
  EXPECT_FALSE(Apart.unionWith(Empty));
  EXPECT_FALSE(Empty.unionWith(DenseBitSet()));
  EXPECT_TRUE(Empty.unionWith(bitsOf({3})));
  expectSameSet(Empty, {3}, "into empty");
  // An empty set whose words are all zero adds nothing either.
  DenseBitSet Zeros = DenseBitSet::difference(bitsOf({3000}), bitsOf({3000}));
  DenseBitSet Fresh;
  EXPECT_FALSE(Fresh.unionWith(Zeros));
  expectSameSet(Fresh, {}, "zero words into empty");
  // insert() reports a new member the same way.
  EXPECT_TRUE(Fresh.insert(70));
  EXPECT_FALSE(Fresh.insert(70));
}

TEST(FlatMap, MatchesMapReferenceRandomized) {
  // The exact shape PeerSamplingActor keeps as its view: a FlatMap over an
  // InlineVec. Drive a population of them with a random op mix — insert,
  // overwrite, erase, merge, clear-and-reuse (capacity retained) — against
  // per-record std::map references, checking full ascending enumeration
  // equality as we go.
  using View = FlatMap<uint32_t, uint64_t,
                       InlineVec<std::pair<uint32_t, uint64_t>, 8>>;
  struct Rec {
    View V;
    std::map<uint32_t, uint64_t> Ref;
  };
  std::vector<Rec> Lives;
  std::vector<Rec> Cleared; // Cleared records, reused LIFO.

  Rng R(2024);
  auto CheckEqual = [](const Rec &L) {
    ASSERT_EQ(L.V.size(), L.Ref.size());
    EXPECT_EQ(L.V.empty(), L.Ref.empty());
    auto It = L.Ref.begin();
    for (const auto &[K, Val] : L.V) {
      EXPECT_EQ(K, It->first);
      EXPECT_EQ(Val, It->second);
      ++It;
    }
  };

  for (int Op = 0; Op != 20000; ++Op) {
    uint64_t Roll = R.nextBelow(100);
    if (Lives.empty() || (Roll < 6 && Lives.size() < 48)) {
      // New record: reuse a cleared one when one exists, else a fresh one.
      if (!Cleared.empty() && R.nextBelow(2) == 0) {
        Lives.push_back(std::move(Cleared.back()));
        Cleared.pop_back();
      } else {
        Lives.emplace_back();
      }
      // A reused record starts empty even though its storage is kept.
      CheckEqual(Lives.back());
    } else if (Roll < 10 && Lives.size() > 1) {
      // Retire a random record: clear it and park it for reuse.
      size_t I = static_cast<size_t>(R.nextBelow(Lives.size()));
      Rec Gone = std::move(Lives[I]);
      Lives.erase(Lives.begin() + static_cast<long>(I));
      Gone.V.clear();
      Gone.Ref.clear();
      Cleared.push_back(std::move(Gone));
    } else if (Roll < 16 && Lives.size() > 1) {
      // Merge a random other record in, one emplace per entry.
      size_t A = static_cast<size_t>(R.nextBelow(Lives.size()));
      size_t B = static_cast<size_t>(R.nextBelow(Lives.size()));
      if (A != B) {
        for (const auto &[K, Val] : Lives[B].V)
          Lives[A].V.emplace(K, Val);
        for (const auto &[K, Val] : Lives[B].Ref)
          Lives[A].Ref.emplace(K, Val); // Resident wins in both.
        CheckEqual(Lives[A]);
      }
    } else {
      Rec &L = Lives[static_cast<size_t>(R.nextBelow(Lives.size()))];
      uint32_t Key = static_cast<uint32_t>(R.nextBelow(64));
      uint64_t Kind = R.nextBelow(4);
      if (Kind == 0) {
        auto [It, New] = L.V.emplace(Key, Roll);
        auto [RIt, RNew] = L.Ref.emplace(Key, Roll);
        EXPECT_EQ(New, RNew);
        EXPECT_EQ(It->second, RIt->second);
      } else if (Kind == 1) {
        L.V[Key] = Roll;
        L.Ref[Key] = Roll;
      } else if (Kind == 2) {
        EXPECT_EQ(L.V.erase(Key), L.Ref.erase(Key));
      } else {
        EXPECT_EQ(L.V.contains(Key), L.Ref.count(Key) == 1);
        EXPECT_EQ(L.V.count(Key), L.Ref.count(Key));
      }
      if (Op % 7 == 0)
        CheckEqual(L);
    }
  }
  for (const Rec &L : Lives)
    CheckEqual(L);
}
