//===- support_test.cpp - Unit tests for src/support ----------------------===//

#include "support/Bitset.h"
#include "support/Diag.h"
#include "support/Rng.h"
#include "support/Stats.h"
#include "support/StringInterner.h"
#include "support/Table.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

using namespace rmt;

//===----------------------------------------------------------------------===//
// StringInterner
//===----------------------------------------------------------------------===//

TEST(StringInterner, InterningIsIdempotent) {
  StringInterner I;
  Symbol A = I.intern("foo");
  Symbol B = I.intern("foo");
  EXPECT_EQ(A, B);
  EXPECT_EQ(I.str(A), "foo");
  EXPECT_EQ(I.size(), 1u);
}

TEST(StringInterner, DistinctStringsGetDistinctSymbols) {
  StringInterner I;
  Symbol A = I.intern("foo");
  Symbol B = I.intern("bar");
  EXPECT_NE(A, B);
  EXPECT_EQ(I.str(B), "bar");
}

TEST(StringInterner, ManyStringsSurviveGrowth) {
  // Regression guard for the SSO/string_view-key dangling hazard: intern
  // thousands of short strings (SSO territory) and verify lookups still hit.
  StringInterner I;
  std::vector<Symbol> Syms;
  for (int K = 0; K < 5000; ++K)
    Syms.push_back(I.intern("v" + std::to_string(K)));
  for (int K = 0; K < 5000; ++K) {
    EXPECT_EQ(I.intern("v" + std::to_string(K)), Syms[K]);
    EXPECT_EQ(I.str(Syms[K]), "v" + std::to_string(K));
  }
}

TEST(StringInterner, FreshenAvoidsCollisions) {
  StringInterner I;
  Symbol A = I.intern("x");
  Symbol B = I.freshen("x");
  EXPECT_NE(A, B);
  EXPECT_NE(I.str(A), I.str(B));
}

TEST(StringInterner, InvalidSymbolIsDetectable) {
  Symbol S;
  EXPECT_FALSE(S.isValid());
  EXPECT_TRUE(Symbol(0).isValid());
}

TEST(StringInterner, SymbolsHashable) {
  StringInterner I;
  std::unordered_set<Symbol> Set;
  Set.insert(I.intern("a"));
  Set.insert(I.intern("b"));
  Set.insert(I.intern("a"));
  EXPECT_EQ(Set.size(), 2u);
}

//===----------------------------------------------------------------------===//
// Rng
//===----------------------------------------------------------------------===//

TEST(Rng, DeterministicPerSeed) {
  Rng A(42), B(42), C(43);
  bool Differs = false;
  for (int I = 0; I < 100; ++I) {
    uint64_t VA = A.next();
    EXPECT_EQ(VA, B.next());
    if (VA != C.next())
      Differs = true;
  }
  EXPECT_TRUE(Differs);
}

TEST(Rng, BelowStaysInRange) {
  Rng G(7);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(G.below(17), 17u);
}

TEST(Rng, BelowCoversRange) {
  Rng G(7);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 300; ++I)
    Seen.insert(G.below(5));
  EXPECT_EQ(Seen.size(), 5u);
}

TEST(Rng, RangeIsInclusive) {
  Rng G(11);
  std::set<int64_t> Seen;
  for (int I = 0; I < 500; ++I) {
    int64_t V = G.range(-2, 2);
    EXPECT_GE(V, -2);
    EXPECT_LE(V, 2);
    Seen.insert(V);
  }
  EXPECT_EQ(Seen.size(), 5u);
}

TEST(Rng, ChanceExtremes) {
  Rng G(3);
  for (int I = 0; I < 50; ++I) {
    EXPECT_FALSE(G.chance(0, 256));
    EXPECT_TRUE(G.chance(256, 256));
  }
}

TEST(Rng, RealInUnitInterval) {
  Rng G(5);
  for (int I = 0; I < 1000; ++I) {
    double V = G.real();
    EXPECT_GE(V, 0.0);
    EXPECT_LT(V, 1.0);
  }
}

//===----------------------------------------------------------------------===//
// Bitset
//===----------------------------------------------------------------------===//

TEST(Bitset, SetAndTest) {
  Bitset B;
  EXPECT_FALSE(B.test(5));
  B.set(5);
  EXPECT_TRUE(B.test(5));
  EXPECT_FALSE(B.test(4));
  EXPECT_FALSE(B.test(500)); // out-of-range reads are zero
}

TEST(Bitset, GrowsOnWrite) {
  Bitset B;
  B.set(1000);
  EXPECT_TRUE(B.test(1000));
  EXPECT_EQ(B.count(), 1u);
}

TEST(Bitset, OrWith) {
  Bitset A, B;
  A.set(1);
  B.set(64);
  B.set(200);
  A.orWith(B);
  EXPECT_TRUE(A.test(1));
  EXPECT_TRUE(A.test(64));
  EXPECT_TRUE(A.test(200));
  EXPECT_EQ(A.count(), 3u);
}

TEST(Bitset, OrWithReportsAddedBits) {
  Bitset A, B;
  A.set(1);
  A.set(70);
  B.set(70);
  EXPECT_FALSE(A.orWith(B)); // nothing new
  B.set(2);
  EXPECT_TRUE(A.orWith(B));
  EXPECT_FALSE(A.orWith(B));
}

TEST(Bitset, ResetAndOrWithAnd) {
  Bitset A(128), B, C;
  A.set(5);
  A.set(100);
  A.reset(5);
  A.reset(1000); // out of range: a no-op
  EXPECT_FALSE(A.test(5));
  EXPECT_TRUE(A.test(100));
  B.set(3);
  B.set(65);
  B.set(66);
  C.set(65);
  C.set(66);
  C.set(7);
  A.orWithAnd(B, C);
  EXPECT_TRUE(A.test(65));
  EXPECT_TRUE(A.test(66));
  EXPECT_FALSE(A.test(3));
  EXPECT_FALSE(A.test(7));
  EXPECT_EQ(A.count(), 3u);
}

TEST(Bitset, Intersects) {
  Bitset A, B;
  A.set(3);
  B.set(130);
  EXPECT_FALSE(A.intersects(B));
  B.set(3);
  EXPECT_TRUE(A.intersects(B));
}

TEST(Bitset, EmptyAndCount) {
  Bitset B;
  EXPECT_TRUE(B.empty());
  B.set(0);
  B.set(63);
  B.set(64);
  EXPECT_FALSE(B.empty());
  EXPECT_EQ(B.count(), 3u);
}

//===----------------------------------------------------------------------===//
// Diag
//===----------------------------------------------------------------------===//

TEST(Diag, CountsOnlyErrors) {
  DiagEngine D;
  D.warning({1, 2}, "w");
  D.note({1, 3}, "n");
  EXPECT_FALSE(D.hasErrors());
  D.error({2, 4}, "e");
  EXPECT_TRUE(D.hasErrors());
  EXPECT_EQ(D.errorCount(), 1u);
  EXPECT_EQ(D.all().size(), 3u);
}

TEST(Diag, Rendering) {
  DiagEngine D;
  D.error({3, 7}, "boom");
  EXPECT_EQ(D.str(), "3:7: error: boom\n");
  SrcLoc None;
  EXPECT_EQ(None.str(), "<no-loc>");
}

//===----------------------------------------------------------------------===//
// Stats / Table / Timer
//===----------------------------------------------------------------------===//

TEST(Stats, AddAndMerge) {
  Stats A, B;
  A.add("x", 2);
  A.add("x");
  B.add("x", 10);
  B.add("y");
  B.addTime("t", 0.5);
  A.merge(B);
  EXPECT_EQ(A.get("x"), 13);
  EXPECT_EQ(A.get("y"), 1);
  EXPECT_EQ(A.get("absent"), 0);
  EXPECT_DOUBLE_EQ(A.getTime("t"), 0.5);
}

TEST(Stats, StrIsSortedAndAligned) {
  Stats S;
  S.add("zeta", 7);
  S.add("alpha.long.counter.name", 1);
  S.add("mid", 3);
  S.addTime("beta.time", 0.25);
  std::string Text = S.str();

  // Counters render name-sorted, then times; every value starts in the same
  // column (two spaces past the longest name).
  size_t A = Text.find("alpha.long.counter.name");
  size_t M = Text.find("mid");
  size_t Z = Text.find("zeta");
  size_t B = Text.find("beta.time");
  ASSERT_NE(A, std::string::npos);
  ASSERT_NE(B, std::string::npos);
  EXPECT_LT(A, M);
  EXPECT_LT(M, Z);
  EXPECT_LT(Z, B); // times after counters

  std::vector<size_t> ValueCols;
  size_t LineStart = 0;
  while (LineStart < Text.size()) {
    size_t LineEnd = Text.find('\n', LineStart);
    std::string Line = Text.substr(LineStart, LineEnd - LineStart);
    size_t Col = Line.find_last_of(' ');
    ASSERT_NE(Col, std::string::npos);
    ValueCols.push_back(Col + 1);
    LineStart = LineEnd + 1;
  }
  ASSERT_EQ(ValueCols.size(), 4u);
  for (size_t C : ValueCols)
    EXPECT_EQ(C, ValueCols.front());

  // Deterministic: same bag, same rendering.
  EXPECT_EQ(Text, S.str());
}

TEST(Stats, ToJson) {
  Stats S;
  S.add("b", 2);
  S.add("a", -1);
  S.addTime("t", 0.5);
  EXPECT_EQ(S.toJson(),
            "{\"counters\":{\"a\":-1,\"b\":2},\"times\":{\"t\":0.5}}");
  Stats Empty;
  EXPECT_EQ(Empty.toJson(), "{\"counters\":{},\"times\":{}}");
}

TEST(Stats, ToJsonEscapesKeys) {
  Stats S;
  S.add("weird \"key\"\\n", 1);
  std::string Json = S.toJson();
  EXPECT_NE(Json.find("weird \\\"key\\\"\\\\n"), std::string::npos);
}

TEST(Table, AlignedAndCsv) {
  Table T({"name", "value"});
  T.row();
  T.cell(std::string("alpha"));
  T.cell(int64_t(42));
  T.row();
  T.cell(std::string("beta,x"));
  T.cell(3.14159, 2);
  std::string Text = T.str();
  EXPECT_NE(Text.find("alpha"), std::string::npos);
  EXPECT_NE(Text.find("42"), std::string::npos);
  EXPECT_NE(Text.find("3.14"), std::string::npos);
  std::string Csv = T.csv();
  EXPECT_NE(Csv.find("\"beta,x\""), std::string::npos);
  EXPECT_EQ(T.numRows(), 2u);
}

TEST(Timer, DeadlineSemantics) {
  Deadline None;
  EXPECT_FALSE(None.enabled());
  EXPECT_FALSE(None.expired());
  EXPECT_GT(None.remaining(), 1e100);

  Deadline Tight(1e-9);
  EXPECT_TRUE(Tight.enabled());
  // A nanosecond budget has certainly elapsed by now.
  EXPECT_TRUE(Tight.expired());
  EXPECT_EQ(Tight.remaining(), 0.0);

  Stopwatch W;
  EXPECT_GE(W.seconds(), 0.0);
}
