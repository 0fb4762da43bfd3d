#include <gtest/gtest.h>

#include "common/interner.h"
#include "common/rational.h"
#include "common/status.h"

namespace relcont {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad arity");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad arity");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad arity");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kUnsafe), "Unsafe");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kUnsupported), "Unsupported");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kBoundReached), "BoundReached");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInternal), "Internal");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::Unsupported("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
}

Result<int> Halve(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  RELCONT_ASSIGN_OR_RETURN(int half, Halve(x));
  return Halve(half);
}

TEST(ResultTest, AssignOrReturnMacroPropagates) {
  Result<int> ok = Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  Result<int> err = Quarter(6);  // 6/2 = 3, odd
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
}

TEST(InternerTest, InternIsIdempotent) {
  Interner interner;
  SymbolId a = interner.Intern("foo");
  SymbolId b = interner.Intern("foo");
  SymbolId c = interner.Intern("bar");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(interner.NameOf(a), "foo");
  EXPECT_EQ(interner.NameOf(c), "bar");
}

TEST(InternerTest, LookupMissesWithoutIntern) {
  Interner interner;
  EXPECT_EQ(interner.Lookup("ghost"), kInvalidSymbol);
  interner.Intern("ghost");
  EXPECT_NE(interner.Lookup("ghost"), kInvalidSymbol);
}

TEST(InternerTest, FreshAvoidsCollisions) {
  Interner interner;
  interner.Intern("_v0");
  SymbolId f = interner.Fresh("_v");
  EXPECT_EQ(interner.NameOf(f), "_v1");
  SymbolId g = interner.Fresh("_v");
  EXPECT_NE(f, g);
}

TEST(InternerTest, ScopeRollsBackButFreshNamesNeverRepeat) {
  Interner interner;
  SymbolId kept = interner.Intern("kept");
  std::string minted;
  {
    InternerScope scope(&interner);
    interner.Intern("scoped");
    minted = interner.NameOf(interner.Fresh("_v"));
    EXPECT_EQ(interner.size(), 3);
  }
  EXPECT_EQ(interner.size(), 1);
  EXPECT_EQ(interner.Lookup("scoped"), kInvalidSymbol);
  EXPECT_EQ(interner.Lookup(minted), kInvalidSymbol);
  EXPECT_EQ(interner.NameOf(kept), "kept");
  // Ids are reused after the rollback; fresh names are not.
  EXPECT_EQ(interner.Intern("other"), 1);
  EXPECT_NE(interner.NameOf(interner.Fresh("_v")), minted);
}

#ifndef NDEBUG
TEST(InternerDeathTest, StaleIdFailsInDebugBuilds) {
  Interner interner;
  SymbolId stale = kInvalidSymbol;
  {
    InternerScope scope(&interner);
    stale = interner.Intern("gone");
  }
  EXPECT_DEATH(interner.NameOf(stale), "");
}
#endif

TEST(RationalTest, NormalizesOnConstruction) {
  Rational r(4, 8);
  EXPECT_EQ(r.num(), 1);
  EXPECT_EQ(r.den(), 2);
  Rational neg(3, -6);
  EXPECT_EQ(neg.num(), -1);
  EXPECT_EQ(neg.den(), 2);
  Rational zero(0, 5);
  EXPECT_EQ(zero.den(), 1);
}

TEST(RationalTest, Ordering) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_LT(Rational(-1), Rational(0));
  EXPECT_LE(Rational(2, 4), Rational(1, 2));
  EXPECT_GT(Rational(1970), Rational(1969));
}

TEST(RationalTest, ParseForms) {
  Rational r;
  ASSERT_TRUE(Rational::Parse("1970", &r));
  EXPECT_EQ(r, Rational(1970));
  ASSERT_TRUE(Rational::Parse("-3", &r));
  EXPECT_EQ(r, Rational(-3));
  ASSERT_TRUE(Rational::Parse("12.5", &r));
  EXPECT_EQ(r, Rational(25, 2));
  ASSERT_TRUE(Rational::Parse("25/2", &r));
  EXPECT_EQ(r, Rational(25, 2));
  ASSERT_TRUE(Rational::Parse("-1.25", &r));
  EXPECT_EQ(r, Rational(-5, 4));
  EXPECT_FALSE(Rational::Parse("", &r));
  EXPECT_FALSE(Rational::Parse("abc", &r));
  EXPECT_FALSE(Rational::Parse("1/0", &r));
}

TEST(RationalTest, MidpointIsStrictlyBetween) {
  Rational a(1), b(2);
  Rational m = Rational::Midpoint(a, b);
  EXPECT_LT(a, m);
  EXPECT_LT(m, b);
  EXPECT_EQ(m, Rational(3, 2));
  // Density: midpoints keep working at tiny gaps.
  Rational c(999, 1000), d(1);
  Rational m2 = Rational::Midpoint(c, d);
  EXPECT_LT(c, m2);
  EXPECT_LT(m2, d);
}

TEST(RationalTest, Arithmetic) {
  EXPECT_EQ(Rational(1, 2) + Rational(1, 3), Rational(5, 6));
  EXPECT_EQ(Rational(1, 2) - Rational(1, 3), Rational(1, 6));
}

TEST(RationalTest, ToStringForms) {
  EXPECT_EQ(Rational(7).ToString(), "7");
  EXPECT_EQ(Rational(1, 2).ToString(), "1/2");
  EXPECT_EQ(Rational(-3, 2).ToString(), "-3/2");
}

}  // namespace
}  // namespace relcont
