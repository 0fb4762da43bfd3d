#include <gtest/gtest.h>

#include <string>

#include "common/interner.h"
#include "common/rational.h"
#include "common/sharded_lru.h"
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

// --- sharded LRU (the decision and plan caches) ------------------------------

struct Value {
  bool flag = false;
  std::string text;
};

/// A key whose leading field names `catalog`, as the services build them.
std::string Key(const std::string& catalog, const std::string& rest) {
  return catalog + kCacheKeySeparator + "v1" + kCacheKeySeparator + rest;
}

TEST(ShardedLruTest, LookupInsertAndStats) {
  ShardedLru<Value> cache(8, 2);
  EXPECT_FALSE(cache.Lookup("k1").has_value());
  cache.Insert("k1", Value{true, "w"});
  auto hit = cache.Lookup("k1");
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->flag);
  EXPECT_EQ(hit->text, "w");
  ShardedLruStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.invalidated, 0u);
}

TEST(ShardedLruTest, LruEvictionOrder) {
  // One shard so recency order is global and deterministic.
  ShardedLru<Value> cache(3, 1);
  cache.Insert("a", Value{true, ""});
  cache.Insert("b", Value{true, ""});
  cache.Insert("c", Value{true, ""});
  // Refresh "a": now "b" is the least recently used entry.
  EXPECT_TRUE(cache.Lookup("a").has_value());
  cache.Insert("d", Value{false, ""});
  EXPECT_TRUE(cache.Lookup("a").has_value());
  EXPECT_FALSE(cache.Lookup("b").has_value());
  EXPECT_TRUE(cache.Lookup("c").has_value());
  EXPECT_TRUE(cache.Lookup("d").has_value());
  ShardedLruStats stats = cache.Stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 3u);
}

TEST(ShardedLruTest, InsertRefreshesExistingEntry) {
  ShardedLru<Value> cache(2, 1);
  cache.Insert("a", Value{false, "old"});
  cache.Insert("b", Value{false, "b"});
  // Re-inserting "a" replaces its value and makes it most recent, so "b"
  // is the victim when "c" arrives.
  cache.Insert("a", Value{false, "new"});
  EXPECT_EQ(cache.Stats().entries, 2u);
  cache.Insert("c", Value{false, "c"});
  auto hit = cache.Lookup("a");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->text, "new");
  EXPECT_FALSE(cache.Lookup("b").has_value());
  EXPECT_EQ(cache.Stats().evictions, 1u);
}

TEST(ShardedLruTest, ClearDropsEntriesKeepsCounters) {
  ShardedLru<Value> cache(4, 1);
  cache.Insert("a", Value{true, ""});
  EXPECT_TRUE(cache.Lookup("a").has_value());
  cache.Clear();
  EXPECT_FALSE(cache.Lookup("a").has_value());
  ShardedLruStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(ShardedLruTest, CapacitySplitsAcrossShards) {
  ShardedLru<Value> cache(10, 4);
  EXPECT_EQ(cache.capacity(), 12u);  // each of the 4 shards rounds up to 3
  ShardedLru<Value> tiny(0, 0);  // at least one shard of one entry
  EXPECT_EQ(tiny.capacity(), 1u);
}

TEST(ShardedLruTest, InvalidateCatalogEvictsOnlyThatCatalog) {
  ShardedLru<Value> cache(/*capacity=*/64, /*num_shards=*/4);
  for (int i = 0; i < 8; ++i) {
    cache.Insert(Key("left", std::to_string(i)), Value{true, "l"});
    cache.Insert(Key("right", std::to_string(i)), Value{true, "r"});
    // A name that extends "left" is a different catalog.
    cache.Insert(Key("leftover", std::to_string(i)), Value{true, "o"});
  }
  // Accumulate some hits so we can assert the counters survive.
  EXPECT_TRUE(cache.Lookup(Key("left", "0")).has_value());
  EXPECT_TRUE(cache.Lookup(Key("right", "0")).has_value());
  ShardedLruStats before = cache.Stats();

  cache.InvalidateCatalog("left");

  ShardedLruStats after = cache.Stats();
  EXPECT_EQ(after.invalidated, 8u);
  EXPECT_EQ(after.entries, 16u);
  EXPECT_EQ(after.evictions, 0u);
  // Hit/miss counters are untouched by invalidation.
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  for (int i = 0; i < 8; ++i) {
    EXPECT_FALSE(cache.Lookup(Key("left", std::to_string(i))).has_value());
    EXPECT_TRUE(cache.Lookup(Key("right", std::to_string(i))).has_value());
    EXPECT_TRUE(cache.Lookup(Key("leftover", std::to_string(i))).has_value());
  }
  // Invalidated slots are free again: refilling evicts nothing.
  for (int i = 0; i < 8; ++i) {
    cache.Insert(Key("left", std::to_string(i)), Value{true, "l2"});
  }
  EXPECT_EQ(cache.Stats().evictions, 0u);
}

TEST(ShardedLruTest, SeparatorInCatalogNameOnlyOverInvalidates) {
  ShardedLru<Value> cache(16, 1);
  const std::string odd = std::string("a") + kCacheKeySeparator + "b";
  cache.Insert(Key("a", "x"), Value{});
  cache.Insert(Key(odd, "x"), Value{});
  // The odd catalog's own invalidation reclaims its entry and spares "a".
  cache.InvalidateCatalog(odd);
  EXPECT_FALSE(cache.Lookup(Key(odd, "x")).has_value());
  EXPECT_TRUE(cache.Lookup(Key("a", "x")).has_value());
  // Invalidating "a" may also take entries of names that begin with
  // "a" + separator: more than its own, never fewer.
  cache.Insert(Key(odd, "x"), Value{});
  cache.InvalidateCatalog("a");
  EXPECT_EQ(cache.Stats().entries, 0u);
}

}  // namespace
}  // namespace relcont
