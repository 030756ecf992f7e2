/// \file result_cache_test.cc
/// \brief The server result cache: key composition (doc, view, path,
/// effective options, epoch), LRU eviction, and hit/miss counters.

#include "server/result_cache.h"

#include <gtest/gtest.h>

#include <memory>

#include "query/engine.h"

namespace vpbn::server {
namespace {

std::shared_ptr<const ResultCache::Entry> MakeEntry(
    std::vector<std::string> values) {
  auto e = std::make_shared<ResultCache::Entry>();
  e->values = std::move(values);
  e->result_nodes = e->values.size();
  return e;
}

TEST(ResultCacheTest, HitRequiresEveryKeyComponent) {
  ResultCache cache(8);
  query::ExecOptions opts;
  std::string base = ResultCache::Key("books", "", "//title", opts, 1);
  cache.Put(base, MakeEntry({"a"}));

  EXPECT_NE(cache.Get(base), nullptr);
  // Any one component changing misses.
  EXPECT_EQ(cache.Get(ResultCache::Key("auctions", "", "//title", opts, 1)),
            nullptr);
  EXPECT_EQ(cache.Get(ResultCache::Key("books", "v", "//title", opts, 1)),
            nullptr);
  EXPECT_EQ(cache.Get(ResultCache::Key("books", "", "//price", opts, 1)),
            nullptr);
  EXPECT_EQ(cache.Get(ResultCache::Key("books", "", "//title", opts, 2)),
            nullptr);
  query::ExecOptions no_join = opts;
  no_join.virtual_join = !no_join.virtual_join;
  EXPECT_EQ(cache.Get(ResultCache::Key("books", "", "//title", no_join, 1)),
            nullptr);
  // The cost model picks the plan a hit reports, so it keys too.
  query::ExecOptions no_cost = opts;
  no_cost.use_cost_model = !no_cost.use_cost_model;
  EXPECT_EQ(cache.Get(ResultCache::Key("books", "", "//title", no_cost, 1)),
            nullptr);
}

TEST(ResultCacheTest, ExecutionShapeOptionsDoNotFragmentTheKey) {
  // collect_stats changes how a result is computed, not what it is — two
  // requests differing only there share one cache slot.
  query::ExecOptions a;
  a.collect_stats = false;
  query::ExecOptions b;
  b.collect_stats = true;
  EXPECT_EQ(ResultCache::Key("d", "", "//x", a, 3),
            ResultCache::Key("d", "", "//x", b, 3));

  // Semantics-bearing options do fragment it.
  query::ExecOptions c = a;
  c.use_value_index = !c.use_value_index;
  EXPECT_NE(ResultCache::Key("d", "", "//x", a, 3),
            ResultCache::Key("d", "", "//x", c, 3));
}

TEST(ResultCacheTest, EpochChangeIsInvalidationByConstruction) {
  ResultCache cache(8);
  query::ExecOptions opts;
  cache.Put(ResultCache::Key("d", "", "//x", opts, 1), MakeEntry({"old"}));

  // After a reload the server looks up under the new epoch: guaranteed
  // miss, stale entry unreachable.
  auto stale = cache.Get(ResultCache::Key("d", "", "//x", opts, 2));
  EXPECT_EQ(stale, nullptr);
  cache.Put(ResultCache::Key("d", "", "//x", opts, 2), MakeEntry({"new"}));
  auto fresh = cache.Get(ResultCache::Key("d", "", "//x", opts, 2));
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->values[0], "new");
}

TEST(ResultCacheTest, LruEvictsOldestAndRefreshesOnHit) {
  ResultCache cache(2);
  query::ExecOptions opts;
  auto key = [&](const char* p) {
    return ResultCache::Key("d", "", p, opts, 1);
  };
  cache.Put(key("//a"), MakeEntry({"a"}));
  cache.Put(key("//b"), MakeEntry({"b"}));
  EXPECT_NE(cache.Get(key("//a")), nullptr);  // refresh //a
  cache.Put(key("//c"), MakeEntry({"c"}));    // evicts //b (LRU)
  EXPECT_NE(cache.Get(key("//a")), nullptr);
  EXPECT_EQ(cache.Get(key("//b")), nullptr);
  EXPECT_NE(cache.Get(key("//c")), nullptr);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ResultCacheTest, CountersAndClear) {
  ResultCache cache(4);
  query::ExecOptions opts;
  std::string k = ResultCache::Key("d", "", "//x", opts, 1);
  EXPECT_EQ(cache.Get(k), nullptr);
  cache.Put(k, MakeEntry({"x"}));
  EXPECT_NE(cache.Get(k), nullptr);
  EXPECT_NE(cache.Get(k), nullptr);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 1u);

  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Get(k), nullptr);
  // Counters are cumulative across Clear — they feed STATS.
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(ResultCacheTest, ZeroCapacityDisablesCaching) {
  ResultCache cache(0);
  query::ExecOptions opts;
  std::string k = ResultCache::Key("d", "", "//x", opts, 1);
  cache.Put(k, MakeEntry({"x"}));
  EXPECT_EQ(cache.Get(k), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ResultCacheTest, HitsShareTheEntryAcrossHolders) {
  // Entries are shared_ptr<const Entry>: a Clear (or eviction) while a
  // response is being rendered must not free the values under the reader.
  ResultCache cache(4);
  query::ExecOptions opts;
  std::string k = ResultCache::Key("d", "", "//x", opts, 1);
  cache.Put(k, MakeEntry({"long-lived value"}));
  auto held = cache.Get(k);
  ASSERT_NE(held, nullptr);
  cache.Clear();
  EXPECT_EQ(held->values[0], "long-lived value");
}

}  // namespace
}  // namespace vpbn::server
