/// \file virtual_predicate_test.cc
/// \brief Differential tests for set-at-a-time predicates on virtual views
/// (query/eval_virtual.h VirtualAdapter::BatchPredicate).
///
/// Three answers must agree for every query: the batched path (witness
/// probe + one vPBN merge per vtype pair) at 1/2/8 threads and without an
/// ExecContext, the per-node predicate walk (`virtual_join = false`), byte
/// for byte, and a physical
/// evaluation of the materialized view (virt::Materialize + EvalNav), as a
/// node set. The ExecStats counters tell the two paths apart: a batched
/// predicate probes the value index once per terminal vtype and leaves
/// nothing to the per-node walk (`value_scan_fallbacks == 0`), a declined
/// one hands every context node to it.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "query/engine.h"
#include "query/eval_nav.h"
#include "query/eval_virtual.h"
#include "tests/test_util.h"
#include "vpbn/materializer.h"
#include "vpbn/virtual_document.h"
#include "workload/auctions.h"
#include "workload/random_trees.h"

namespace vpbn::query {
namespace {

struct Run {
  std::vector<virt::VirtualNode> nodes;
  uint64_t fallbacks = 0;
  uint64_t lookups = 0;
};

/// EvalVirtual with an explicit context; \p batched false pins the per-node
/// baseline. vjoin_min_context 1 lets the merges run on tiny documents.
Run Eval(const virt::VirtualDocument& vdoc, const std::string& path,
         bool batched, common::ThreadPool* pool) {
  auto parsed = ParsePath(path);
  EXPECT_TRUE(parsed.ok()) << path << ": " << parsed.status();
  if (!parsed.ok()) return {};
  ExecContext ctx(pool, /*collect_stats=*/true);
  ctx.set_virtual_join(batched);
  ctx.set_vjoin_min_context(1);
  auto result = EvalVirtual(vdoc, *parsed, &ctx);
  EXPECT_TRUE(result.ok()) << path << ": " << result.status();
  if (!result.ok()) return {};
  return {std::move(result).ValueUnsafe(), ctx.value_scan_fallbacks(),
          ctx.value_index_lookups()};
}

uint64_t Key(const virt::VirtualNode& n) {
  return (static_cast<uint64_t>(n.node) << 32) | n.vtype;
}

/// A copy of \p in where every odd-numbered text "tN" becomes "N", so
/// values mix numbers (relational predicates) and non-numbers.
xml::Document WithNumericTexts(const xml::Document& in) {
  xml::Document out;
  auto copy = [&](auto&& self, xml::NodeId n, xml::NodeId parent) -> void {
    if (in.IsText(n)) {
      const std::string& t = in.text(n);
      const bool odd = !t.empty() && ((t.back() - '0') % 2 == 1);
      out.AddText(odd ? t.substr(1) : t, parent);
      return;
    }
    xml::NodeId copy_id = out.AddElement(in.name(n), parent);
    for (xml::NodeId c : in.Children(n)) self(self, c, copy_id);
  };
  for (xml::NodeId r : in.roots()) copy(copy, r, xml::kNullNode);
  return out;
}

struct PredQuery {
  std::string path;
  bool covered;  ///< a shape BatchPredicate answers (when the types allow)
};

/// Covered shapes (value comparisons under every operator, numeric and
/// non-interned literals, existence, and / or / not) and uncovered ones
/// (string functions, count, nested predicates, path-vs-path) over each
/// element vtype and its first element child.
std::vector<PredQuery> Battery(const vdg::VDataGuide& vg) {
  // Contexts mixing every element vtype: one merge group per vtype.
  std::vector<PredQuery> out = {{"//*[text() = \"t4\"]", true},
                                {"//*[* > 20 or not(*)]", true}};
  int subjects = 0;
  for (vdg::VTypeId t = 0; t < vg.num_vtypes() && subjects < 4; ++t) {
    if (vg.IsTextVType(t)) continue;
    ++subjects;
    const std::string l = "//" + vg.label(t);
    std::string c = "*";
    for (vdg::VTypeId k : vg.children(t)) {
      if (!vg.IsTextVType(k)) {
        c = vg.label(k);
        break;
      }
    }
    for (const char* p : {"[text()]",
                          "[text() = \"t4\"]",
                          "[\"t4\" = text()]",
                          "[text() != \"t4\"]",
                          "[text() = 17]",
                          "[text() = \"17\"]",
                          "[text() = \"zz-absent\"]",
                          "[text() > 20]",
                          "[25 >= text()]",
                          "[text() < \"x\"]",
                          "[*]",
                          "[*/text() = \"t2\"]",
                          "[descendant::*/text() > 40]",
                          "[not(text() = \"t6\")]"}) {
      out.push_back({l + p, true});
    }
    const std::vector<std::string> on_child = {
        "[" + c + "]",
        "[" + c + " = \"t8\"]",
        "[" + c + " != 3]",
        "[" + c + " <= 30]",
        "[" + c + "//text() = \"11\"]",
        "[not(" + c + ")]",
        "[" + c + " and text() > 5]",
        "[" + c + " = \"t1\" or text() = \"t2\"]"};
    for (const std::string& p : on_child) out.push_back({l + p, true});
    // The chain a descendant predicate merges over, as a plain step.
    out.push_back({l + "/descendant::*", true});
    const std::vector<std::string> uncovered = {
        "[contains(text(), \"1\")]",
        "[starts-with(" + c + ", \"t\")]",
        "[count(*) > 1]",
        "[" + c + "[text()]]",
        "[text() = " + c + "]"};
    for (const std::string& p : uncovered) out.push_back({l + p, false});
  }
  return out;
}

/// Runs \p q three ways and requires agreement; counts batched firings.
void CheckQuery(const virt::VirtualDocument& vdoc, const virt::Materialized& m,
                const PredQuery& q, common::ThreadPool* pool2,
                common::ThreadPool* pool8, int* fired) {
  SCOPED_TRACE(q.path);
  const Run base = Eval(vdoc, q.path, /*batched=*/false, nullptr);
  for (common::ThreadPool* pool : {static_cast<common::ThreadPool*>(nullptr),
                                   pool2, pool8}) {
    const Run batched = Eval(vdoc, q.path, /*batched=*/true, pool);
    ASSERT_TRUE(batched.nodes == base.nodes)
        << "threads=" << (pool == nullptr ? 1 : pool->num_threads())
        << " batched " << batched.nodes.size() << " nodes, per-node "
        << base.nodes.size();
    if (!q.covered && base.fallbacks > 0) {
      EXPECT_GT(batched.fallbacks, 0u) << "uncovered shape was batched";
    }
    if (q.covered && pool == nullptr && batched.fallbacks == 0 &&
        base.fallbacks > 0) {
      ++*fired;
    }
  }
  // No ExecContext at all: nothing memoized, default knobs.
  auto bare = EvalVirtual(vdoc, q.path);
  ASSERT_TRUE(bare.ok()) << bare.status();
  EXPECT_TRUE(*bare == base.nodes) << "without an ExecContext";
  auto physical = EvalNav(m.doc, q.path);
  ASSERT_TRUE(physical.ok()) << physical.status();
  std::set<uint64_t> virtual_set;
  for (const virt::VirtualNode& n : base.nodes) virtual_set.insert(Key(n));
  std::set<uint64_t> physical_set;
  for (xml::NodeId id : *physical) physical_set.insert(Key(m.provenance[id]));
  EXPECT_EQ(virtual_set, physical_set);
}

class VirtualPredicateRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VirtualPredicateRandomTest, BatchedMatchesPerNodeAndMaterialized) {
  const uint64_t seed = GetParam();
  workload::RandomTreeOptions topts;
  topts.seed = seed;
  topts.num_nodes = 160;
  topts.num_labels = 5;
  topts.text_prob = 0.3;
  // Even seeds use a (possibly) two-rooted forest: vtypes over different
  // roots share no original LCA, which the merge must not paper over.
  const xml::Document doc = WithNumericTexts(
      seed % 2 == 0 ? testutil::RandomForest(seed, 160, 5)
                    : workload::GenerateRandomTree(topts));
  const storage::StoredDocument stored = storage::StoredDocument::Build(doc);
  common::ThreadPool pool2(2);
  common::ThreadPool pool8(8);

  int fired = 0;
  for (uint64_t spec_seed = 1; spec_seed <= 5; ++spec_seed) {
    workload::RandomSpecOptions sopts;
    sopts.seed = seed * 100 + spec_seed;
    sopts.num_types = 5;
    sopts.star_prob = spec_seed >= 4 ? 0.4 : 0.0;
    const std::string spec =
        workload::GenerateRandomSpec(stored.dataguide(), sopts);
    SCOPED_TRACE(spec);
    auto v = virt::VirtualDocument::Open(stored, spec);
    ASSERT_TRUE(v.ok()) << v.status();
    auto m = virt::Materialize(*v);
    ASSERT_TRUE(m.ok()) << m.status();
    for (const PredQuery& q : Battery(v->vguide())) {
      CheckQuery(*v, *m, q, &pool2, &pool8, &fired);
    }
  }
  // The batched path must actually have answered, not agreed vacuously.
  EXPECT_GT(fired, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VirtualPredicateRandomTest,
                         ::testing::Range<uint64_t>(1, 9));

class AuctionViewsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    stored_ = new storage::StoredDocument(storage::StoredDocument::Build(
        workload::GenerateAuctions(workload::ScaledAuctions(0.02))));
  }
  static void TearDownTestSuite() {
    delete stored_;
    stored_ = nullptr;
  }

  static std::shared_ptr<const virt::VirtualDocument> Open(
      std::string_view spec) {
    auto v = virt::VirtualDocument::Open(*stored_, spec);
    EXPECT_TRUE(v.ok()) << spec << ": " << v.status();
    return std::make_shared<const virt::VirtualDocument>(
        std::move(v).ValueUnsafe());
  }

  static storage::StoredDocument* stored_;
};

storage::StoredDocument* AuctionViewsTest::stored_ = nullptr;

/// The view templates a server sees: every one must run batched (no
/// per-node fallback) at the engine's default options and thread counts,
/// and match the per-node walk exactly.
TEST_F(AuctionViewsTest, ViewTemplatesRunBatched) {
  struct Case {
    const char* spec;
    std::vector<std::string> paths;
  };
  const std::vector<Case> cases = {
      {"auction { itemref bidder { price } }",
       {"//auction[itemref = \"item7\"]/bidder/price",
        "//auction[bidder/price > 60]/bidder/price",
        "//auction[bidder/price > 60 and not(itemref = \"item3\")]/itemref",
        "//auction[bidder]/itemref"}},
      {"personref { price auction { itemref } }",
       {"//personref[text() = \"person5\"]/auction/itemref",
        "//personref[auction/itemref = \"item9\"]/price",
        "//personref[price > 45]/auction/itemref",
        "//personref[price <= 30 or auction/itemref = \"item2\"]/price"}},
  };
  for (const Case& c : cases) {
    QueryEngine engine(Open(c.spec));
    for (const std::string& path : c.paths) {
      SCOPED_TRACE(path);
      auto base = engine.Execute(
          path, {.threads = 1, .collect_stats = true, .virtual_join = false});
      ASSERT_TRUE(base.ok()) << base.status();
      EXPECT_GT(base->stats().value_scan_fallbacks, 0u);
      for (int threads : {1, 2, 8}) {
        auto batched =
            engine.Execute(path, {.threads = threads, .collect_stats = true});
        ASSERT_TRUE(batched.ok()) << batched.status();
        EXPECT_TRUE(batched->virtual_nodes() == base->virtual_nodes())
            << "threads=" << threads;
        EXPECT_EQ(batched->stats().value_scan_fallbacks, 0u)
            << "threads=" << threads;
      }
    }
  }
}

/// ExecStats accounting: a batched text() equality probes the one terminal
/// vtype's column once, instead of once per personref.
TEST_F(AuctionViewsTest, LookupsScaleWithTerminalVTypesNotContext) {
  auto vdoc = Open("personref { price auction { itemref } }");
  QueryEngine engine(vdoc);
  const std::string path = "//personref[text() = \"person5\"]/auction/itemref";
  auto batched = engine.Execute(path, {.collect_stats = true});
  auto base = engine.Execute(path,
                             {.collect_stats = true, .virtual_join = false});
  ASSERT_TRUE(batched.ok()) << batched.status();
  ASSERT_TRUE(base.ok()) << base.status();
  ASSERT_TRUE(batched->virtual_nodes() == base->virtual_nodes());
  ASSERT_FALSE(batched->virtual_nodes().empty());

  auto personrefs = engine.Execute("//personref", {});
  ASSERT_TRUE(personrefs.ok());
  const uint64_t n_personref = personrefs->size();
  ASSERT_GT(n_personref, 100u);
  // One string-equality probe of the single text() vtype under personref.
  EXPECT_EQ(batched->stats().value_index_lookups, 1u);
  EXPECT_GT(batched->stats().value_index_postings, 0u);
  EXPECT_GT(batched->stats().vjoin_pairs, 0u);
  // The per-node walk reads one value per personref.
  EXPECT_GE(base->stats().value_index_lookups, n_personref);
}

/// price { bidder { auction } } inverts the bidder chain: auction is an
/// original ancestor of bidder, so ChainSafe(price, auction) fails and the
/// predicate must stay on the per-node walk, with identical answers.
TEST_F(AuctionViewsTest, ChainUnsafeTerminalDeclines) {
  QueryEngine engine(Open("price { bidder { auction } }"));
  for (const std::string path :
       {"//price[bidder/auction]", "//price[not(bidder/auction)]"}) {
    SCOPED_TRACE(path);
    auto base = engine.Execute(
        path, {.collect_stats = true, .virtual_join = false});
    auto batched = engine.Execute(path, {.collect_stats = true});
    ASSERT_TRUE(base.ok()) << base.status();
    ASSERT_TRUE(batched.ok()) << batched.status();
    EXPECT_TRUE(batched->virtual_nodes() == base->virtual_nodes());
    EXPECT_GT(batched->stats().value_scan_fallbacks, 0u);
  }
  // The bidder child itself is ChainSafe, so that predicate batches.
  auto direct = engine.Execute("//price[bidder]", {.collect_stats = true});
  ASSERT_TRUE(direct.ok()) << direct.status();
  EXPECT_EQ(direct->stats().value_scan_fallbacks, 0u);
}

/// The ablation knobs pin the per-node walk.
TEST_F(AuctionViewsTest, KnobsOffDecline) {
  QueryEngine engine(Open("auction { itemref bidder { price } }"));
  const std::string path = "//auction[itemref = \"item4\"]/bidder/price";
  auto on = engine.Execute(path, {.collect_stats = true});
  ASSERT_TRUE(on.ok()) << on.status();
  EXPECT_EQ(on->stats().value_scan_fallbacks, 0u);
  for (const ExecOverrides& off :
       {ExecOverrides{.collect_stats = true, .virtual_join = false},
        ExecOverrides{.collect_stats = true, .use_value_index = false}}) {
    auto r = engine.Execute(path, off);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_TRUE(r->virtual_nodes() == on->virtual_nodes());
    EXPECT_GT(r->stats().value_scan_fallbacks, 0u);
  }
}

}  // namespace
}  // namespace vpbn::query
