/// \file virtual_join_test.cc
/// \brief Differential tests for the vtype-partitioned merge joins
/// (query/eval_virtual.h BatchAxis): the merge path must be byte-identical
/// to per-candidate predicate evaluation (`virtual_join = false`), across
/// thread counts, including views where ChainSafe fails and the merge
/// falls back to exact chain expansion; plus direct kernel-vs-predicate
/// and bitmap-vs-walk cross-checks over >= 10k instance pairs.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "pbn/packed.h"
#include "query/engine.h"
#include "query/eval_virtual.h"
#include "vpbn/virtual_document.h"
#include "vpbn/vpbn.h"
#include "workload/auctions.h"
#include "workload/books.h"

namespace vpbn::query {
namespace {

virt::VirtualDocument Open(const storage::StoredDocument& stored,
                           std::string_view spec) {
  auto v = virt::VirtualDocument::Open(stored, spec);
  EXPECT_TRUE(v.ok()) << spec << ": " << v.status();
  return std::move(v).ValueUnsafe();
}

/// Executes \p query with the merge joins off (the per-candidate
/// baseline), then on, and requires identical node lists.
void ExpectJoinMatchesBaseline(const virt::VirtualDocument& vdoc,
                               const std::vector<std::string>& queries,
                               uint64_t* vjoin_pairs_seen = nullptr) {
  // vdoc is owned by the caller's frame; hand the engine a non-owning
  // aliasing pointer.
  QueryEngine engine(std::shared_ptr<const virt::VirtualDocument>(
      std::shared_ptr<const void>(), &vdoc));
  for (const std::string& q : queries) {
    auto base =
        engine.Execute(q, {.collect_stats = false, .virtual_join = false});
    ASSERT_TRUE(base.ok()) << q << ": " << base.status();
    auto joined =
        engine.Execute(q, {.collect_stats = true, .virtual_join = true});
    ASSERT_TRUE(joined.ok()) << q << ": " << joined.status();
    ASSERT_TRUE(base->virtual_nodes() == joined->virtual_nodes())
        << q << " diverges (baseline " << base->size() << " nodes, joined "
        << joined->size() << ")";
    if (vjoin_pairs_seen != nullptr) {
      *vjoin_pairs_seen += joined->stats().vjoin_pairs;
    }
  }
}

/// Same comparison through EvalVirtual directly, with vjoin_min_context
/// forced to 1 so child/parent/ancestor merges run even on tiny contexts.
void ExpectForcedJoinMatchesBaseline(const virt::VirtualDocument& vdoc,
                                     const std::vector<std::string>& queries) {
  for (const std::string& q : queries) {
    auto parsed = ParsePath(q);
    ASSERT_TRUE(parsed.ok()) << q;
    ExecContext base_ctx;
    base_ctx.set_virtual_join(false);
    auto base = EvalVirtual(vdoc, *parsed, &base_ctx);
    ASSERT_TRUE(base.ok()) << q << ": " << base.status();
    ExecContext ctx;
    ctx.set_virtual_join(true);
    ctx.set_vjoin_min_context(1);
    auto joined = EvalVirtual(vdoc, *parsed, &ctx);
    ASSERT_TRUE(joined.ok()) << q << ": " << joined.status();
    ASSERT_TRUE(*base == *joined) << q << " diverges at min_context=1";
  }
}

const std::vector<std::string> kStructuralQueries = {
    "//*",
    "//node()",
    "/*",
};

TEST(VirtualJoinTest, BooksStandardView) {
  workload::BooksOptions opts;
  opts.seed = 11;
  opts.num_books = 120;
  opts.title_prob = 0.7;  // orphaned authors exercise reachability
  xml::Document doc = workload::GenerateBooks(opts);
  storage::StoredDocument stored = storage::StoredDocument::Build(doc);
  virt::VirtualDocument vdoc = Open(stored, "book { title author { name } }");

  uint64_t vjoin_pairs = 0;
  ExpectJoinMatchesBaseline(vdoc,
                            {
                                "//book",
                                "//book/title",
                                "//book//name",
                                "//name",
                                "//author/..",
                                "//name/ancestor::book",
                                "//book/descendant-or-self::node()",
                                "//author/ancestor-or-self::*",
                                "//book[title]/author/name",
                            },
                            &vjoin_pairs);
  // The merge path must actually have run, not just agreed vacuously.
  EXPECT_GT(vjoin_pairs, 0u);
  ExpectForcedJoinMatchesBaseline(
      vdoc, {"//book/title", "//author/..", "//name/ancestor::book",
             "//author/ancestor-or-self::*"});
}

TEST(VirtualJoinTest, BooksChainUnsafeView) {
  workload::BooksOptions opts;
  opts.seed = 29;
  opts.num_books = 100;
  opts.publisher_prob = 0.6;
  xml::Document doc = workload::GenerateBooks(opts);
  storage::StoredDocument stored = storage::StoredDocument::Build(doc);
  // publisher is not an original ancestor of name, so ChainSafe fails for
  // (title, name) and the batch path must fall back to chain expansion.
  virt::VirtualDocument vdoc = Open(stored, "title { publisher { name } }");

  ExpectJoinMatchesBaseline(vdoc, {
                                      "//title//name",
                                      "//title/descendant::*",
                                      "//name/ancestor::*",
                                      "//publisher/name",
                                      "//name/ancestor-or-self::title",
                                  });
  ExpectForcedJoinMatchesBaseline(
      vdoc, {"//title//name", "//name/ancestor::*", "//publisher/name"});
}

TEST(VirtualJoinTest, BooksInvertedView) {
  workload::BooksOptions opts;
  opts.seed = 5;
  opts.num_books = 80;
  xml::Document doc = workload::GenerateBooks(opts);
  storage::StoredDocument stored = storage::StoredDocument::Build(doc);
  virt::VirtualDocument vdoc = Open(stored, "name { author { book } }");

  ExpectJoinMatchesBaseline(vdoc, {
                                      "//name/author/book",
                                      "//book/ancestor::name",
                                      "//name//book",
                                      "//book/..",
                                  });
}

TEST(VirtualJoinTest, AuctionsViews) {
  workload::AuctionsOptions opts;
  opts.seed = 7;
  opts.num_items = 200;
  opts.num_people = 100;
  opts.num_auctions = 150;
  xml::Document doc = workload::GenerateAuctions(opts);
  storage::StoredDocument stored = storage::StoredDocument::Build(doc);

  virt::VirtualDocument by_item =
      Open(stored, "auction { itemref bidder { price } }");
  uint64_t vjoin_pairs = 0;
  std::vector<std::string> queries = {
      "//auction/bidder/price",
      "//auction//price",
      "//bidder/..",
      "//price/ancestor::auction",
      "//auction/descendant-or-self::*",
  };
  queries.insert(queries.end(), kStructuralQueries.begin(),
                 kStructuralQueries.end());
  ExpectJoinMatchesBaseline(by_item, queries, &vjoin_pairs);
  EXPECT_GT(vjoin_pairs, 0u);
  ExpectForcedJoinMatchesBaseline(
      by_item, {"//auction/bidder", "//bidder/..", "//price/ancestor::*"});

  // price { bidder { auction } } inverts the bidder chain: auction is an
  // original ancestor of bidder, so ChainSafe(price, auction) fails.
  virt::VirtualDocument inverted =
      Open(stored, "price { bidder { auction } }");
  ExpectJoinMatchesBaseline(inverted, {
                                          "//price/bidder/auction",
                                          "//price//auction",
                                          "//auction/ancestor::price",
                                          "//bidder/..",
                                      });
  ExpectForcedJoinMatchesBaseline(inverted,
                                  {"//price//auction", "//bidder/.."});
}

/// Direct kernel check: for every forest ancestor/descendant vtype pair,
/// MergeCompatiblePairs over the batch-decoded columns must emit exactly
/// the pairs the per-candidate VDescendant predicate accepts. Workload
/// sizes are chosen so the cumulative pair count crosses 10k.
TEST(VirtualJoinTest, KernelMatchesPredicateBruteForce) {
  struct Case {
    xml::Document doc;
    std::string spec;
  };
  workload::BooksOptions books;
  books.seed = 3;
  books.num_books = 60;
  books.title_prob = 0.8;
  workload::AuctionsOptions auctions;
  auctions.seed = 17;
  auctions.num_items = 60;
  auctions.num_people = 40;
  auctions.num_auctions = 60;
  std::vector<Case> cases;
  cases.push_back({workload::GenerateBooks(books),
                   "book { title author { name } }"});
  cases.push_back({workload::GenerateAuctions(auctions),
                   "auction { itemref bidder { price } }"});

  uint64_t pairs_tested = 0;
  for (Case& c : cases) {
    storage::StoredDocument stored = storage::StoredDocument::Build(c.doc);
    virt::VirtualDocument vdoc = Open(stored, c.spec);
    const vdg::VDataGuide& vg = vdoc.vguide();
    const dg::DataGuide& orig = vg.original_guide();
    const virt::VpbnSpace& space = vdoc.space();

    for (vdg::VTypeId top = 0; top < vg.num_vtypes(); ++top) {
      // Every strict forest descendant of `top`.
      std::vector<vdg::VTypeId> stack(vg.children(top).begin(),
                                      vg.children(top).end());
      while (!stack.empty()) {
        vdg::VTypeId bottom = stack.back();
        stack.pop_back();
        for (vdg::VTypeId gc : vg.children(bottom)) stack.push_back(gc);

        const dg::TypeId top_ot = vg.original(top);
        const dg::TypeId bot_ot = vg.original(bottom);
        const num::DecodedPbnColumn& xs = vdoc.DecodedNodesOfType(top_ot);
        const num::DecodedPbnColumn& ys = vdoc.DecodedNodesOfType(bot_ot);
        virt::VPairMergePlan plan = space.PlanPairMerge(
            top, bottom, orig.length(top_ot), orig.length(bot_ot));

        std::vector<std::pair<size_t, size_t>> merged;
        num::JoinCounters counters;
        virt::MergeCompatiblePairs(
            plan, xs, ys, &counters,
            [&](size_t xi, size_t yi) { merged.emplace_back(xi, yi); });

        std::vector<std::pair<size_t, size_t>> brute;
        std::vector<virt::VirtualNode> tops = vdoc.NodesOfVType(top);
        std::vector<virt::VirtualNode> bots = vdoc.NodesOfVType(bottom);
        for (size_t xi = 0; xi < tops.size(); ++xi) {
          virt::Vpbn xv = vdoc.VpbnOf(tops[xi]);
          virt::VpbnView xview(xv);
          for (size_t yi = 0; yi < bots.size(); ++yi) {
            virt::Vpbn yv = vdoc.VpbnOf(bots[yi]);
            virt::VpbnView yview(yv);
            if (space.VDescendant(yview, xview)) brute.emplace_back(xi, yi);
            ++pairs_tested;
          }
        }
        std::sort(merged.begin(), merged.end());
        std::sort(brute.begin(), brute.end());
        ASSERT_TRUE(merged == brute)
            << c.spec << " pair (" << vg.label(top) << ", "
            << vg.label(bottom) << "): merge emitted " << merged.size()
            << ", predicate " << brute.size();
        EXPECT_EQ(counters.vjoin_pairs, merged.size());
      }
    }
  }
  EXPECT_GE(pairs_tested, 10000u);
}

/// The memoized reachability bitmap must agree with a from-scratch
/// parent-chain walk on every instance of every vtype.
TEST(VirtualJoinTest, ReachabilityBitmapMatchesWalk) {
  workload::BooksOptions opts;
  opts.seed = 41;
  opts.num_books = 80;
  opts.title_prob = 0.6;  // plenty of orphans
  opts.publisher_prob = 0.5;
  xml::Document doc = workload::GenerateBooks(opts);
  storage::StoredDocument stored = storage::StoredDocument::Build(doc);
  for (const char* spec : {"book { title author { name } }",
                           "title { author { name } publisher }",
                           "name { author { book } }"}) {
    virt::VirtualDocument vdoc = Open(stored, spec);
    const vdg::VDataGuide& vg = vdoc.vguide();

    // Memoized recursive walk over actual Parents() chains — the original
    // (pre-bitmap) definition of reachability.
    std::unordered_map<uint64_t, bool> memo;
    auto key = [](const virt::VirtualNode& v) {
      return (static_cast<uint64_t>(v.node) << 32) | v.vtype;
    };
    std::function<bool(const virt::VirtualNode&)> walk =
        [&](const virt::VirtualNode& v) -> bool {
      if (vg.parent(v.vtype) == vdg::kNullVType) return true;
      auto it = memo.find(key(v));
      if (it != memo.end()) return it->second;
      bool ok = false;
      for (const virt::VirtualNode& p : vdoc.Parents(v)) {
        if (walk(p)) {
          ok = true;
          break;
        }
      }
      memo.emplace(key(v), ok);
      return ok;
    };

    for (vdg::VTypeId t = 0; t < vg.num_vtypes(); ++t) {
      size_t index = 0;
      for (const virt::VirtualNode& v : vdoc.NodesOfVType(t)) {
        EXPECT_EQ(vdoc.IsReachable(v), walk(v))
            << spec << " vtype " << vg.label(t) << " node " << v.node;
        EXPECT_EQ(vdoc.IsReachableAt(t, index), walk(v));
        ++index;
      }
    }
  }
}

}  // namespace
}  // namespace vpbn::query
