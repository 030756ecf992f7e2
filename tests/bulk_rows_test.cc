// Differential test of the set-at-a-time evaluator against the
// navigational oracle: random documents (single-rooted trees and
// multi-rooted forests) decorated with attributes, random child/descendant
// paths with selective and broad value, attribute, string-function and
// existence predicates (several per step), run at 1, 2 and 8 threads with
// the cost model and the value index on and off. Every answer must equal
// EvalNav's, number for number.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "query/eval_bulk.h"
#include "query/eval_nav.h"
#include "tests/test_util.h"
#include "workload/auctions.h"
#include "workload/random_trees.h"
#include "xml/parser.h"

namespace vpbn::query {
namespace {

/// Copy of \p in where about half the elements carry `k` (a few shared
/// values, some numeric) and `id` (unique per element, so `[@id = ...]` is
/// selective), and some texts are numbers.
xml::Document Decorate(const xml::Document& in, uint64_t seed) {
  Rng rng(seed);
  xml::Document out;
  int next_id = 0;
  const char* shared[] = {"1", "2", "10", "a", "ab", "b"};
  auto copy = [&](auto&& self, xml::NodeId n, xml::NodeId parent) -> void {
    if (in.IsText(n)) {
      out.AddText(rng.Bernoulli(0.3) ? std::to_string(rng.Uniform(20))
                                     : in.text(n),
                  parent);
      return;
    }
    const xml::NodeId e = out.AddElement(in.name(n), parent);
    if (rng.Bernoulli(0.5)) out.AddAttribute(e, "k", shared[rng.Uniform(6)]);
    if (rng.Bernoulli(0.5)) {
      std::string id = "n";
      id += std::to_string(next_id++);
      out.AddAttribute(e, "id", id);
    }
    for (xml::NodeId c : in.Children(n)) self(self, c, e);
  };
  for (xml::NodeId r : in.roots()) copy(copy, r, xml::kNullNode);
  return out;
}

/// Random paths over the document's element labels.
class PathGenerator {
 public:
  PathGenerator(const xml::Document& doc, uint64_t seed) : rng_(seed) {
    for (xml::NodeId id = 0; id < doc.num_nodes(); ++id) {
      if (doc.IsText(id)) {
        AddOnce(&texts_, doc.text(id));
      } else if (doc.parent(id) != xml::kNullNode) {
        AddOnce(&labels_, doc.name(id));
        auto attr = doc.AttributeValue(id, "id");
        if (attr.ok()) ids_.push_back(*attr);
      }
    }
    if (labels_.empty()) labels_.push_back("e0");
    if (texts_.empty()) texts_.push_back("t0");
    if (ids_.empty()) ids_.push_back("n0");
  }

  std::string Path() {
    std::string out;
    const int steps = 1 + static_cast<int>(rng_.Uniform(3));
    for (int s = 0; s < steps; ++s) {
      out += s == 0 || rng_.Bernoulli(0.5) ? "//" : "/";
      out += rng_.Bernoulli(0.1) ? "*" : Label();
      int preds = 0;
      if (rng_.Bernoulli(0.6)) preds = rng_.Bernoulli(0.3) ? 2 : 1;
      for (int p = 0; p < preds; ++p) {
        out += '[';
        out += Predicate();
        out += ']';
      }
    }
    return out;
  }

 private:
  static void AddOnce(std::vector<std::string>* v, const std::string& s) {
    for (const std::string& x : *v) {
      if (x == s) return;
    }
    v->push_back(s);
  }

  template <typename T>
  const T& Pick(const std::vector<T>& v) {
    return v[rng_.Uniform(v.size())];
  }
  const std::string& Label() { return Pick(labels_); }

  /// A predicate-free relative chain of one or two steps, or text().
  /// \p leafward ends most chains in text(), so value tests hit real text.
  std::string Chain(double leafward = 0.3) {
    if (rng_.Bernoulli(0.15)) return "text()";
    std::string c = Label();
    if (rng_.Bernoulli(0.4)) c += (rng_.Bernoulli(0.5) ? "//" : "/") + Label();
    if (rng_.Bernoulli(leafward)) c += "/text()";
    return c;
  }

  std::string Predicate() {
    switch (rng_.Uniform(13)) {
      case 0:  // existence
        return Chain();
      case 1:
      case 2:  // selective equality on a present value
        return Chain(0.7) + " = \"" + Pick(texts_) + "\"";
      case 3:  // broad inequality
        return Chain() + " != \"" + Pick(texts_) + "\"";
      case 4:
        return Chain(0.7) + " > " + std::to_string(rng_.Uniform(20));
      case 5:
        return Chain() + " = \"no such value\"";
      case 6:
        return "@id = \"" + Pick(ids_) + "\"";
      case 7:
        return std::string("@k = \"") +
               (rng_.Bernoulli(0.7) ? "a" : "zz") + "\"";
      case 8:
        return "@k >= " + std::to_string(rng_.Uniform(12));
      case 9:
        return std::string("contains(") + Chain() + ", \"" +
               (rng_.Bernoulli(0.5) ? "1" : "") + "\")";
      case 10:
        return "starts-with(" + Chain() + ", \"t\")";
      case 11:
        return std::string(rng_.Bernoulli(0.5) ? "contains" : "starts-with") +
               "(@k, \"a\")";
      default:  // nested existence
        return Label() + "[" + Chain() + "]";
    }
  }

  Rng rng_;
  std::vector<std::string> labels_;  ///< labels of non-root elements
  std::vector<std::string> texts_;
  std::vector<std::string> ids_;  ///< values of the `id` attribute
};

class BulkRowsTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BulkRowsTest, BulkMatchesNavigationalOracle) {
  const uint64_t seed = GetParam();
  workload::RandomTreeOptions topts;
  topts.seed = seed;
  topts.num_nodes = 600;
  topts.num_labels = 4;
  topts.text_prob = 0.3;
  // Even seeds are (possibly) multi-rooted forests.
  const xml::Document doc = Decorate(
      seed % 2 == 0 ? testutil::RandomForest(seed, 600, 4)
                    : workload::GenerateRandomTree(topts),
      seed);
  const storage::StoredDocument stored = storage::StoredDocument::Build(doc);
  common::ThreadPool pool2(2);
  common::ThreadPool pool8(8);
  common::ThreadPool* pools[] = {nullptr, &pool2, &pool8};

  PathGenerator gen(doc, seed * 7919);
  int nonempty = 0;
  for (int i = 0; i < 60; ++i) {
    const std::string text = gen.Path();
    SCOPED_TRACE(text);
    auto path = ParsePath(text);
    ASSERT_TRUE(path.ok()) << path.status();
    ASSERT_TRUE(InBulkFragment(*path));
    auto nav = EvalNav(doc, *path);
    ASSERT_TRUE(nav.ok()) << nav.status();
    std::vector<num::Pbn> expect;
    for (xml::NodeId id : *nav) expect.push_back(stored.numbering().OfNode(id));
    if (!expect.empty()) ++nonempty;
    for (common::ThreadPool* pool : pools) {
      for (bool cost_model : {true, false}) {
        for (bool value_index : {true, false}) {
          ExecContext ctx(pool, /*collect_stats=*/true);
          ctx.set_use_cost_model(cost_model);
          ctx.set_use_value_index(value_index);
          auto bulk = EvalBulk(stored, *path, &ctx);
          ASSERT_TRUE(bulk.ok()) << bulk.status();
          EXPECT_EQ(*bulk, expect)
              << "threads=" << (pool ? pool->num_threads() : 1)
              << " cost_model=" << cost_model
              << " value_index=" << value_index;
        }
      }
    }
  }
  // The battery must exercise real answers, not agree on empty sets.
  EXPECT_GT(nonempty, 20);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BulkRowsTest, ::testing::Range<uint64_t>(1, 9));

// A predicate whose chain reaches several terminal types collects their
// witnesses type by type; here the first type's match sits in a later
// context than the second type's, so the witnesses must be merged into
// document order before the semi-join. With `pad` extra contexts the
// witnesses are few against many context rows.
TEST(BulkRowsSemiJoinTest, WitnessesOfSeveralTypesMergeInDocumentOrder) {
  for (int pad : {0, 60}) {
    SCOPED_TRACE(pad);
    std::string xml = "<r><a><y>0</y></a><a><x>1</x></a><a><y>1</y></a>";
    for (int i = 0; i < pad; ++i) xml += "<a><z/></a>";
    xml += "</r>";
    auto parsed = xml::Parse(xml);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    const storage::StoredDocument stored =
        storage::StoredDocument::Build(*parsed);
    for (const char* text : {"//a[* = \"1\"]", "//a[*/text()]/*"}) {
      SCOPED_TRACE(text);
      auto path = ParsePath(text);
      ASSERT_TRUE(path.ok());
      auto nav = EvalNav(*parsed, *path);
      ASSERT_TRUE(nav.ok());
      std::vector<num::Pbn> expect;
      for (xml::NodeId id : *nav) {
        expect.push_back(stored.numbering().OfNode(id));
      }
      auto bulk = EvalBulk(stored, *path);
      ASSERT_TRUE(bulk.ok()) << bulk.status();
      EXPECT_EQ(*bulk, expect);
    }
  }
}

// Random trees spread their instances over many small types; the auction
// site has large ones, so selective predicates there meet contexts that are
// whole types (borrowed) and survivor subsets left by an earlier step or
// predicate, and few witnesses face many context rows.
TEST(BulkRowsAuctionTest, SelectiveLookupsOverWholeTypesAndSubsets) {
  const xml::Document doc =
      workload::GenerateAuctions(workload::ScaledAuctions(0.02));
  const storage::StoredDocument stored = storage::StoredDocument::Build(doc);
  common::ThreadPool pool4(4);
  common::ThreadPool* pools[] = {nullptr, &pool4};
  int nonempty = 0;
  for (int n = 0; n < 12; ++n) {
    const std::string person = "\"person" + std::to_string(n) + "\"";
    const std::string item = "\"item" + std::to_string(n) + "\"";
    for (const std::string& text : {
             "//bidder[personref = " + person + "]/price",
             "//auction[itemref = " + item + "]/bidder/price",
             "//person[@id = " + person + "]/name",
             "//item[@id = " + item + "]/name",
             "//auction[bidder/price > 120]/bidder[personref = " + person +
                 "]/price",
             "//auction[@id != \"auction3\"]/bidder[personref = " + person +
                 "]",
             "//item[quantity >= 3][@id = " + item + "]",
             "//bidder[price > 100][personref = " + person + "]/personref",
             "//auction[bidder[personref = " + person + "]]/itemref",
         }) {
      SCOPED_TRACE(text);
      auto path = ParsePath(text);
      ASSERT_TRUE(path.ok()) << path.status();
      auto nav = EvalNav(doc, *path);
      ASSERT_TRUE(nav.ok()) << nav.status();
      std::vector<num::Pbn> expect;
      for (xml::NodeId id : *nav) {
        expect.push_back(stored.numbering().OfNode(id));
      }
      if (!expect.empty()) ++nonempty;
      for (common::ThreadPool* pool : pools) {
        for (bool cost_model : {true, false}) {
          ExecContext ctx(pool, /*collect_stats=*/true);
          ctx.set_use_cost_model(cost_model);
          auto bulk = EvalBulk(stored, *path, &ctx);
          ASSERT_TRUE(bulk.ok()) << bulk.status();
          EXPECT_EQ(*bulk, expect) << "cost_model=" << cost_model;
        }
      }
    }
  }
  EXPECT_GT(nonempty, 40);
}

}  // namespace
}  // namespace vpbn::query
