#include "vpbn/virtual_value.h"

#include <gtest/gtest.h>

#include "storage/snapshot.h"
#include "tests/test_util.h"
#include "vpbn/materializer.h"
#include "xml/serializer.h"

namespace vpbn::virt {
namespace {

struct Fixture {
  xml::Document doc;
  storage::StoredDocument stored;

  Fixture()
      : doc(testutil::PaperFigure2()),
        stored(storage::StoredDocument::Build(doc)) {}

  VirtualDocument Open(std::string_view spec) {
    auto v = VirtualDocument::Open(stored, spec);
    EXPECT_TRUE(v.ok()) << v.status();
    return std::move(v).ValueUnsafe();
  }
};

TEST(VirtualValueTest, SamTitleValue) {
  Fixture f;
  VirtualDocument v = f.Open(testutil::SamSpec());
  VirtualValueComputer values(v);
  std::vector<VirtualNode> roots = v.Roots();
  // The transformed value of the first title (Figure 3's left tree).
  EXPECT_EQ(values.Value(roots[0]),
            "<title>X<author><name>C</name></author></title>");
  EXPECT_EQ(values.Value(roots[1]),
            "<title>Y<author><name>D</name></author></title>");
}

TEST(VirtualValueTest, ValueMatchesMaterializedSerialization) {
  Fixture f;
  const char* specs[] = {
      "data { ** }",
      "title { author { name } }",
      "name { author }",
      "book { location title }",
      "title { publisher { location } }",
  };
  for (const char* spec : specs) {
    VirtualDocument v = f.Open(spec);
    VirtualValueComputer values(v);
    auto m = Materialize(v);
    ASSERT_TRUE(m.ok());
    std::string all;
    for (const VirtualNode& root : v.Roots()) {
      all += values.Value(root);
    }
    EXPECT_EQ(all, xml::SerializeDocument(m->doc)) << spec;
  }
}

TEST(VirtualValueTest, IdentityIsIntactEverywhere) {
  Fixture f;
  VirtualDocument v = f.Open("data { ** }");
  VirtualValueComputer values(v);
  for (vdg::VTypeId t = 0; t < v.vguide().num_vtypes(); ++t) {
    EXPECT_TRUE(values.IsIntact(t)) << v.vguide().vpath(t);
  }
  // The whole value is served as a single range copy.
  std::vector<VirtualNode> roots = v.Roots();
  EXPECT_EQ(values.Value(roots[0]), f.stored.stored_string());
  EXPECT_EQ(values.stats().range_copies, 1u);
  EXPECT_EQ(values.stats().constructed_nodes, 0u);
}

TEST(VirtualValueTest, TransformedTypesAreNotIntact) {
  Fixture f;
  VirtualDocument v = f.Open(testutil::SamSpec());
  VirtualValueComputer values(v);
  auto title = v.vguide().FindByVPath("title").value();
  auto author = v.vguide().FindByVPath("title.author").value();
  auto name = v.vguide().FindByVPath("title.author.name").value();
  EXPECT_FALSE(values.IsIntact(title));   // gained an author child
  EXPECT_TRUE(values.IsIntact(author));   // author subtree unchanged
  EXPECT_TRUE(values.IsIntact(name));
}

TEST(VirtualValueTest, IntactSubtreesServedFromRanges) {
  Fixture f;
  VirtualDocument v = f.Open(testutil::SamSpec());
  VirtualValueComputer values(v);
  std::vector<VirtualNode> roots = v.Roots();
  values.Value(roots[0]);
  // title is constructed; its text child and the author subtree are both
  // intact and come from the value index as single copies.
  EXPECT_EQ(values.stats().range_copies, 2u);
  EXPECT_EQ(values.stats().constructed_nodes, 1u);
}

TEST(VirtualValueTest, TextNodeValueIsEscapedText) {
  auto parsed = xml::Parse("<data><book><title>A &amp; B</title>"
                           "<author><name>N</name></author></book></data>");
  ASSERT_TRUE(parsed.ok());
  auto stored = storage::StoredDocument::Build(*parsed);
  auto v = VirtualDocument::Open(stored, "title { author }");
  ASSERT_TRUE(v.ok());
  VirtualValueComputer values(*v);
  std::vector<VirtualNode> roots = v->Roots();
  std::vector<VirtualNode> kids = v->Children(roots[0]);
  ASSERT_FALSE(kids.empty());
  EXPECT_EQ(values.Value(kids[0]), "A &amp; B");
}

TEST(VirtualValueTest, SnapshotLoadedDocumentServesTheSameValues) {
  // Intact values are sliced by node id, so a snapshot-loaded document
  // (whose number-to-node map is hydrated only on demand) answers them
  // byte-identically to the built one, through both value entry points.
  Fixture f;
  auto loaded =
      storage::Snapshot::Load(storage::Snapshot::Write(f.stored));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  for (const char* spec :
       {"data { ** }", "title { author { name } }", "book { location title }"}) {
    auto built_view = VirtualDocument::Open(f.stored, spec);
    auto loaded_view = VirtualDocument::Open(*loaded, spec);
    ASSERT_TRUE(built_view.ok() && loaded_view.ok()) << spec;
    VirtualValueComputer built_values(*built_view);
    VirtualValueComputer loaded_values(*loaded_view);
    std::vector<VirtualNode> pending = loaded_view->Roots();
    ASSERT_EQ(pending, built_view->Roots()) << spec;
    size_t views = 0;
    while (!pending.empty()) {
      VirtualNode n = pending.back();
      pending.pop_back();
      EXPECT_EQ(loaded_values.Value(n), built_values.Value(n)) << spec;
      std::string_view a, b;
      const bool intact = loaded_values.ValueView(n, &a);
      EXPECT_EQ(intact, built_values.ValueView(n, &b)) << spec;
      if (intact) {
        EXPECT_EQ(a, b) << spec;
        EXPECT_EQ(a, loaded->ValueOfNode(n.node)) << spec;
        ++views;
      }
      for (const VirtualNode& c : loaded_view->Children(n)) {
        pending.push_back(c);
      }
    }
    EXPECT_GT(views, 0u) << spec;
  }
}

TEST(VirtualValueTest, StatsReset) {
  Fixture f;
  VirtualDocument v = f.Open("data { ** }");
  VirtualValueComputer values(v);
  values.Value(v.Roots()[0]);
  EXPECT_GT(values.stats().range_copies + values.stats().constructed_nodes,
            0u);
  values.ResetStats();
  EXPECT_EQ(values.stats().range_copies, 0u);
  EXPECT_EQ(values.stats().constructed_nodes, 0u);
}

}  // namespace
}  // namespace vpbn::virt
