/// \file xquery_test.cc
/// \brief Tests the FLWR subset and reproduces the paper's §2 pipeline:
/// Sam's transformation, Rhonda's nested query, and the virtualDoc version.

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "tests/test_util.h"
#include "xml/serializer.h"
#include "xquery/xq_engine.h"
#include "xquery/xq_parser.h"

namespace vpbn::xq {
namespace {

class XqFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    doc_ = testutil::PaperFigure2();
    ASSERT_TRUE(engine_.RegisterDocument("book.xml", &doc_).ok());
  }

  std::string MustRun(std::string_view query) {
    auto r = engine_.RunToXml(query);
    EXPECT_TRUE(r.ok()) << query << "\n" << r.status();
    return r.ValueOr("<error/>");
  }

  xml::Document doc_;
  Engine engine_;
};

TEST_F(XqFixture, DocReturnsRoots) {
  EXPECT_EQ(MustRun("doc(\"book.xml\")"),
            xml::SerializeDocument(doc_));
}

TEST_F(XqFixture, DocWithPath) {
  EXPECT_EQ(MustRun("doc(\"book.xml\")//title"),
            "<title>X</title><title>Y</title>");
}

TEST_F(XqFixture, SamsQuery) {
  // Figure 1, with the elided constructor filled in as <entry>.
  std::string result = MustRun(R"(
    for $t in doc("book.xml")//book/title
    let $a := $t/../author
    return <entry>{$t/text()}{$a}</entry>)");
  EXPECT_EQ(result,
            "<entry>X<author><name>C</name></author></entry>"
            "<entry>Y<author><name>D</name></author></entry>");
}

TEST_F(XqFixture, RhondasNestedQuery) {
  // Figure 4: Sam's query embedded as an inner query; the outer query
  // navigates the materialized result.
  std::string result = MustRun(R"(
    for $t in (for $t in doc("book.xml")//book/title
               let $a := $t/../author
               return <title>{$t/text()}{$a}</title>)//title
    return <result>{$t/text()}<count>{count($t/author)}</count></result>)");
  EXPECT_EQ(result,
            "<result>X<count>1</count></result>"
            "<result>Y<count>1</count></result>");
  // The nested form really did materialize data.
  EXPECT_GT(engine_.stats().materialized_nodes, 0u);
}

TEST_F(XqFixture, RhondasVirtualDocQuery) {
  // Figure 6: the same result through the virtual hierarchy — no nested
  // query, no materialization of the view.
  engine_.ResetStats();
  std::string result = MustRun(R"(
    for $t in virtualDoc("book.xml", "title { author { name } }")//title
    return <result>{$t/text()}<count>{count($t/author)}</count></result>)");
  EXPECT_EQ(result,
            "<result>X<count>1</count></result>"
            "<result>Y<count>1</count></result>");
}

TEST_F(XqFixture, VirtualDocRootsSerializeAsVirtualValues) {
  std::string result =
      MustRun("virtualDoc(\"book.xml\", \"title { author { name } }\")");
  EXPECT_EQ(result,
            "<title>X<author><name>C</name></author></title>"
            "<title>Y<author><name>D</name></author></title>");
}

TEST_F(XqFixture, VirtualNodeNavigationStaysVirtual) {
  std::string result = MustRun(R"(
    for $a in virtualDoc("book.xml", "title { author { name } }")//author
    return <a>{$a/name/text()}</a>)");
  EXPECT_EQ(result, "<a>C</a><a>D</a>");
}

TEST_F(XqFixture, WhereClause) {
  std::string result = MustRun(R"(
    for $b in doc("book.xml")//book
    where $b/title = "Y"
    return <hit>{$b/author/name/text()}</hit>)");
  EXPECT_EQ(result, "<hit>D</hit>");
}

TEST_F(XqFixture, WhereWithConnectives) {
  std::string result = MustRun(R"(
    for $b in doc("book.xml")//book
    where $b/title = "X" or $b/title = "Y" and not($b/title = "Z")
    return <t>{$b/title/text()}</t>)");
  EXPECT_EQ(result, "<t>X</t><t>Y</t>");
}

TEST_F(XqFixture, MultipleForsCrossProduct) {
  std::string result = MustRun(R"(
    for $t in doc("book.xml")//title, $n in doc("book.xml")//name
    return <pair>{$t/text()}{$n/text()}</pair>)");
  EXPECT_EQ(result,
            "<pair>XC</pair><pair>XD</pair><pair>YC</pair><pair>YD</pair>");
}

TEST_F(XqFixture, LetBindsSequence) {
  std::string result = MustRun(R"(
    let $all := doc("book.xml")//name
    return <n>{count($all)}</n>)");
  EXPECT_EQ(result, "<n>2</n>");
}

TEST_F(XqFixture, CountOfPath) {
  EXPECT_EQ(MustRun("count(doc(\"book.xml\")//author)"), "2");
}

TEST_F(XqFixture, NestedConstructors) {
  std::string result = MustRun(R"(
    for $b in doc("book.xml")/data/book
    return <book><t>{$b/title/text()}</t><who><n>{$b/author/name/text()}</n></who></book>)");
  EXPECT_EQ(result,
            "<book><t>X</t><who><n>C</n></who></book>"
            "<book><t>Y</t><who><n>D</n></who></book>");
}

TEST_F(XqFixture, ConstructorAttributes) {
  std::string result = MustRun(R"(
    for $t in doc("book.xml")//title
    return <entry kind="title">{$t/text()}</entry>)");
  EXPECT_EQ(result,
            "<entry kind=\"title\">X</entry><entry kind=\"title\">Y</entry>");
}

TEST_F(XqFixture, StringAndNumberLiterals) {
  EXPECT_EQ(MustRun("\"hello\""), "hello");
  EXPECT_EQ(MustRun("42"), "42");
}

TEST_F(XqFixture, Errors) {
  Engine& e = engine_;
  EXPECT_FALSE(e.Run("doc(\"missing.xml\")//a").ok());
  EXPECT_FALSE(e.Run("for $x in").ok());
  EXPECT_FALSE(e.Run("$unbound").ok());
  EXPECT_FALSE(e.Run("virtualDoc(\"book.xml\", \"nosuch\")//x").ok());
  EXPECT_FALSE(e.Run("for $x in doc(\"book.xml\")//a return").ok());
}

/// \p depth copies of \p open around \p inner, closed by \p close.
std::string Nested(int depth, std::string_view open, std::string_view inner,
                   std::string_view close) {
  std::string text;
  for (int i = 0; i < depth; ++i) text += open;
  text += inner;
  for (int i = 0; i < depth; ++i) text += close;
  return text;
}

TEST(XqParserTest, DeepNestingFailsWithParseError) {
  const std::vector<std::string> deep = {
      Nested(10000, "(", "1", ")"),
      Nested(10000, "<a>", "x", "</a>"),
      Nested(10000, "<a>{", "1", "}</a>"),
      Nested(10000, "count(", "doc(\"d\")", ")"),
  };
  for (const std::string& q : deep) {
    auto r = ParseQuery(q);
    ASSERT_FALSE(r.ok()) << q.substr(0, 20);
    EXPECT_TRUE(r.status().IsParseError()) << r.status();
    EXPECT_NE(r.status().message().find("max_depth"), std::string::npos)
        << r.status();
  }
  EXPECT_TRUE(ParseQuery(Nested(500, "(", "1", ")")).ok());
  EXPECT_TRUE(ParseQuery(Nested(500, "<a>", "x", "</a>")).ok());
  EXPECT_TRUE(ParseQuery(Nested(250, "<a>{", "1", "}</a>")).ok());
}

TEST_F(XqFixture, RegisterDuplicateFails) {
  EXPECT_FALSE(engine_.RegisterDocument("book.xml", &doc_).ok());
  EXPECT_FALSE(engine_.RegisterDocument("null.xml", nullptr).ok());
}

TEST_F(XqFixture, StoredAccessorExposesIndexes) {
  auto stored = engine_.Stored("book.xml");
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ((*stored)->numbering().size(), doc_.num_nodes());
  EXPECT_TRUE(engine_.Stored("missing").status().IsNotFound());
}

TEST_F(XqFixture, ViewCacheReusesVirtualDocuments) {
  // Two queries against the same spec reuse one view: stats only count
  // fresh work, and both return identical results.
  const char* q = R"(
      for $t in virtualDoc("book.xml", "title { author { name } }")//title
      return <t>{$t/text()}</t>)";
  auto first = engine_.RunToXml(q);
  auto second = engine_.RunToXml(q);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);
}

TEST_F(XqFixture, NestedVersusVirtualAgreeOnLargerData) {
  // The two strategies of Figures 4 and 6 must produce identical output.
  std::string nested = MustRun(R"(
    for $t in (for $t in doc("book.xml")//book/title
               let $a := $t/../author
               return <title>{$t/text()}{$a}</title>)//title
    return <r>{$t/text()}<c>{count($t/author)}</c></r>)");
  std::string virtual_form = MustRun(R"(
    for $t in virtualDoc("book.xml", "title { author { name } }")//title
    return <r>{$t/text()}<c>{count($t/author)}</c></r>)");
  EXPECT_EQ(nested, virtual_form);
}

TEST_F(XqFixture, PaperFigure5OtherInformation) {
  // §2's "other information" transformation: everything except title and
  // author, expressed naturally with a vDataGuide instead of Figure 5's
  // laborious element-by-element reconstruction.
  std::string result = MustRun(
      "virtualDoc(\"book.xml\", \"book { publisher { location } }\")");
  EXPECT_EQ(result,
            "<book><publisher><location>W</location></publisher></book>"
            "<book><publisher><location>M</location></publisher></book>");
}

}  // namespace
}  // namespace vpbn::xq
