#include "query/path_parser.h"

#include <gtest/gtest.h>

#include <string>

namespace vpbn::query {
namespace {

Path MustParse(std::string_view text) {
  auto r = ParsePath(text);
  EXPECT_TRUE(r.ok()) << text << ": " << r.status();
  return std::move(r).ValueUnsafe();
}

TEST(PathParserTest, SimpleChildSteps) {
  Path p = MustParse("/data/book/title");
  ASSERT_EQ(p.steps.size(), 3u);
  for (const Step& s : p.steps) {
    EXPECT_EQ(s.axis, num::Axis::kChild);
    EXPECT_EQ(s.test.kind, NodeTest::Kind::kName);
  }
  EXPECT_EQ(p.steps[0].test.name, "data");
  EXPECT_EQ(p.steps[2].test.name, "title");
}

TEST(PathParserTest, DoubleSlashRewritesToDescendant) {
  // '//child::X' is parsed as 'descendant::X' (equivalent without
  // positional predicates).
  Path p = MustParse("//book");
  ASSERT_EQ(p.steps.size(), 1u);
  EXPECT_EQ(p.steps[0].axis, num::Axis::kDescendant);
  EXPECT_EQ(p.steps[0].test.name, "book");
}

TEST(PathParserTest, MidPathDoubleSlash) {
  Path p = MustParse("/data//name");
  ASSERT_EQ(p.steps.size(), 2u);
  EXPECT_EQ(p.steps[1].axis, num::Axis::kDescendant);
  EXPECT_EQ(p.steps[1].test.name, "name");
}

TEST(PathParserTest, DoubleSlashWithExplicitAxisKeepsAnonymousStep) {
  Path p = MustParse("//self::book");
  ASSERT_EQ(p.steps.size(), 2u);
  EXPECT_EQ(p.steps[0].axis, num::Axis::kDescendantOrSelf);
  EXPECT_EQ(p.steps[0].test.kind, NodeTest::Kind::kAnyNode);
  EXPECT_EQ(p.steps[1].axis, num::Axis::kSelf);
}

TEST(PathParserTest, ExplicitAxes) {
  Path p = MustParse("/data/descendant::name/ancestor::book");
  ASSERT_EQ(p.steps.size(), 3u);
  EXPECT_EQ(p.steps[1].axis, num::Axis::kDescendant);
  EXPECT_EQ(p.steps[2].axis, num::Axis::kAncestor);
}

TEST(PathParserTest, AllAxisNamesAccepted) {
  for (const char* axis :
       {"self", "child", "parent", "ancestor", "descendant",
        "ancestor-or-self", "descendant-or-self", "following", "preceding",
        "following-sibling", "preceding-sibling"}) {
    std::string text = std::string("/a/") + axis + "::b";
    EXPECT_TRUE(ParsePath(text).ok()) << text;
  }
}

TEST(PathParserTest, Wildcards) {
  Path p = MustParse("/*/text()");
  EXPECT_EQ(p.steps[0].test.kind, NodeTest::Kind::kAnyElement);
  EXPECT_EQ(p.steps[1].test.kind, NodeTest::Kind::kText);
  Path q = MustParse("/a/node()");
  EXPECT_EQ(q.steps[1].test.kind, NodeTest::Kind::kAnyNode);
}

TEST(PathParserTest, DotAndDotDot) {
  Path p = MustParse("/a/../b/.");
  ASSERT_EQ(p.steps.size(), 4u);
  EXPECT_EQ(p.steps[1].axis, num::Axis::kParent);
  EXPECT_EQ(p.steps[3].axis, num::Axis::kSelf);
}

TEST(PathParserTest, ExistencePredicate) {
  Path p = MustParse("/book[author]");
  ASSERT_EQ(p.steps[0].predicates.size(), 1u);
  EXPECT_EQ(p.steps[0].predicates[0]->kind, Expr::Kind::kPath);
}

TEST(PathParserTest, ComparisonPredicates) {
  Path p = MustParse("/book[title = \"X\"][@year >= 1990]");
  ASSERT_EQ(p.steps[0].predicates.size(), 2u);
  const Expr& first = *p.steps[0].predicates[0];
  EXPECT_EQ(first.kind, Expr::Kind::kCompare);
  EXPECT_EQ(first.op, CompareOp::kEq);
  EXPECT_EQ(first.lhs->kind, Expr::Kind::kPath);
  EXPECT_EQ(first.rhs->kind, Expr::Kind::kString);
  const Expr& second = *p.steps[0].predicates[1];
  EXPECT_EQ(second.op, CompareOp::kGe);
  EXPECT_EQ(second.lhs->kind, Expr::Kind::kAttribute);
  EXPECT_EQ(second.lhs->str, "year");
  EXPECT_EQ(second.rhs->kind, Expr::Kind::kNumber);
  EXPECT_EQ(second.rhs->num, 1990);
}

TEST(PathParserTest, CountPredicate) {
  Path p = MustParse("/book[count(author) > 1]");
  const Expr& e = *p.steps[0].predicates[0];
  EXPECT_EQ(e.kind, Expr::Kind::kCompare);
  EXPECT_EQ(e.lhs->kind, Expr::Kind::kCount);
  ASSERT_EQ(e.lhs->path.steps.size(), 1u);
  EXPECT_EQ(e.lhs->path.steps[0].test.name, "author");
}

TEST(PathParserTest, BooleanConnectives) {
  Path p = MustParse("/b[title and not(publisher) or author = 'C']");
  const Expr& e = *p.steps[0].predicates[0];
  EXPECT_EQ(e.kind, Expr::Kind::kOr);
  EXPECT_EQ(e.lhs->kind, Expr::Kind::kAnd);
  EXPECT_EQ(e.lhs->rhs->kind, Expr::Kind::kNot);
}

TEST(PathParserTest, NestedPathPredicates) {
  Path p = MustParse("/book[author/name = \"C\"]/title");
  const Expr& e = *p.steps[0].predicates[0];
  ASSERT_EQ(e.lhs->path.steps.size(), 2u);
  EXPECT_EQ(e.lhs->path.steps[1].test.name, "name");
}

TEST(PathParserTest, NegativeAndDecimalNumbers) {
  Path p = MustParse("/a[x > -2][y <= 3.5]");
  EXPECT_EQ(p.steps[0].predicates[0]->rhs->num, -2);
  EXPECT_EQ(p.steps[0].predicates[1]->rhs->num, 3.5);
}

TEST(PathParserTest, Errors) {
  EXPECT_FALSE(ParsePath("").ok());
  EXPECT_FALSE(ParsePath("book").ok());  // must be absolute
  EXPECT_FALSE(ParsePath("/").ok());
  EXPECT_FALSE(ParsePath("/a[").ok());
  EXPECT_FALSE(ParsePath("/a[]").ok());
  EXPECT_FALSE(ParsePath("/a[x=\"unterminated]").ok());
  EXPECT_FALSE(ParsePath("/a/sideways::b").ok());
  EXPECT_FALSE(ParsePath("/a trailing").ok());
}

/// "//a" followed by \p depth predicates nested inside one another.
std::string NestedPredicates(int depth) {
  std::string text = "//a";
  for (int i = 0; i < depth; ++i) text += "[a";
  text.append(static_cast<size_t>(depth), ']');
  return text;
}

TEST(PathParserTest, DeepNestingFailsWithParseError) {
  // 20 000 nested predicates used to overflow the stack. Now the parser
  // stops at kMaxPathDepth with a parse error.
  auto r = ParsePath(NestedPredicates(20000));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsParseError()) << r.status();
  EXPECT_NE(r.status().message().find("max_depth"), std::string::npos)
      << r.status();
  // Parentheses and function arguments nest through the same bound.
  for (const char* open : {"(", "not("}) {
    std::string text = "//a[";
    for (int i = 0; i < 20000; ++i) text += open;
    text += "b";
    text.append(20000, ')');
    text += "]";
    auto p = ParsePath(text);
    ASSERT_FALSE(p.ok()) << open;
    EXPECT_TRUE(p.status().IsParseError()) << open << ": " << p.status();
  }
  // The bound is exact: one level past it fails.
  EXPECT_TRUE(ParsePath(NestedPredicates(kMaxPathDepth)).ok());
  EXPECT_TRUE(
      ParsePath(NestedPredicates(kMaxPathDepth + 1)).status().IsParseError());
}

TEST(PathParserTest, DepthFiveHundredStillParses) {
  Path p = MustParse(NestedPredicates(500));
  int depth = 0;
  for (const Step* step = &p.steps[0]; !step->predicates.empty();
       step = &step->predicates[0]->path.steps[0]) {
    ASSERT_EQ(step->predicates[0]->kind, Expr::Kind::kPath);
    ++depth;
  }
  EXPECT_EQ(depth, 500);
}

TEST(PathParserTest, PositionalPredicateParses) {
  // A bare number predicate is positional (evaluated dynamically, §5.1).
  auto r = ParsePath("/a[2]");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->steps[0].predicates[0]->kind, Expr::Kind::kNumber);
  EXPECT_EQ(r->steps[0].predicates[0]->num, 2);
}

TEST(PathParserTest, ToStringRenders) {
  Path p = MustParse("//book/title");
  std::string s = PathToString(p);
  EXPECT_NE(s.find("book"), std::string::npos);
  EXPECT_NE(s.find("title"), std::string::npos);
}

}  // namespace
}  // namespace vpbn::query
