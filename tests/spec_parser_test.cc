#include <gtest/gtest.h>

#include "vdg/spec_ast.h"

namespace vpbn::vdg {
namespace {

Spec MustParse(std::string_view text) {
  auto r = ParseSpec(text);
  EXPECT_TRUE(r.ok()) << r.status();
  return std::move(r).ValueUnsafe();
}

TEST(SpecParserTest, SingleLabel) {
  Spec s = MustParse("title");
  ASSERT_EQ(s.roots.size(), 1u);
  EXPECT_EQ(s.roots[0].kind, SpecNode::Kind::kLabel);
  EXPECT_EQ(s.roots[0].label, "title");
  EXPECT_TRUE(s.roots[0].children.empty());
}

TEST(SpecParserTest, PaperSamSpec) {
  // §2: title { author { name } }
  Spec s = MustParse("title { author { name } }");
  ASSERT_EQ(s.roots.size(), 1u);
  const SpecNode& title = s.roots[0];
  EXPECT_EQ(title.label, "title");
  ASSERT_EQ(title.children.size(), 1u);
  const SpecNode& author = title.children[0];
  EXPECT_EQ(author.label, "author");
  ASSERT_EQ(author.children.size(), 1u);
  EXPECT_EQ(author.children[0].label, "name");
}

TEST(SpecParserTest, PaperIdentitySpec) {
  // §4.1's long identity form.
  Spec s = MustParse(
      "data { book { title author { name } publisher { location } } }");
  const SpecNode& data = s.roots[0];
  ASSERT_EQ(data.children.size(), 1u);
  const SpecNode& book = data.children[0];
  ASSERT_EQ(book.children.size(), 3u);
  EXPECT_EQ(book.children[0].label, "title");
  EXPECT_EQ(book.children[1].label, "author");
  EXPECT_EQ(book.children[2].label, "publisher");
}

TEST(SpecParserTest, StarAndStarStar) {
  // §4.1's short identity form: data { ** }.
  Spec s = MustParse("data { ** }");
  ASSERT_EQ(s.roots[0].children.size(), 1u);
  EXPECT_EQ(s.roots[0].children[0].kind, SpecNode::Kind::kStarStar);

  Spec s2 = MustParse("book { * }");
  EXPECT_EQ(s2.roots[0].children[0].kind, SpecNode::Kind::kStar);

  Spec s3 = MustParse("book { title * }");
  ASSERT_EQ(s3.roots[0].children.size(), 2u);
  EXPECT_EQ(s3.roots[0].children[0].kind, SpecNode::Kind::kLabel);
  EXPECT_EQ(s3.roots[0].children[1].kind, SpecNode::Kind::kStar);
}

TEST(SpecParserTest, QualifiedLabels) {
  // "x.y specifies a different type than x.z.y".
  Spec s = MustParse("x.y { x.z.y }");
  EXPECT_EQ(s.roots[0].label, "x.y");
  EXPECT_EQ(s.roots[0].children[0].label, "x.z.y");
}

TEST(SpecParserTest, TextLabel) {
  Spec s = MustParse("title { title.#text }");
  EXPECT_EQ(s.roots[0].children[0].label, "title.#text");
}

TEST(SpecParserTest, MultipleRoots) {
  Spec s = MustParse("title author");
  ASSERT_EQ(s.roots.size(), 2u);
  EXPECT_EQ(s.roots[0].label, "title");
  EXPECT_EQ(s.roots[1].label, "author");
}

TEST(SpecParserTest, WhitespaceInsensitive) {
  Spec compact = MustParse("a{b{c}d}");
  Spec spaced = MustParse("  a  {\n  b {\tc } d\n} ");
  EXPECT_EQ(compact.ToString(), spaced.ToString());
}

TEST(SpecParserTest, ToStringRoundTrips) {
  const char* specs[] = {
      "title { author { name } }",
      "data { ** }",
      "book { title * }",
      "x.y { x.z.y } other",
  };
  for (const char* text : specs) {
    Spec s = MustParse(text);
    Spec reparsed = MustParse(s.ToString());
    EXPECT_EQ(reparsed.ToString(), s.ToString()) << text;
  }
}

TEST(SpecParserTest, Errors) {
  EXPECT_TRUE(ParseSpec("").status().IsParseError());
  EXPECT_TRUE(ParseSpec("   ").status().IsParseError());
  EXPECT_TRUE(ParseSpec("{ a }").status().IsParseError());
  EXPECT_TRUE(ParseSpec("a { b").status().IsParseError());
  EXPECT_TRUE(ParseSpec("a }").status().IsParseError());
  EXPECT_TRUE(ParseSpec("*").status().IsParseError());
  EXPECT_TRUE(ParseSpec("**").status().IsParseError());
  EXPECT_TRUE(ParseSpec("a { * { b } }").status().IsParseError());
  EXPECT_TRUE(ParseSpec("a..b").status().IsParseError());
  EXPECT_TRUE(ParseSpec("a.").status().IsParseError());
}

TEST(SpecParserTest, DeepNestingBounded) {
  // `levels` nested labels: a { a { ... b ... } }.
  auto nested = [](int levels) {
    std::string deep;
    for (int i = 1; i < levels; ++i) deep += "a {";
    deep += "b";
    for (int i = 1; i < levels; ++i) deep += "}";
    return deep;
  };
  // Input that can never parse is a parse error, not a retryable overload.
  auto r = ParseSpec(nested(kMaxSpecDepth + 1));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsParseError()) << r.status();
  EXPECT_NE(r.status().message().find("max_depth"), std::string::npos)
      << r.status();
  EXPECT_TRUE(ParseSpec(nested(20000)).status().IsParseError());
  EXPECT_TRUE(ParseSpec(nested(kMaxSpecDepth)).ok());
}

}  // namespace
}  // namespace vpbn::vdg
