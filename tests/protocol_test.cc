/// \file protocol_test.cc
/// \brief The vpbnd line protocol: request grammar, option parsing, error
/// responses, and the ErrorCode taxonomy's Status mapping.

#include "server/protocol.h"

#include <gtest/gtest.h>

#include "query/error_code.h"

namespace vpbn::server {
namespace {

TEST(ProtocolTest, ParsesQueryWithDocAndPath) {
  auto r = ParseRequest("QUERY books //book/title");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->verb, Request::Verb::kQuery);
  EXPECT_EQ(r->doc, "books");
  EXPECT_EQ(r->view, "");
  EXPECT_EQ(r->path, "//book/title");
}

TEST(ProtocolTest, ParsesDocSlashView) {
  auto r = ParseRequest("QUERY books/by_author //author");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->doc, "books");
  EXPECT_EQ(r->view, "by_author");
}

TEST(ProtocolTest, PathKeepsInternalSpaces) {
  auto r = ParseRequest("QUERY books //book[title = \"A B\"]/price");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->path, "//book[title = \"A B\"]/price");

  // Trailing whitespace (including a CR from a naive netcat) is trimmed.
  auto crlf = ParseRequest("QUERY books //title \r");
  ASSERT_TRUE(crlf.ok());
  EXPECT_EQ(crlf->path, "//title");
}

TEST(ProtocolTest, ParsesQueryOptions) {
  auto r = ParseRequest(
      "QUERY books --stats --no-virtual-join --value-index //book");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->overrides.collect_stats, true);
  EXPECT_EQ(r->overrides.virtual_join, false);
  EXPECT_EQ(r->overrides.use_value_index, true);
  EXPECT_EQ(r->path, "//book");

  // No options: every override stays unset (falls through to defaults).
  auto bare = ParseRequest("QUERY books //book");
  ASSERT_TRUE(bare.ok());
  EXPECT_FALSE(bare->overrides.collect_stats.has_value());
}

TEST(ProtocolTest, RejectsMalformedRequests) {
  for (const char* line : {
           "",                         // empty
           "FROB books //x",           // unknown verb
           "QUERY",                    // no target
           "QUERY books",              // no path
           "QUERY books --stats",      // options but no path
           "QUERY books --frobnicate //b",
           "QUERY books/ //b",         // empty view
           "QUERY /v //b",             // empty doc
           "QUERY a/b/c //b",          // view with slash
           "LIST books",               // LIST takes no args
           "STATS now",
           "SHUTDOWN now",
           "RELOAD",                   // RELOAD needs a doc
           "RELOAD a b",
       }) {
    SCOPED_TRACE(line);
    auto r = ParseRequest(line);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsParseError()) << r.status();
  }
}

TEST(ProtocolTest, ParsesControlVerbs) {
  EXPECT_EQ(ParseRequest("LIST")->verb, Request::Verb::kList);
  EXPECT_EQ(ParseRequest("STATS")->verb, Request::Verb::kStats);
  EXPECT_EQ(ParseRequest("SHUTDOWN")->verb, Request::Verb::kShutdown);
  auto r = ParseRequest("RELOAD books");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->verb, Request::Verb::kReload);
  EXPECT_EQ(r->doc, "books");
}

TEST(ProtocolTest, ErrorResponseLeadsWithWireCode) {
  std::string parse = ErrorResponse(Status::ParseError("bad `path`"));
  EXPECT_EQ(parse.rfind("{\"code\":1,\"error\":\"parse\"", 0), 0u) << parse;

  std::string nf = ErrorResponse(Status::NotFound("no doc"));
  EXPECT_EQ(nf.rfind("{\"code\":2,\"error\":\"not_found\"", 0), 0u) << nf;

  std::string shed = ErrorResponse(Status::ResourceExhausted("busy"));
  EXPECT_EQ(shed.rfind("{\"code\":3,\"error\":\"overload\"", 0), 0u) << shed;

  std::string internal = ErrorResponse(Status::Internal("boom"));
  EXPECT_EQ(internal.rfind("{\"code\":4,\"error\":\"internal\"", 0), 0u)
      << internal;

  // Messages are JSON-escaped.
  std::string quoted = ErrorResponse(Status::ParseError("a \"b\" c"));
  EXPECT_NE(quoted.find("a \\\"b\\\" c"), std::string::npos) << quoted;
}

TEST(ErrorCodeTest, StatusMappingIsTotal) {
  using query::ErrorCode;
  using query::ErrorCodeFromStatus;
  EXPECT_EQ(ErrorCodeFromStatus(Status::OK()), ErrorCode::kOk);
  EXPECT_EQ(ErrorCodeFromStatus(Status::ParseError("x")), ErrorCode::kParse);
  EXPECT_EQ(ErrorCodeFromStatus(Status::InvalidArgument("x")),
            ErrorCode::kParse);
  EXPECT_EQ(ErrorCodeFromStatus(Status::NotFound("x")), ErrorCode::kNotFound);
  EXPECT_EQ(ErrorCodeFromStatus(Status::ResourceExhausted("x")),
            ErrorCode::kOverload);
  EXPECT_EQ(ErrorCodeFromStatus(Status::Internal("x")), ErrorCode::kInternal);
  EXPECT_EQ(ErrorCodeFromStatus(Status::NotImplemented("x")),
            ErrorCode::kInternal);
}

TEST(ErrorCodeTest, WireValuesAreStable) {
  using query::ErrorCode;
  // These integers are the wire protocol; changing one breaks clients.
  EXPECT_EQ(static_cast<int>(ErrorCode::kOk), 0);
  EXPECT_EQ(static_cast<int>(ErrorCode::kParse), 1);
  EXPECT_EQ(static_cast<int>(ErrorCode::kNotFound), 2);
  EXPECT_EQ(static_cast<int>(ErrorCode::kOverload), 3);
  EXPECT_EQ(static_cast<int>(ErrorCode::kInternal), 4);
  EXPECT_STREQ(query::ErrorCodeToString(ErrorCode::kOverload), "overload");
}

TEST(ProtocolTest, JsonHelpers) {
  EXPECT_EQ(JsonField("k", "a\"b"), "\"k\":\"a\\\"b\"");
  EXPECT_EQ(JsonStringArray({}), "[]");
  EXPECT_EQ(JsonStringArray({"a", "b\\c"}), "[\"a\",\"b\\\\c\"]");
}

}  // namespace
}  // namespace vpbn::server
