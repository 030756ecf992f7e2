/// \file path_parser.h
/// \brief Parser for the XPath subset (see path_ast.h for the grammar).

#pragma once

#include <string_view>

#include "common/result.h"
#include "query/path_ast.h"

namespace vpbn::query {

/// Deepest predicate / parenthesis / function-argument nesting ParsePath
/// accepts (the XML parser's default max_depth). Deeper input fails with a
/// ParseError instead of exhausting the stack.
inline constexpr int kMaxPathDepth = 512;

/// \brief Parse an absolute path such as
///   //book/title
///   /data/book[author/name = "C"]/title
///   //book[@year = 1994][count(author) > 1]//name/text()
Result<Path> ParsePath(std::string_view text);

}  // namespace vpbn::query
