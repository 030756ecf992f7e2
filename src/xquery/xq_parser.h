/// \file xq_parser.h
/// \brief Parser for the FLWR subset (grammar in xq_ast.h).

#pragma once

#include <memory>
#include <string_view>

#include "common/result.h"
#include "query/path_parser.h"
#include "xquery/xq_ast.h"

namespace vpbn::xq {

/// Deepest nesting of parentheses, function arguments, enclosed
/// expressions, FLWR clauses and element constructors ParseQuery accepts
/// (the XPath bound; paths inside a query are bounded by ParsePath
/// itself). Deeper input fails with a ParseError instead of exhausting the
/// stack.
inline constexpr int kMaxQueryDepth = query::kMaxPathDepth;

/// \brief Parse a query. Errors carry the offending offset.
Result<std::unique_ptr<XqExpr>> ParseQuery(std::string_view text);

}  // namespace vpbn::xq
