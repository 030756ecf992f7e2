/// \file protocol.h
/// \brief The vpbnd line protocol: newline-delimited requests, one-line
/// JSON responses.
///
/// Request grammar (tokens separated by ASCII spaces/tabs; <path> is the
/// untokenized rest of the line, so XPath predicates may contain spaces):
///
///   QUERY <doc>[/<view>] [<option>...] <path>
///   LIST
///   RELOAD <doc>
///   STATS
///   SHUTDOWN
///
/// QUERY options (each a per-request override merged over the engine's
/// defaults — query/engine.h ExecOverrides):
///
///   --stats              attach the full ExecStats object to the response
///   --virtual-join / --no-virtual-join
///   --value-index / --no-value-index
///   --cost-model / --no-cost-model
///
/// Any other option (including the retired `--threads=N`) is a parse error.
///
/// Every response is exactly one JSON object on one line, and always leads
/// with `"code"` — the wire value of query::ErrorCode (0 ok, 1 parse,
/// 2 not_found, 3 overload, 4 internal). See docs/server.md for the full
/// response schemas.

#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "query/engine.h"
#include "query/error_code.h"

namespace vpbn::server {

/// \brief A parsed request line.
struct Request {
  enum class Verb { kQuery, kList, kReload, kStats, kShutdown };
  Verb verb = Verb::kList;
  std::string doc;                   ///< QUERY / RELOAD target
  std::string view;                  ///< optional QUERY view ("" = stored)
  std::string path;                  ///< QUERY path text
  query::ExecOverrides overrides;    ///< QUERY per-request options
};

/// \brief Parse one request line (no trailing newline). ParseError on
/// malformed input — unknown verb, missing arguments, unknown option.
Result<Request> ParseRequest(std::string_view line);

/// \name Response rendering
/// All single-line; the caller appends the '\n'.
/// @{

/// `{"code":N,"error":"<token>","message":"..."}` from a non-OK status.
std::string ErrorResponse(const Status& status);

/// `"k":"escaped"` fragment helpers for hand-assembled responses.
std::string JsonField(std::string_view key, std::string_view value);

/// `["a","b",...]` with every element escaped.
std::string JsonStringArray(const std::vector<std::string>& values);
/// @}

}  // namespace vpbn::server
