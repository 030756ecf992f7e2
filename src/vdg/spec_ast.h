/// \file spec_ast.h
/// \brief AST for the vDataGuide specification grammar (§4.1).
///
/// The paper's grammar:
///     S ← label P
///     P ← { L } | ε
///     L ← D L | ε
///     D ← * | ** | label P
///
/// `label` is a name or (dot-)qualified type of the original DataGuide;
/// `*` expands to the children of the enclosing label that are not mentioned
/// elsewhere in the vDataGuide; `**` expands to its descendants.

#pragma once

#include <string>
#include <vector>

#include "common/result.h"

namespace vpbn::vdg {

/// \brief One node of the parsed specification.
struct SpecNode {
  enum class Kind : uint8_t {
    kLabel,     ///< a (possibly qualified) label, with optional children
    kStar,      ///< `*`  — unmentioned children of the enclosing label
    kStarStar,  ///< `**` — descendants of the enclosing label
  };

  Kind kind = Kind::kLabel;
  std::string label;                // only for kLabel
  std::vector<SpecNode> children;   // only for kLabel

  static SpecNode Star() { return SpecNode{Kind::kStar, "", {}}; }
  static SpecNode StarStar() { return SpecNode{Kind::kStarStar, "", {}}; }
};

/// \brief A parsed specification: one or more top-level labelled trees.
struct Spec {
  std::vector<SpecNode> roots;

  /// Render back to the grammar's concrete syntax (normalized whitespace).
  std::string ToString() const;
};

/// Deepest label nesting ParseSpec accepts (the XML parser's default
/// max_depth). Deeper input can never parse, so it fails with a ParseError
/// instead of exhausting the stack.
inline constexpr int kMaxSpecDepth = 512;

/// \brief Parse the concrete syntax. Errors carry the offending position.
Result<Spec> ParseSpec(std::string_view text);

}  // namespace vpbn::vdg
