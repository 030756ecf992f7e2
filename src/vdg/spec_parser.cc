#include <cctype>

#include "vdg/spec_ast.h"

namespace vpbn::vdg {

namespace {

bool IsLabelChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-' ||
         c == '.' || c == '#' || c == ':';
}

class SpecParser {
 public:
  explicit SpecParser(std::string_view text) : text_(text) {}

  Result<Spec> Run() {
    Spec spec;
    for (;;) {
      SkipWhitespace();
      if (AtEnd()) break;
      VPBN_ASSIGN_OR_RETURN(SpecNode node, ParseItem(/*depth=*/1));
      if (node.kind != SpecNode::Kind::kLabel) {
        return Error("'*' and '**' need an enclosing label");
      }
      spec.roots.push_back(std::move(node));
    }
    if (spec.roots.empty()) return Error("empty vDataGuide specification");
    return spec;
  }

 private:
  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  void SkipWhitespace() {
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) {
      ++pos_;
    }
  }

  Status Error(const std::string& msg) const {
    return Status::ParseError("vdataguide spec, offset " +
                              std::to_string(pos_) + ": " + msg);
  }

  /// Parses one item at nesting level \p depth (top-level items are 1).
  Result<SpecNode> ParseItem(int depth) {
    if (depth > kMaxSpecDepth) {
      return Error("nesting exceeds max_depth=" +
                   std::to_string(kMaxSpecDepth));
    }
    if (Peek() == '*') {
      ++pos_;
      bool twice = !AtEnd() && Peek() == '*';
      if (twice) ++pos_;
      SkipWhitespace();
      if (!AtEnd() && Peek() == '{') {
        return Error("'*' and '**' cannot have child blocks");
      }
      return twice ? SpecNode::StarStar() : SpecNode::Star();
    }
    if (!IsLabelChar(Peek()) || Peek() == '.') {
      return Error(std::string("unexpected character '") + Peek() + "'");
    }
    size_t start = pos_;
    while (!AtEnd() && IsLabelChar(Peek())) ++pos_;
    SpecNode node;
    node.kind = SpecNode::Kind::kLabel;
    node.label = std::string(text_.substr(start, pos_ - start));
    if (node.label.back() == '.' || node.label.find("..") != std::string::npos) {
      return Error("malformed label '" + node.label + "'");
    }
    SkipWhitespace();
    if (!AtEnd() && Peek() == '{') {
      ++pos_;
      for (;;) {
        SkipWhitespace();
        if (AtEnd()) return Error("unterminated '{'");
        if (Peek() == '}') {
          ++pos_;
          break;
        }
        VPBN_ASSIGN_OR_RETURN(SpecNode child, ParseItem(depth + 1));
        node.children.push_back(std::move(child));
      }
    }
    return node;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

void NodeToString(const SpecNode& node, std::string* out) {
  switch (node.kind) {
    case SpecNode::Kind::kStar:
      out->append("*");
      return;
    case SpecNode::Kind::kStarStar:
      out->append("**");
      return;
    case SpecNode::Kind::kLabel:
      out->append(node.label);
      if (!node.children.empty()) {
        out->append(" {");
        for (const SpecNode& c : node.children) {
          out->push_back(' ');
          NodeToString(c, out);
        }
        out->append(" }");
      }
  }
}

}  // namespace

std::string Spec::ToString() const {
  std::string out;
  for (size_t i = 0; i < roots.size(); ++i) {
    if (i > 0) out.push_back(' ');
    NodeToString(roots[i], &out);
  }
  return out;
}

Result<Spec> ParseSpec(std::string_view text) { return SpecParser(text).Run(); }

}  // namespace vpbn::vdg
