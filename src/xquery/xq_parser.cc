#include "xquery/xq_parser.h"

#include <cctype>
#include <charconv>

#include "query/path_parser.h"

namespace vpbn::xq {

namespace {

class XqParser {
 public:
  explicit XqParser(std::string_view text) : text_(text) {}

  Result<std::unique_ptr<XqExpr>> Run() {
    VPBN_ASSIGN_OR_RETURN(std::unique_ptr<XqExpr> q, ParseQueryExpr());
    SkipWhitespace();
    if (!AtEnd()) return Error("trailing input after query");
    return q;
  }

 private:
  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return AtEnd() ? '\0' : text_[pos_]; }
  char PeekAt(size_t off) const {
    return pos_ + off < text_.size() ? text_[pos_ + off] : '\0';
  }
  void SkipWhitespace() {
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) {
      ++pos_;
    }
  }
  bool Consume(char c) {
    if (Peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  static bool IsWordChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
  }
  /// Consumes the keyword \p w only at a word boundary.
  bool ConsumeKeyword(std::string_view w) {
    SkipWhitespace();
    if (text_.substr(pos_, w.size()) != w) return false;
    if (pos_ + w.size() < text_.size() && IsWordChar(text_[pos_ + w.size()])) {
      return false;
    }
    pos_ += w.size();
    return true;
  }
  bool PeekKeyword(std::string_view w) {
    size_t save = pos_;
    bool ok = ConsumeKeyword(w);
    pos_ = save;
    return ok;
  }
  Status Error(const std::string& msg) const {
    return Status::ParseError("xquery, offset " + std::to_string(pos_) +
                              ": " + msg);
  }

  Result<std::string> ParseStringLiteral() {
    SkipWhitespace();
    if (Peek() != '"' && Peek() != '\'') return Error("expected a string");
    char quote = Peek();
    ++pos_;
    size_t start = pos_;
    while (!AtEnd() && Peek() != quote) ++pos_;
    if (AtEnd()) return Error("unterminated string");
    std::string out(text_.substr(start, pos_ - start));
    ++pos_;
    return out;
  }

  Result<std::string> ParseVarName() {
    SkipWhitespace();
    if (!Consume('$')) return Error("expected '$'");
    size_t start = pos_;
    while (!AtEnd() && IsWordChar(Peek())) ++pos_;
    if (pos_ == start) return Error("expected a variable name after '$'");
    return std::string(text_.substr(start, pos_ - start));
  }

  /// Scans a path starting at '/', tracking brackets and quotes, and parses
  /// it with the XPath parser.
  Result<query::Path> ScanPath() {
    size_t start = pos_;
    int brackets = 0;
    int parens = 0;  // text()/node() parens opened by the path itself
    char quote = '\0';
    while (!AtEnd()) {
      char c = Peek();
      if (quote != '\0') {
        if (c == quote) quote = '\0';
        ++pos_;
        continue;
      }
      if (c == '"' || c == '\'') {
        quote = c;
        ++pos_;
        continue;
      }
      if (c == '[') {
        ++brackets;
        ++pos_;
        continue;
      }
      if (c == ']') {
        if (brackets == 0) break;
        --brackets;
        ++pos_;
        continue;
      }
      if (brackets > 0) {
        ++pos_;
        continue;
      }
      // Outside predicates a path token continues through name characters,
      // steps, axes and wildcards.
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '/' ||
          c == '_' || c == '-' || c == '.' || c == ':' || c == '*' ||
          c == '@' || c == '#') {
        ++pos_;
        continue;
      }
      if (c == '(') {
        // '(' only continues text()/node(); otherwise it belongs to the
        // surrounding XQuery syntax.
        std::string_view sofar = text_.substr(start, pos_ - start);
        if (!(sofar.ends_with("text") || sofar.ends_with("node"))) break;
        ++parens;
        ++pos_;
        continue;
      }
      if (c == ')') {
        if (parens == 0) break;  // closes an XQuery group, not ours
        --parens;
        ++pos_;
        continue;
      }
      break;
    }
    std::string_view path_text = text_.substr(start, pos_ - start);
    return query::ParsePath(path_text);
  }

  /// Optional trailing path after a source expression.
  Status MaybePath(XqExpr* expr) {
    // No whitespace skipping: the path must be adjacent, as in $t/../author.
    if (Peek() == '/') {
      VPBN_ASSIGN_OR_RETURN(expr->path, ScanPath());
      expr->has_path = true;
    }
    return Status::OK();
  }

  /// RAII nesting counter for the recursive descent.
  struct DepthGuard {
    explicit DepthGuard(int* depth) : depth(depth) { ++*depth; }
    ~DepthGuard() { --*depth; }
    int* depth;
  };

  /// Every nesting construct — a parenthesis, a function argument, an
  /// enclosed `{expr}`, a FLWR clause — recurses through ParseQueryExpr,
  /// and nested element constructors through ParseElemCtor; both count
  /// against one bound so deep input fails with a parse error instead of
  /// exhausting the stack (the input can never succeed).
  Status EnterNesting() {
    if (depth_ >= kMaxQueryDepth) {
      return Error("nesting exceeds max_depth=" +
                   std::to_string(kMaxQueryDepth));
    }
    return Status::OK();
  }

  Result<std::unique_ptr<XqExpr>> ParseQueryExpr() {
    VPBN_RETURN_NOT_OK(EnterNesting());
    DepthGuard guard(&depth_);
    SkipWhitespace();
    if (PeekKeyword("for") || PeekKeyword("let")) return ParseFlwr();
    return ParseOrExpr();
  }

  Result<std::unique_ptr<XqExpr>> ParseFlwr() {
    auto flwr = std::make_unique<XqExpr>();
    flwr->kind = XqExpr::Kind::kFlwr;
    for (;;) {
      if (ConsumeKeyword("for")) {
        for (;;) {
          Binding b;
          VPBN_ASSIGN_OR_RETURN(b.var, ParseVarName());
          if (!ConsumeKeyword("in")) return Error("expected 'in'");
          VPBN_ASSIGN_OR_RETURN(b.expr, ParseOrExpr());
          flwr->fors.push_back(std::move(b));
          SkipWhitespace();
          if (!Consume(',')) break;
        }
        continue;
      }
      if (ConsumeKeyword("let")) {
        for (;;) {
          Binding b;
          VPBN_ASSIGN_OR_RETURN(b.var, ParseVarName());
          SkipWhitespace();
          if (!(Consume(':') && Consume('='))) return Error("expected ':='");
          VPBN_ASSIGN_OR_RETURN(b.expr, ParseOrExpr());
          flwr->lets.push_back(std::move(b));
          SkipWhitespace();
          if (!Consume(',')) break;
        }
        continue;
      }
      break;
    }
    if (flwr->fors.empty() && flwr->lets.empty()) {
      return Error("expected 'for' or 'let'");
    }
    if (ConsumeKeyword("where")) {
      VPBN_ASSIGN_OR_RETURN(flwr->where, ParseOrExpr());
    }
    if (ConsumeKeyword("order")) {
      if (!ConsumeKeyword("by")) return Error("expected 'by' after 'order'");
      VPBN_ASSIGN_OR_RETURN(flwr->order_by, ParseOrExpr());
      if (ConsumeKeyword("descending")) {
        flwr->order_descending = true;
      } else {
        ConsumeKeyword("ascending");  // optional, the default
      }
    }
    if (!ConsumeKeyword("return")) return Error("expected 'return'");
    VPBN_ASSIGN_OR_RETURN(flwr->ret, ParseQueryExpr());
    return flwr;
  }

  Result<std::unique_ptr<XqExpr>> ParseOrExpr() {
    VPBN_ASSIGN_OR_RETURN(std::unique_ptr<XqExpr> lhs, ParseAndExpr());
    while (ConsumeKeyword("or")) {
      VPBN_ASSIGN_OR_RETURN(std::unique_ptr<XqExpr> rhs, ParseAndExpr());
      auto node = std::make_unique<XqExpr>();
      node->kind = XqExpr::Kind::kOr;
      node->lhs = std::move(lhs);
      node->rhs = std::move(rhs);
      lhs = std::move(node);
    }
    return lhs;
  }

  Result<std::unique_ptr<XqExpr>> ParseAndExpr() {
    VPBN_ASSIGN_OR_RETURN(std::unique_ptr<XqExpr> lhs, ParseCompare());
    while (ConsumeKeyword("and")) {
      VPBN_ASSIGN_OR_RETURN(std::unique_ptr<XqExpr> rhs, ParseCompare());
      auto node = std::make_unique<XqExpr>();
      node->kind = XqExpr::Kind::kAnd;
      node->lhs = std::move(lhs);
      node->rhs = std::move(rhs);
      lhs = std::move(node);
    }
    return lhs;
  }

  Result<std::unique_ptr<XqExpr>> ParseCompare() {
    VPBN_ASSIGN_OR_RETURN(std::unique_ptr<XqExpr> lhs, ParsePrimary());
    SkipWhitespace();
    query::CompareOp op;
    if (Peek() == '!' && PeekAt(1) == '=') {
      pos_ += 2;
      op = query::CompareOp::kNe;
    } else if (Peek() == '<' && PeekAt(1) == '=') {
      pos_ += 2;
      op = query::CompareOp::kLe;
    } else if (Peek() == '>' && PeekAt(1) == '=') {
      pos_ += 2;
      op = query::CompareOp::kGe;
    } else if (Peek() == '=') {
      ++pos_;
      op = query::CompareOp::kEq;
    } else if (Peek() == '<' && PeekAt(1) != '/' &&
               !std::isalpha(static_cast<unsigned char>(PeekAt(1)))) {
      // '<' followed by a letter opens an element constructor, not a
      // comparison.
      ++pos_;
      op = query::CompareOp::kLt;
    } else if (Peek() == '>') {
      ++pos_;
      op = query::CompareOp::kGt;
    } else {
      return lhs;
    }
    VPBN_ASSIGN_OR_RETURN(std::unique_ptr<XqExpr> rhs, ParsePrimary());
    auto node = std::make_unique<XqExpr>();
    node->kind = XqExpr::Kind::kCompare;
    node->op = op;
    node->lhs = std::move(lhs);
    node->rhs = std::move(rhs);
    return node;
  }

  Result<std::unique_ptr<XqExpr>> ParsePrimary() {
    SkipWhitespace();
    auto node = std::make_unique<XqExpr>();
    if (Peek() == '$') {
      node->kind = XqExpr::Kind::kVarPath;
      VPBN_ASSIGN_OR_RETURN(node->var, ParseVarName());
      VPBN_RETURN_NOT_OK(MaybePath(node.get()));
      return node;
    }
    if (Peek() == '"' || Peek() == '\'') {
      node->kind = XqExpr::Kind::kString;
      VPBN_ASSIGN_OR_RETURN(node->str, ParseStringLiteral());
      return node;
    }
    if (std::isdigit(static_cast<unsigned char>(Peek()))) {
      size_t start = pos_;
      while (!AtEnd() && (std::isdigit(static_cast<unsigned char>(Peek())) ||
                          Peek() == '.')) {
        ++pos_;
      }
      std::string_view lit = text_.substr(start, pos_ - start);
      double value = 0;
      auto [p, ec] = std::from_chars(lit.data(), lit.data() + lit.size(),
                                     value);
      if (ec != std::errc() || p != lit.data() + lit.size()) {
        return Error("bad number");
      }
      node->kind = XqExpr::Kind::kNumber;
      node->num = value;
      return node;
    }
    if (Peek() == '(') {
      ++pos_;
      VPBN_ASSIGN_OR_RETURN(std::unique_ptr<XqExpr> inner, ParseQueryExpr());
      SkipWhitespace();
      if (!Consume(')')) return Error("expected ')'");
      node->kind = XqExpr::Kind::kInnerPath;
      node->lhs = std::move(inner);
      VPBN_RETURN_NOT_OK(MaybePath(node.get()));
      return node;
    }
    if (Peek() == '<') {
      return ParseElemCtor();
    }
    if (ConsumeKeyword("doc")) {
      SkipWhitespace();
      if (!Consume('(')) return Error("expected '(' after doc");
      node->kind = XqExpr::Kind::kDoc;
      VPBN_ASSIGN_OR_RETURN(node->doc_name, ParseStringLiteral());
      SkipWhitespace();
      if (!Consume(')')) return Error("expected ')'");
      VPBN_RETURN_NOT_OK(MaybePath(node.get()));
      return node;
    }
    if (ConsumeKeyword("virtualDoc")) {
      SkipWhitespace();
      if (!Consume('(')) return Error("expected '(' after virtualDoc");
      node->kind = XqExpr::Kind::kVirtualDoc;
      VPBN_ASSIGN_OR_RETURN(node->doc_name, ParseStringLiteral());
      SkipWhitespace();
      if (!Consume(',')) return Error("expected ',' in virtualDoc");
      VPBN_ASSIGN_OR_RETURN(node->vdg_spec, ParseStringLiteral());
      SkipWhitespace();
      if (!Consume(')')) return Error("expected ')'");
      VPBN_RETURN_NOT_OK(MaybePath(node.get()));
      return node;
    }
    if (ConsumeKeyword("count")) {
      SkipWhitespace();
      if (!Consume('(')) return Error("expected '(' after count");
      node->kind = XqExpr::Kind::kCount;
      VPBN_ASSIGN_OR_RETURN(node->lhs, ParseQueryExpr());
      SkipWhitespace();
      if (!Consume(')')) return Error("expected ')'");
      return node;
    }
    for (const char* fn : {"sum", "min", "max", "avg"}) {
      size_t fn_save = pos_;
      if (ConsumeKeyword(fn)) {
        SkipWhitespace();
        if (!Consume('(')) {
          pos_ = fn_save;
          continue;
        }
        node->kind = XqExpr::Kind::kAggregate;
        node->str = fn;
        VPBN_ASSIGN_OR_RETURN(node->lhs, ParseQueryExpr());
        SkipWhitespace();
        if (!Consume(')')) {
          return Error(std::string("expected ')' after ") + fn + "(");
        }
        return node;
      }
    }
    if (ConsumeKeyword("distinct-values")) {
      SkipWhitespace();
      if (!Consume('(')) return Error("expected '(' after distinct-values");
      node->kind = XqExpr::Kind::kDistinct;
      VPBN_ASSIGN_OR_RETURN(node->lhs, ParseQueryExpr());
      SkipWhitespace();
      if (!Consume(')')) return Error("expected ')'");
      return node;
    }
    if (ConsumeKeyword("contains")) {
      SkipWhitespace();
      if (!Consume('(')) return Error("expected '(' after contains");
      node->kind = XqExpr::Kind::kContains;
      VPBN_ASSIGN_OR_RETURN(node->lhs, ParseQueryExpr());
      SkipWhitespace();
      if (!Consume(',')) return Error("expected ',' in contains");
      VPBN_ASSIGN_OR_RETURN(node->rhs, ParseQueryExpr());
      SkipWhitespace();
      if (!Consume(')')) return Error("expected ')'");
      return node;
    }
    if (ConsumeKeyword("string")) {
      SkipWhitespace();
      if (!Consume('(')) return Error("expected '(' after string");
      node->kind = XqExpr::Kind::kStringFn;
      VPBN_ASSIGN_OR_RETURN(node->lhs, ParseQueryExpr());
      SkipWhitespace();
      if (!Consume(')')) return Error("expected ')'");
      return node;
    }
    if (ConsumeKeyword("not")) {
      SkipWhitespace();
      if (!Consume('(')) return Error("expected '(' after not");
      node->kind = XqExpr::Kind::kNot;
      VPBN_ASSIGN_OR_RETURN(node->lhs, ParseQueryExpr());
      SkipWhitespace();
      if (!Consume(')')) return Error("expected ')'");
      return node;
    }
    return Error("expected an expression");
  }

  Result<std::unique_ptr<XqExpr>> ParseElemCtor() {
    VPBN_RETURN_NOT_OK(EnterNesting());
    DepthGuard guard(&depth_);
    // At '<'.
    ++pos_;
    size_t start = pos_;
    while (!AtEnd() && (IsWordChar(Peek()) || Peek() == '-' || Peek() == ':')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected element name after '<'");
    auto node = std::make_unique<XqExpr>();
    node->kind = XqExpr::Kind::kElemCtor;
    node->elem_name = std::string(text_.substr(start, pos_ - start));
    // Attributes (static values only).
    for (;;) {
      SkipWhitespace();
      if (Peek() == '/' && PeekAt(1) == '>') {
        pos_ += 2;
        return node;
      }
      if (Consume('>')) break;
      size_t astart = pos_;
      while (!AtEnd() && (IsWordChar(Peek()) || Peek() == '-')) ++pos_;
      if (pos_ == astart) return Error("expected attribute or '>'");
      std::string aname(text_.substr(astart, pos_ - astart));
      SkipWhitespace();
      if (!Consume('=')) return Error("expected '=' in attribute");
      VPBN_ASSIGN_OR_RETURN(std::string avalue, ParseStringLiteral());
      node->attrs.emplace_back(std::move(aname), std::move(avalue));
    }
    // Content until the matching close tag.
    std::string pending;
    auto flush = [&]() {
      // Whitespace-only runs between constructs are formatting, not data.
      bool only_ws = true;
      for (char c : pending) {
        if (!std::isspace(static_cast<unsigned char>(c))) only_ws = false;
      }
      if (!pending.empty() && !only_ws) {
        Content c;
        c.kind = Content::Kind::kText;
        c.text = std::move(pending);
        node->content.push_back(std::move(c));
      }
      pending.clear();
    };
    for (;;) {
      if (AtEnd()) return Error("unterminated element constructor");
      if (Peek() == '{') {
        flush();
        ++pos_;
        Content c;
        c.kind = Content::Kind::kExpr;
        VPBN_ASSIGN_OR_RETURN(c.expr, ParseQueryExpr());
        SkipWhitespace();
        if (!Consume('}')) return Error("expected '}'");
        node->content.push_back(std::move(c));
        continue;
      }
      if (Peek() == '<' && PeekAt(1) == '/') {
        flush();
        pos_ += 2;
        size_t cstart = pos_;
        while (!AtEnd() &&
               (IsWordChar(Peek()) || Peek() == '-' || Peek() == ':')) {
          ++pos_;
        }
        std::string cname(text_.substr(cstart, pos_ - cstart));
        SkipWhitespace();
        if (!Consume('>')) return Error("expected '>'");
        if (cname != node->elem_name) {
          return Error("mismatched </" + cname + ">, expected </" +
                       node->elem_name + ">");
        }
        return node;
      }
      if (Peek() == '<') {
        flush();
        Content c;
        c.kind = Content::Kind::kElement;
        VPBN_ASSIGN_OR_RETURN(c.expr, ParseElemCtor());
        node->content.push_back(std::move(c));
        continue;
      }
      pending.push_back(Peek());
      ++pos_;
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Result<std::unique_ptr<XqExpr>> ParseQuery(std::string_view text) {
  return XqParser(text).Run();
}

}  // namespace vpbn::xq
