#include "query/path_parser.h"

#include <cctype>
#include <charconv>

#include "common/str_util.h"

namespace vpbn::query {

namespace {

class PathParser {
 public:
  explicit PathParser(std::string_view text) : text_(text) {}

  Result<Path> Run() {
    VPBN_ASSIGN_OR_RETURN(Path path, ParseAbsolutePath());
    SkipWhitespace();
    if (!AtEnd()) return Error("trailing input after path");
    return path;
  }

 private:
  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return AtEnd() ? '\0' : text_[pos_]; }
  char PeekAt(size_t off) const {
    return pos_ + off < text_.size() ? text_[pos_ + off] : '\0';
  }
  bool Consume(char c) {
    if (Peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool ConsumeWord(std::string_view w) {
    if (text_.substr(pos_, w.size()) == w) {
      pos_ += w.size();
      return true;
    }
    return false;
  }
  void SkipWhitespace() {
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) {
      ++pos_;
    }
  }
  Status Error(const std::string& msg) const {
    return Status::ParseError("xpath, offset " + std::to_string(pos_) + ": " +
                              msg);
  }

  static bool IsNameChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '-' || c == '.' || c == ':' || c == '#';
  }

  Result<std::string> ParseName() {
    SkipWhitespace();
    size_t start = pos_;
    while (!AtEnd() && IsNameChar(Peek())) {
      // "::" separates an axis from its node test; a single ':' is a
      // namespace prefix and stays part of the name.
      if (Peek() == ':' && PeekAt(1) == ':') break;
      ++pos_;
    }
    if (pos_ == start) return Error("expected a name");
    return std::string(text_.substr(start, pos_ - start));
  }

  Result<Path> ParseAbsolutePath() {
    SkipWhitespace();
    if (Peek() != '/') return Error("paths must be absolute ('/' or '//')");
    return ParseSteps();
  }

  /// Appends the steps for one ('/' | '//') step occurrence. '//child::X'
  /// is rewritten to 'descendant::X' — equivalent unless a positional
  /// predicate is present ('//x[1]' selects the first x *per parent*, not
  /// the first descendant) — and it avoids materializing the full node set
  /// for the anonymous descendant-or-self::node() step. Other axes and
  /// positional steps keep the anonymous step.
  Status AppendStep(bool deep, Path* path) {
    VPBN_ASSIGN_OR_RETURN(Step step, ParseStep());
    bool positional = false;
    for (const auto& pred : step.predicates) {
      if (pred->kind == Expr::Kind::kNumber) positional = true;
    }
    if (deep) {
      if (step.axis == num::Axis::kChild && !positional) {
        step.axis = num::Axis::kDescendant;
      } else {
        Step anon;
        anon.axis = num::Axis::kDescendantOrSelf;
        anon.test.kind = NodeTest::Kind::kAnyNode;
        path->steps.push_back(std::move(anon));
      }
    }
    path->steps.push_back(std::move(step));
    return Status::OK();
  }

  /// Parses (('/' | '//') step)+ from the current position (at a '/').
  Result<Path> ParseSteps() {
    Path path;
    for (;;) {
      SkipWhitespace();
      if (Peek() != '/') break;
      ++pos_;
      bool deep = Consume('/');
      VPBN_RETURN_NOT_OK(AppendStep(deep, &path));
    }
    if (path.steps.empty()) return Error("empty path");
    return path;
  }

  /// Parses a relative path (used inside predicates): step ( '/' step )*.
  Result<Path> ParseRelativePath() {
    Path path;
    VPBN_RETURN_NOT_OK(AppendStep(/*deep=*/false, &path));
    for (;;) {
      SkipWhitespace();
      if (Peek() != '/') break;
      ++pos_;
      bool deep = Consume('/');
      VPBN_RETURN_NOT_OK(AppendStep(deep, &path));
    }
    return path;
  }

  Result<Step> ParseStep() {
    SkipWhitespace();
    Step step;
    if (Peek() == '.' && PeekAt(1) == '.') {
      pos_ += 2;
      step.axis = num::Axis::kParent;
      step.test.kind = NodeTest::Kind::kAnyNode;
      return step;
    }
    if (Peek() == '.') {
      ++pos_;
      step.axis = num::Axis::kSelf;
      step.test.kind = NodeTest::Kind::kAnyNode;
      return step;
    }
    if (Peek() == '@') {
      ++pos_;
      VPBN_ASSIGN_OR_RETURN(std::string name, ParseName());
      step.axis = num::Axis::kAttribute;
      step.test.kind = NodeTest::Kind::kName;
      step.test.name = std::move(name);
      return step;
    }
    if (Peek() == '*') {
      ++pos_;
      step.axis = num::Axis::kChild;
      step.test.kind = NodeTest::Kind::kAnyElement;
      return ParsePredicates(std::move(step));
    }
    VPBN_ASSIGN_OR_RETURN(std::string word, ParseName());
    SkipWhitespace();
    if (Peek() == ':' && PeekAt(1) == ':') {
      pos_ += 2;
      VPBN_ASSIGN_OR_RETURN(num::Axis axis, num::AxisFromString(word));
      step.axis = axis;
      SkipWhitespace();
      if (Consume('*')) {
        step.test.kind = NodeTest::Kind::kAnyElement;
        return ParsePredicates(std::move(step));
      }
      VPBN_ASSIGN_OR_RETURN(word, ParseName());
    } else {
      step.axis = num::Axis::kChild;
    }
    if (word == "text" && Peek() == '(') {
      ++pos_;
      SkipWhitespace();
      if (!Consume(')')) return Error("expected ')' after text(");
      step.test.kind = NodeTest::Kind::kText;
      return ParsePredicates(std::move(step));
    }
    if (word == "node" && Peek() == '(') {
      ++pos_;
      SkipWhitespace();
      if (!Consume(')')) return Error("expected ')' after node(");
      step.test.kind = NodeTest::Kind::kAnyNode;
      return ParsePredicates(std::move(step));
    }
    step.test.kind = NodeTest::Kind::kName;
    step.test.name = std::move(word);
    return ParsePredicates(std::move(step));
  }

  Result<Step> ParsePredicates(Step step) {
    for (;;) {
      SkipWhitespace();
      if (Peek() != '[') return step;
      ++pos_;
      VPBN_ASSIGN_OR_RETURN(std::unique_ptr<Expr> expr, ParseOrExpr());
      SkipWhitespace();
      if (!Consume(']')) return Error("expected ']'");
      step.predicates.push_back(std::move(expr));
    }
  }

  /// Counts the open ParseOrExpr frames for the lifetime of one.
  struct DepthGuard {
    explicit DepthGuard(int* depth) : depth(depth) { ++*depth; }
    ~DepthGuard() { --*depth; }
    int* depth;
  };

  Result<std::unique_ptr<Expr>> ParseOrExpr() {
    // Every nesting construct — a predicate, a parenthesis, a function
    // argument, a path inside one of those — recurses through here, so this
    // one counter bounds the parser's stack. The input can never parse, so
    // the error is a parse error, not a retryable overload.
    if (depth_ >= kMaxPathDepth) {
      return Error("nesting exceeds max_depth=" +
                   std::to_string(kMaxPathDepth));
    }
    DepthGuard guard(&depth_);
    VPBN_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseAndExpr());
    for (;;) {
      SkipWhitespace();
      size_t save = pos_;
      if (!ConsumeWord("or") || IsNameChar(Peek())) {
        pos_ = save;
        return lhs;
      }
      VPBN_ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParseAndExpr());
      auto node = std::make_unique<Expr>();
      node->kind = Expr::Kind::kOr;
      node->lhs = std::move(lhs);
      node->rhs = std::move(rhs);
      lhs = std::move(node);
    }
  }

  Result<std::unique_ptr<Expr>> ParseAndExpr() {
    VPBN_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseCompareExpr());
    for (;;) {
      SkipWhitespace();
      size_t save = pos_;
      if (!ConsumeWord("and") || IsNameChar(Peek())) {
        pos_ = save;
        return lhs;
      }
      VPBN_ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParseCompareExpr());
      auto node = std::make_unique<Expr>();
      node->kind = Expr::Kind::kAnd;
      node->lhs = std::move(lhs);
      node->rhs = std::move(rhs);
      lhs = std::move(node);
    }
  }

  Result<std::unique_ptr<Expr>> ParseCompareExpr() {
    VPBN_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParsePrimaryExpr());
    SkipWhitespace();
    CompareOp op;
    if (Consume('=')) {
      op = CompareOp::kEq;
    } else if (Peek() == '!' && PeekAt(1) == '=') {
      pos_ += 2;
      op = CompareOp::kNe;
    } else if (Peek() == '<' && PeekAt(1) == '=') {
      pos_ += 2;
      op = CompareOp::kLe;
    } else if (Peek() == '>' && PeekAt(1) == '=') {
      pos_ += 2;
      op = CompareOp::kGe;
    } else if (Consume('<')) {
      op = CompareOp::kLt;
    } else if (Consume('>')) {
      op = CompareOp::kGt;
    } else {
      return lhs;
    }
    VPBN_ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParsePrimaryExpr());
    auto node = std::make_unique<Expr>();
    node->kind = Expr::Kind::kCompare;
    node->op = op;
    node->lhs = std::move(lhs);
    node->rhs = std::move(rhs);
    return node;
  }

  Result<std::unique_ptr<Expr>> ParsePrimaryExpr() {
    SkipWhitespace();
    auto node = std::make_unique<Expr>();
    if (Peek() == '"' || Peek() == '\'') {
      char quote = Peek();
      ++pos_;
      size_t start = pos_;
      while (!AtEnd() && Peek() != quote) ++pos_;
      if (AtEnd()) return Error("unterminated string literal");
      node->kind = Expr::Kind::kString;
      node->str = std::string(text_.substr(start, pos_ - start));
      ++pos_;
      return node;
    }
    if (std::isdigit(static_cast<unsigned char>(Peek())) ||
        (Peek() == '-' &&
         std::isdigit(static_cast<unsigned char>(PeekAt(1))))) {
      size_t start = pos_;
      if (Peek() == '-') ++pos_;
      while (!AtEnd() && (std::isdigit(static_cast<unsigned char>(Peek())) ||
                          Peek() == '.')) {
        ++pos_;
      }
      std::string_view lit = text_.substr(start, pos_ - start);
      double value = 0;
      auto [ptr, ec] =
          std::from_chars(lit.data(), lit.data() + lit.size(), value);
      if (ec != std::errc() || ptr != lit.data() + lit.size()) {
        return Error("bad number literal '" + std::string(lit) + "'");
      }
      node->kind = Expr::Kind::kNumber;
      node->num = value;
      return node;
    }
    if (Peek() == '@') {
      ++pos_;
      VPBN_ASSIGN_OR_RETURN(std::string name, ParseName());
      node->kind = Expr::Kind::kAttribute;
      node->str = std::move(name);
      return node;
    }
    if (Peek() == '(') {
      ++pos_;
      VPBN_ASSIGN_OR_RETURN(node, ParseOrExpr());
      SkipWhitespace();
      if (!Consume(')')) return Error("expected ')'");
      return node;
    }
    size_t save = pos_;
    if (ConsumeWord("not") && (SkipWhitespace(), Peek() == '(')) {
      ++pos_;
      auto inner = ParseOrExpr();
      if (!inner.ok()) return inner.status();
      SkipWhitespace();
      if (!Consume(')')) return Error("expected ')' after not(");
      node->kind = Expr::Kind::kNot;
      node->lhs = std::move(inner).ValueUnsafe();
      return node;
    }
    pos_ = save;
    if (ConsumeWord("count") && (SkipWhitespace(), Peek() == '(')) {
      ++pos_;
      SkipWhitespace();
      auto path = Peek() == '/' ? ParseSteps() : ParseRelativePath();
      if (!path.ok()) return path.status();
      SkipWhitespace();
      if (!Consume(')')) return Error("expected ')' after count(");
      node->kind = Expr::Kind::kCount;
      node->path = std::move(path).ValueUnsafe();
      return node;
    }
    pos_ = save;
    for (auto [word, kind] :
         {std::pair{"contains", Expr::Kind::kContains},
          std::pair{"starts-with", Expr::Kind::kStartsWith}}) {
      if (ConsumeWord(word) && (SkipWhitespace(), Peek() == '(')) {
        ++pos_;
        auto lhs = ParseOrExpr();
        if (!lhs.ok()) return lhs.status();
        SkipWhitespace();
        if (!Consume(',')) {
          return Error(std::string("expected ',' in ") + word + "(");
        }
        auto rhs = ParseOrExpr();
        if (!rhs.ok()) return rhs.status();
        SkipWhitespace();
        if (!Consume(')')) {
          return Error(std::string("expected ')' after ") + word + "(");
        }
        node->kind = kind;
        node->lhs = std::move(lhs).ValueUnsafe();
        node->rhs = std::move(rhs).ValueUnsafe();
        return node;
      }
      pos_ = save;
    }
    // A relative (or absolute) path expression.
    auto path = Peek() == '/' ? ParseSteps() : ParseRelativePath();
    if (!path.ok()) return path.status();
    node->kind = Expr::Kind::kPath;
    node->path = std::move(path).ValueUnsafe();
    return node;
  }

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;  // open ParseOrExpr frames
};

}  // namespace

Result<Path> ParsePath(std::string_view text) {
  return PathParser(text).Run();
}

std::string PathToString(const Path& path) {
  std::string out;
  for (const Step& step : path.steps) {
    if (step.axis == num::Axis::kDescendantOrSelf &&
        step.test.kind == NodeTest::Kind::kAnyNode &&
        step.predicates.empty()) {
      // Render the '//' shorthand's anonymous step.
      out += (out.empty() || out.back() != '/') ? "//" : "/";
      continue;
    }
    if (out.empty() || out.back() != '/') out += "/";
    out += num::AxisToString(step.axis);
    out += "::";
    switch (step.test.kind) {
      case NodeTest::Kind::kName:
        out += step.test.name;
        break;
      case NodeTest::Kind::kAnyElement:
        out += "*";
        break;
      case NodeTest::Kind::kText:
        out += "text()";
        break;
      case NodeTest::Kind::kAnyNode:
        out += "node()";
        break;
    }
    for (size_t i = 0; i < step.predicates.size(); ++i) out += "[...]";
  }
  return out;
}

}  // namespace vpbn::query
