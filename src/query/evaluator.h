/// \file evaluator.h
/// \brief Generic path evaluator, parameterized by a node-source adapter.
///
/// The same evaluation logic runs over three substrates:
///   * NavAdapter      — tree walking on a Document (query/eval_nav.h)
///   * IndexedAdapter  — PBN type-index structural joins on a
///                       StoredDocument (query/eval_indexed.h)
///   * VirtualAdapter  — vPBN joins on a VirtualDocument
///                       (query/eval_virtual.h)
///
/// An Adapter provides:
///   using Node = ...;                     // copyable node handle
///   std::vector<Node> DocumentRoots(const NodeTest&) const;
///   std::vector<Node> AllNodes(const NodeTest&) const;
///   std::vector<Node> Axis(const Node&, num::Axis, const NodeTest&) const;
///   void SortUnique(std::vector<Node>*) const;   // document order + dedupe
///   std::string StringValue(const Node&) const;
///   Result<std::string> Attribute(const Node&, const std::string&) const;
///
/// Evaluation starts at the document node (the invisible parent of the
/// roots), so '/data' selects root elements named data and '//book' selects
/// books at any depth.

#pragma once

#include <chrono>
#include <cmath>
#include <concepts>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "index/value_index.h"
#include "query/exec_context.h"
#include "query/path_ast.h"

namespace vpbn::query {

/// \brief Whether an adapter offers a whole-context axis evaluation:
///
///   bool BatchAxis(const std::vector<Node>& context, num::Axis axis,
///                  const NodeTest& test,
///                  std::vector<std::vector<Node>>* slots) const;
///
/// A true return means slots[i] holds exactly what Axis(context[i], ...)
/// would have produced (as a set — per-slot SortUnique still runs); false
/// means the adapter declined (axis or shape not covered) and the evaluator
/// falls back to per-node Axis calls. This is how the virtual substrate
/// replaces |context| x |candidates| predicate scans with one merge join
/// per (context-vtype, result-vtype) pair while preserving XPath's
/// per-context-node predicate semantics byte-for-byte.
template <typename Adapter>
constexpr bool AdapterHasBatchAxis() {
  return requires(const Adapter& a,
                  const std::vector<typename Adapter::Node>& context,
                  num::Axis axis, const NodeTest& test,
                  std::vector<std::vector<typename Adapter::Node>>* slots) {
    { a.BatchAxis(context, axis, test, slots) } -> std::convertible_to<bool>;
  };
}

/// \brief Whether an adapter also offers the flattened batch form,
///
///   bool BatchAxisFlat(const std::vector<Node>& context, num::Axis axis,
///                      const NodeTest& test, std::vector<Node>* out);
///
/// appending every context node's (duplicate-free) axis result directly to
/// \p out in unspecified order. Usable only for steps without predicates:
/// nothing there consumes per-slot positions, and the step's final
/// SortUnique restores document order, so the result and the node counts
/// match per-slot evaluation exactly while skipping one vector per context
/// node.
template <typename Adapter>
constexpr bool AdapterHasBatchAxisFlat() {
  return requires(const Adapter& a,
                  const std::vector<typename Adapter::Node>& context,
                  num::Axis axis, const NodeTest& test,
                  std::vector<typename Adapter::Node>* out) {
    { a.BatchAxisFlat(context, axis, test, out) } -> std::convertible_to<bool>;
  };
}

/// \brief Whether an adapter offers a whole-list predicate evaluation:
///
///   bool BatchPredicate(const Expr& pred, const std::vector<Node>& nodes,
///                       std::vector<char>* keep) const;
///
/// A true return means keep->at(i) records exactly the truth value the
/// per-node EvalExpr walk would have produced for nodes[i]; false means the
/// adapter declined (predicate shape not covered, value index disabled or
/// type not covered) and the evaluator falls back to per-node evaluation.
/// This is how the indexed substrate turns value predicates into dictionary
/// postings lookups + subtree-range intersections instead of per-candidate
/// string materialization.
template <typename Adapter>
constexpr bool AdapterHasBatchPredicate() {
  return requires(const Adapter& a, const Expr& pred,
                  const std::vector<typename Adapter::Node>& nodes,
                  std::vector<char>* keep) {
    { a.BatchPredicate(pred, nodes, keep) } -> std::convertible_to<bool>;
  };
}

/// \brief Whether an adapter can serve a node's XPath string-value as a
/// view into interned index storage:
///
///   std::optional<std::string_view> FastStringValue(const Node& n) const;
///
/// An engaged return must be byte-identical to StringValue(n); nullopt
/// means the node's type is not covered (or the value index is disabled)
/// and the caller assembles the value as before. This removes the
/// per-candidate subtree walk from value comparisons — the win that makes
/// the virtual substrate's non-pushable predicates cheap (assembled-value
/// columns are built once per vtype, then every compare is a term lookup).
template <typename Adapter>
constexpr bool AdapterHasFastStringValue() {
  return requires(const Adapter& a, const typename Adapter::Node& n) {
    {
      a.FastStringValue(n)
    } -> std::convertible_to<std::optional<std::string_view>>;
  };
}

/// \brief Attempts to interpret \p s as an XPath number. Delegates to the
/// value index's canonical parse so the dictionary's precomputed numeric
/// interpretations agree with every comparison made here.
inline bool ToNumber(std::string_view s, double* out) {
  return idx::ParseNumber(s, out);
}

/// \brief Applies \p op to an already-numeric pair.
inline bool CompareNumbers(double ln, CompareOp op, double rn) {
  switch (op) {
    case CompareOp::kEq:
      return ln == rn;
    case CompareOp::kNe:
      return ln != rn;
    case CompareOp::kLt:
      return ln < rn;
    case CompareOp::kLe:
      return ln <= rn;
    case CompareOp::kGt:
      return ln > rn;
    case CompareOp::kGe:
      return ln >= rn;
  }
  return false;
}

/// \brief Compares two values under an operator, with XPath 1.0 numeric
/// semantics: when both sides parse as numbers the comparison is numeric.
/// Otherwise `=` and `!=` compare the strings, while the relational
/// operators (`< <= > >=`) are strictly numeric — a side that is not a
/// number never satisfies them ([price > 50] must not match "n/a").
inline bool CompareValues(std::string_view lhs, CompareOp op,
                          std::string_view rhs) {
  double ln, rn;
  if (ToNumber(lhs, &ln) && ToNumber(rhs, &rn)) {
    return CompareNumbers(ln, op, rn);
  }
  switch (op) {
    case CompareOp::kEq:
      return lhs == rhs;
    case CompareOp::kNe:
      return lhs != rhs;
    case CompareOp::kLt:
    case CompareOp::kLe:
    case CompareOp::kGt:
    case CompareOp::kGe:
      return false;
  }
  return false;
}

/// \brief Strict weak order over strings for sorting (XQuery order-by):
/// numeric when both sides parse as numbers, else lexicographic. This is
/// deliberately *not* CompareValues with kLt — relational comparison
/// returns false for non-numeric pairs, which is not an order.
inline bool OrderLess(std::string_view lhs, std::string_view rhs) {
  double ln, rn;
  if (ToNumber(lhs, &ln) && ToNumber(rhs, &rn)) return ln < rn;
  return lhs < rhs;
}

template <typename Adapter>
class PathEvaluator {
 public:
  using Node = typename Adapter::Node;

  /// \p ctx (optional) carries the evaluation knobs and receives execution
  /// statistics; it must outlive the evaluator.
  explicit PathEvaluator(const Adapter& adapter, ExecContext* ctx = nullptr)
      : adapter_(&adapter), ctx_(ctx) {}

  /// Evaluates an absolute path from the document node.
  Result<std::vector<Node>> Eval(const Path& path) {
    return EvalSteps(path, 0, path.steps.size(), {},
                     /*has_document_node=*/true, /*record_stats=*/true);
  }

  /// Evaluates a (relative) path from an explicit context node.
  Result<std::vector<Node>> EvalFrom(const Path& path, const Node& context) {
    return EvalSteps(path, 0, path.steps.size(), {context},
                     /*has_document_node=*/false, /*record_stats=*/true);
  }

  /// Evaluates only the first \p n_steps of the path (used by callers that
  /// handle a trailing attribute step themselves).
  Result<std::vector<Node>> EvalPrefix(const Path& path, size_t n_steps) {
    return EvalSteps(path, 0, n_steps, {}, /*has_document_node=*/true,
                     /*record_stats=*/true);
  }
  Result<std::vector<Node>> EvalPrefixFrom(const Path& path, size_t n_steps,
                                           const Node& context) {
    return EvalSteps(path, 0, n_steps, {context},
                     /*has_document_node=*/false, /*record_stats=*/true);
  }

 private:
  /// The value of a predicate expression in one context node.
  struct Value {
    enum class Kind { kBool, kNumber, kString, kNodeSet, kMissing } kind;
    bool b = false;
    double num = 0;
    std::string str;
    std::vector<Node> nodes;

    bool Truthy() const {
      switch (kind) {
        case Kind::kBool:
          return b;
        case Kind::kNumber:
          return num != 0 && !std::isnan(num);
        case Kind::kString:
          return !str.empty();
        case Kind::kNodeSet:
          return !nodes.empty();
        case Kind::kMissing:
          return false;
      }
      return false;
    }
  };

  Result<std::vector<Node>> EvalSteps(const Path& path, size_t idx,
                                      size_t end, std::vector<Node> context,
                                      bool has_document_node,
                                      bool record_stats) {
    if (idx == end) {
      adapter_->SortUnique(&context);
      return context;
    }
    const Step& step = path.steps[idx];
    if (step.axis == num::Axis::kAttribute) {
      return Status::InvalidArgument(
          "attribute steps are only supported inside predicates");
    }
    bool timing = ctx_ != nullptr && ctx_->collect_stats() && record_stats;
    std::chrono::steady_clock::time_point t0;
    if (timing) t0 = std::chrono::steady_clock::now();
    std::vector<Node> next;
    bool next_has_document_node = false;
    if (has_document_node) {
      // Steps from the invisible document node.
      std::vector<Node> from_doc;
      switch (step.axis) {
        case num::Axis::kChild:
          from_doc = adapter_->DocumentRoots(step.test);
          break;
        case num::Axis::kDescendant:
          from_doc = adapter_->AllNodes(step.test);
          break;
        case num::Axis::kDescendantOrSelf:
          from_doc = adapter_->AllNodes(step.test);
          if (step.test.kind == NodeTest::Kind::kAnyNode) {
            next_has_document_node = true;
          }
          break;
        case num::Axis::kSelf:
          if (step.test.kind == NodeTest::Kind::kAnyNode) {
            next_has_document_node = true;
          }
          break;
        default:
          break;  // no ancestors/siblings of the document node
      }
      adapter_->SortUnique(&from_doc);
      if (ctx_) ctx_->CountNodes(from_doc.size());
      VPBN_ASSIGN_OR_RETURN(from_doc, ApplyPredicates(step, std::move(from_doc)));
      Append(&next, std::move(from_doc));
    }
    VPBN_RETURN_NOT_OK(EvalStepOverContext(step, context, &next));
    adapter_->SortUnique(&next);
    if (timing) {
      StepStats s;
      s.label = StepLabel(step);
      s.nodes_out = next.size();
      s.wall_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
      ctx_->RecordStep(std::move(s));
    }
    return EvalSteps(path, idx + 1, end, std::move(next),
                     next_has_document_node, record_stats);
  }

  /// Expands \p step from every node of \p context into \p next. XPath
  /// applies predicates within each context node's axis result — positions
  /// are relative to that list, so each node filters before merging; the
  /// caller's final SortUnique restores document order.
  Status EvalStepOverContext(const Step& step, const std::vector<Node>& context,
                             std::vector<Node>* next) {
    if constexpr (AdapterHasBatchAxisFlat<Adapter>()) {
      if (step.predicates.empty()) {
        const size_t before = next->size();
        if (adapter_->BatchAxisFlat(context, step.axis, step.test, next)) {
          if (ctx_) ctx_->CountNodes(next->size() - before);
          return Status::OK();
        }
        // Declined: fall through to the slotted / per-node paths.
      }
    }
    if constexpr (AdapterHasBatchAxis<Adapter>()) {
      std::vector<std::vector<Node>> slots;
      if (adapter_->BatchAxis(context, step.axis, step.test, &slots)) {
        return FinishBatchedStep(step, std::move(slots), next);
      }
    }
    for (const Node& n : context) {
      std::vector<Node> axis_result = adapter_->Axis(n, step.axis, step.test);
      adapter_->SortUnique(&axis_result);
      if (ctx_) ctx_->CountNodes(axis_result.size());
      VPBN_ASSIGN_OR_RETURN(axis_result,
                            ApplyPredicates(step, std::move(axis_result)));
      Append(next, std::move(axis_result));
    }
    return Status::OK();
  }

  /// Second half of a batched step: per-slot ordering, accounting and
  /// predicate filtering, then append in context order — the same per-node
  /// pipeline the fallback runs after Axis, so batched and per-node
  /// evaluation are byte-identical. Predicates still see one context
  /// node's list at a time (positional semantics).
  Status FinishBatchedStep(const Step& step,
                           std::vector<std::vector<Node>> slots,
                           std::vector<Node>* next) {
    for (std::vector<Node>& slot : slots) {
      adapter_->SortUnique(&slot);
      if (ctx_) ctx_->CountNodes(slot.size());
      VPBN_ASSIGN_OR_RETURN(slot, ApplyPredicates(step, std::move(slot)));
      Append(next, std::move(slot));
    }
    return Status::OK();
  }

  static std::string StepLabel(const Step& step) {
    std::string label = num::AxisToString(step.axis);
    label += "::";
    switch (step.test.kind) {
      case NodeTest::Kind::kName:
        label += step.test.name;
        break;
      case NodeTest::Kind::kAnyElement:
        label += "*";
        break;
      case NodeTest::Kind::kText:
        label += "text()";
        break;
      case NodeTest::Kind::kAnyNode:
        label += "node()";
        break;
    }
    if (!step.predicates.empty()) {
      label += "[" + std::to_string(step.predicates.size()) + " pred]";
    }
    return label;
  }

  static void Append(std::vector<Node>* out, std::vector<Node> in) {
    out->insert(out->end(), std::make_move_iterator(in.begin()),
                std::make_move_iterator(in.end()));
  }

  /// Applies a step's predicates to one context node's axis result. A bare
  /// number predicate is positional ([2] keeps the second node of the
  /// list), matching XPath; the paper's §5.1 notes such ordinals are not
  /// stored in vPBN and must be "computed dynamically" — which this is.
  Result<std::vector<Node>> ApplyPredicates(const Step& step,
                                            std::vector<Node> nodes) {
    for (const auto& pred : step.predicates) {
      std::vector<Node> kept;
      if (pred->kind == Expr::Kind::kNumber) {
        // XPath: [n] keeps the node whose position equals n exactly. A
        // non-integral number ([2.5]) equals no position and selects
        // nothing — truncating would wrongly select node 2.
        auto position = static_cast<int64_t>(pred->num);
        if (static_cast<double>(position) == pred->num && position >= 1 &&
            static_cast<size_t>(position) <= nodes.size()) {
          kept.push_back(nodes[position - 1]);
        }
      } else {
        bool batched = false;
        if constexpr (AdapterHasBatchPredicate<Adapter>()) {
          std::vector<char> keep;
          if (adapter_->BatchPredicate(*pred, nodes, &keep)) {
            for (size_t i = 0; i < nodes.size(); ++i) {
              if (keep[i]) kept.push_back(nodes[i]);
            }
            batched = true;
          }
        }
        if (!batched) {
          for (const Node& n : nodes) {
            VPBN_ASSIGN_OR_RETURN(Value v, EvalExpr(*pred, n));
            if (v.Truthy()) kept.push_back(n);
          }
        }
      }
      nodes = std::move(kept);
    }
    return nodes;
  }

  /// Relative path evaluation inside a predicate: never records step
  /// timings (only the top-level path's steps belong in ExecStats).
  Result<std::vector<Node>> EvalRelative(const Path& path,
                                         const Node& context) {
    return EvalSteps(path, 0, path.steps.size(), {context},
                     /*has_document_node=*/false, /*record_stats=*/false);
  }

  Result<Value> EvalExpr(const Expr& expr, const Node& context) {
    Value v;
    switch (expr.kind) {
      case Expr::Kind::kPath: {
        VPBN_ASSIGN_OR_RETURN(std::vector<Node> nodes,
                              EvalRelative(expr.path, context));
        v.kind = Value::Kind::kNodeSet;
        v.nodes = std::move(nodes);
        return v;
      }
      case Expr::Kind::kString:
        v.kind = Value::Kind::kString;
        v.str = expr.str;
        return v;
      case Expr::Kind::kNumber:
        v.kind = Value::Kind::kNumber;
        v.num = expr.num;
        return v;
      case Expr::Kind::kAttribute: {
        auto attr = adapter_->Attribute(context, expr.str);
        if (attr.ok()) {
          v.kind = Value::Kind::kString;
          v.str = std::move(attr).ValueUnsafe();
        } else {
          v.kind = Value::Kind::kMissing;
        }
        return v;
      }
      case Expr::Kind::kCount: {
        VPBN_ASSIGN_OR_RETURN(std::vector<Node> nodes,
                              EvalRelative(expr.path, context));
        v.kind = Value::Kind::kNumber;
        v.num = static_cast<double>(nodes.size());
        return v;
      }
      case Expr::Kind::kContains:
      case Expr::Kind::kStartsWith: {
        VPBN_ASSIGN_OR_RETURN(Value lhs, EvalExpr(*expr.lhs, context));
        VPBN_ASSIGN_OR_RETURN(Value rhs, EvalExpr(*expr.rhs, context));
        std::string hay = ToStringValue(lhs);
        std::string needle = ToStringValue(rhs);
        v.kind = Value::Kind::kBool;
        v.b = expr.kind == Expr::Kind::kContains
                  ? hay.find(needle) != std::string::npos
                  : hay.compare(0, needle.size(), needle) == 0;
        return v;
      }
      case Expr::Kind::kCompare: {
        VPBN_ASSIGN_OR_RETURN(Value lhs, EvalExpr(*expr.lhs, context));
        VPBN_ASSIGN_OR_RETURN(Value rhs, EvalExpr(*expr.rhs, context));
        v.kind = Value::Kind::kBool;
        v.b = Compare(lhs, expr.op, rhs);
        return v;
      }
      case Expr::Kind::kAnd: {
        VPBN_ASSIGN_OR_RETURN(Value lhs, EvalExpr(*expr.lhs, context));
        if (!lhs.Truthy()) {
          v.kind = Value::Kind::kBool;
          v.b = false;
          return v;
        }
        VPBN_ASSIGN_OR_RETURN(Value rhs, EvalExpr(*expr.rhs, context));
        v.kind = Value::Kind::kBool;
        v.b = rhs.Truthy();
        return v;
      }
      case Expr::Kind::kOr: {
        VPBN_ASSIGN_OR_RETURN(Value lhs, EvalExpr(*expr.lhs, context));
        if (lhs.Truthy()) {
          v.kind = Value::Kind::kBool;
          v.b = true;
          return v;
        }
        VPBN_ASSIGN_OR_RETURN(Value rhs, EvalExpr(*expr.rhs, context));
        v.kind = Value::Kind::kBool;
        v.b = rhs.Truthy();
        return v;
      }
      case Expr::Kind::kNot: {
        VPBN_ASSIGN_OR_RETURN(Value lhs, EvalExpr(*expr.lhs, context));
        v.kind = Value::Kind::kBool;
        v.b = !lhs.Truthy();
        return v;
      }
    }
    return Status::Internal("unreachable expr kind");
  }

  /// A node's XPath string-value, served from the value index's interned
  /// term where the adapter can (byte-identical by contract), assembled
  /// otherwise.
  std::string NodeStringValue(const Node& n) {
    if constexpr (AdapterHasFastStringValue<Adapter>()) {
      if (std::optional<std::string_view> v = adapter_->FastStringValue(n)) {
        return std::string(*v);
      }
    }
    return adapter_->StringValue(n);
  }

  /// XPath string() coercion: first node's string value for node sets.
  std::string ToStringValue(const Value& v) {
    switch (v.kind) {
      case Value::Kind::kNodeSet:
        return v.nodes.empty() ? std::string()
                               : NodeStringValue(v.nodes.front());
      case Value::Kind::kString:
        return v.str;
      case Value::Kind::kNumber:
        if (v.num == static_cast<int64_t>(v.num)) {
          return std::to_string(static_cast<int64_t>(v.num));
        }
        return std::to_string(v.num);
      case Value::Kind::kBool:
        return v.b ? "true" : "false";
      case Value::Kind::kMissing:
        return "";
    }
    return "";
  }

  /// XPath comparison: node sets compare existentially over string values.
  bool Compare(const Value& lhs, CompareOp op, const Value& rhs) {
    if (lhs.kind == Value::Kind::kMissing ||
        rhs.kind == Value::Kind::kMissing) {
      return false;
    }
    if (lhs.kind == Value::Kind::kNodeSet) {
      for (const Node& n : lhs.nodes) {
        Value lv;
        lv.kind = Value::Kind::kString;
        lv.str = NodeStringValue(n);
        if (Compare(lv, op, rhs)) return true;
      }
      return false;
    }
    if (rhs.kind == Value::Kind::kNodeSet) {
      for (const Node& n : rhs.nodes) {
        Value rv;
        rv.kind = Value::Kind::kString;
        rv.str = NodeStringValue(n);
        if (Compare(lhs, op, rv)) return true;
      }
      return false;
    }
    auto to_string = [](const Value& v) {
      if (v.kind == Value::Kind::kNumber) {
        // Render integers without a trailing ".0" for string comparisons.
        if (v.num == static_cast<int64_t>(v.num)) {
          return std::to_string(static_cast<int64_t>(v.num));
        }
        return std::to_string(v.num);
      }
      if (v.kind == Value::Kind::kBool) {
        return std::string(v.b ? "true" : "false");
      }
      return v.str;
    };
    return CompareValues(to_string(lhs), op, to_string(rhs));
  }

  const Adapter* adapter_;
  ExecContext* ctx_;
};

}  // namespace vpbn::query
