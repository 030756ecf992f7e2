/// \file eval_virtual.h
/// \brief Virtual evaluation: the paper's contribution applied to queries.
///
/// Path steps run directly against the vDataGuide's virtual type forest and
/// the original document's type index; axis membership between instances is
/// decided by vPBN number comparison (vpbn/vpbn.h). No data is transformed:
/// "our approach is to virtually transform only the data needed by the
/// query by applying the transformation at the level of the node numbers
/// used in the query" (§4.3).
///
/// Axis evaluation is join-based where the axis allows it: BatchAxis
/// partitions the context by virtual type and, for every (context-vtype,
/// result-vtype) pair the type forest can produce, runs one merge
/// (virt::MergeCompatiblePairs) over the pair's batch-decoded instance
/// columns — a linear pass per pair instead of |context| x |candidates|
/// predicate calls. Pairs whose intermediate chain is not provably intact
/// (ChainSafe), or crosses a link whose original types share no LCA, fall
/// back to the exact per-node chain expansion, so results are
/// byte-identical to the per-candidate path.
///
/// Value predicates run set-at-a-time the same way (BatchPredicate): for
/// `[chain op literal]` the content condition is answered first — one
/// probe of each terminal vtype's value column yields the witness rows —
/// and structure is decided on the survivors by one merge per (context
/// vtype, terminal vtype) pair, instead of a relative-path walk and a
/// string compare per context node.

#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "query/evaluator.h"
#include "query/path_parser.h"
#include "vpbn/virtual_document.h"

namespace vpbn::query {

/// \brief Adapter over a VirtualDocument for PathEvaluator.
class VirtualAdapter {
 public:
  using Node = virt::VirtualNode;

  /// \p ctx (optional) supplies the merge-join knobs, the MatchingVTypes
  /// cache and the stats counters; it must outlive the adapter.
  explicit VirtualAdapter(const virt::VirtualDocument& vdoc,
                          ExecContext* ctx = nullptr)
      : vdoc_(&vdoc), ctx_(ctx) {}

  std::vector<Node> DocumentRoots(const NodeTest& test) const;
  std::vector<Node> AllNodes(const NodeTest& test) const;
  std::vector<Node> Axis(const Node& n, num::Axis axis,
                         const NodeTest& test) const;

  /// Whole-context axis evaluation by vtype-pair merge joins (see the file
  /// comment). True: slots[i] holds Axis(context[i], axis, test) as a set,
  /// duplicate-free. False: axis not covered (self / order / sibling axes),
  /// merge joins disabled (ExecContext::virtual_join), or the context is
  /// too small for a full-list merge to beat the per-node range scans.
  bool BatchAxis(const std::vector<Node>& context, num::Axis axis,
                 const NodeTest& test,
                 std::vector<std::vector<Node>>* slots) const;

  /// BatchAxis without the per-slot materialization: appends every hit to
  /// \p out directly (task order; the caller's SortUnique restores document
  /// order). For steps with no predicates this skips one small vector
  /// allocation per context node — positional semantics never look at the
  /// per-slot lists there, and slots are duplicate-free, so the flattened
  /// result and the per-node counts are unchanged. Same false conditions
  /// as BatchAxis.
  bool BatchAxisFlat(const std::vector<Node>& context, num::Axis axis,
                     const NodeTest& test, std::vector<Node>* out) const;

  /// Whole-list predicate evaluation (evaluator.h AdapterHasBatchPredicate).
  /// Covers `[chain op literal]`, bare `[chain]` existence and and / or /
  /// not compositions of those, where `chain` is a predicate-free
  /// child/descendant chain (IsPredicateFreeChain). Per context vtype the
  /// chain resolves to terminal vtypes over the vDataGuide; each terminal
  /// vtype's witnesses (value-column rows matching the literal, or every
  /// instance for existence) are merged once against the context group's
  /// numbers, and every context slot that pairs is kept. True: keep[i] is
  /// the truth value per-node evaluation gives nodes[i]. False (nothing
  /// written; the per-node walk runs): shape not covered (contains /
  /// starts-with / attributes / positions), value index or merge joins
  /// disabled, a terminal vtype not ChainSafe from its context vtype or
  /// reached over a link with no original LCA, a compared terminal vtype
  /// without a value column, or the merge costed to lose (the BatchAxis
  /// rule).
  bool BatchPredicate(const Expr& pred, const std::vector<Node>& nodes,
                      std::vector<char>* keep) const;

  void SortUnique(std::vector<Node>* nodes) const;
  std::string StringValue(const Node& n) const;
  Result<std::string> Attribute(const Node& n, const std::string& name) const;

  /// String value served from the virtual document's per-vtype value
  /// column (intact vtypes reuse the stored index's column; covered
  /// non-intact vtypes read their lazily assembled column). nullopt when
  /// the vtype is not covered or the value index is disabled — the caller
  /// assembles the value per node, as before.
  std::optional<std::string_view> FastStringValue(const Node& n) const;

  const virt::VirtualDocument& vdoc() const { return *vdoc_; }

 private:
  struct ContextGroup;
  struct JoinTask;

  using Groups = std::vector<std::unique_ptr<ContextGroup>>;

  /// Partitions \p context by vtype, preserving order (see ContextGroup).
  Groups GroupByVType(const std::vector<Node>& context) const;
  /// Whether a full-list merge is worth its pass over \p n_candidates
  /// instances for a context of \p n_context nodes, against per-node range
  /// walks: costed (CostModel::MergeBeatsWalk) when the cost model is on,
  /// else the vjoin_min_context threshold. An explicitly set
  /// vjoin_min_context (tests pin it to 1 to force merging on tiny
  /// documents) wins over the cost model. With \p n_candidates unknown
  /// (nullopt): whether any candidate volume could make the merge win.
  bool MergeWins(size_t n_context, std::optional<size_t> n_candidates) const;
  /// Folds one batch's merge counters into the ExecContext (if any).
  void CountJoin(const num::JoinCounters& total) const;

  bool VTypeMatches(vdg::VTypeId t, const NodeTest& test) const;
  bool ChainSafe(vdg::VTypeId top, vdg::VTypeId bottom) const;
  /// ChainSafe plus a non-null original LCA on every vDataGuide link from
  /// \p top down to \p bottom: the pure-number descendant test then
  /// decides exactly the chains the per-node walk finds. (Across a null-LCA
  /// link the placement relation is empty while the number test is
  /// vacuously true, so such types are left to the walk, which finds none.)
  bool ChainMergeable(vdg::VTypeId top, vdg::VTypeId bottom) const;
  /// Terminal vtypes the predicate-free \p chain reaches from \p context
  /// over the vDataGuide (the analogue of value_pushdown's ChainTypes),
  /// memoized per (chain, vtype) in the ExecContext.
  std::shared_ptr<const std::vector<vdg::VTypeId>> VChainTypes(
      const Path* chain, vdg::VTypeId context) const;

  /// BatchPredicate's shape check for context vtype \p ct; adds the
  /// terminal instances the merges would stream to \p candidates.
  bool CanBatchPredicate(const Expr& e, vdg::VTypeId ct,
                         size_t* candidates) const;
  /// CanBatchPredicate memoized per (predicate, vtype) in the ExecContext:
  /// empty when the predicate cannot batch from \p ct, else {candidates}.
  std::shared_ptr<const std::vector<uint32_t>> PredicateGate(
      const Expr& pred, vdg::VTypeId ct) const;
  void EvalBatchPredicate(const Expr& e, const Groups& groups,
                          std::vector<char>* keep,
                          num::JoinCounters* counters) const;
  std::shared_ptr<const std::vector<vdg::VTypeId>> MatchingVTypes(
      const NodeTest& test) const;

  /// Exact chain expansion for descendant types where ChainSafe fails,
  /// shared by Axis() and the batch fallback tasks: walks actual virtual
  /// children from \p n, emitting matching nodes of unsafe types.
  void DescendantWalkUnsafe(const Node& n, const NodeTest& test,
                            std::vector<Node>* out) const;
  /// Ancestor counterpart: climbs actual (reachable) virtual parents from
  /// \p n, emitting matching ancestors whose type the merges do not cover.
  void AncestorWalkUnsafe(const Node& n, const NodeTest& test,
                          std::vector<Node>* out) const;

  void RunJoinTask(const JoinTask& task, const std::vector<Node>& context,
                   num::Axis axis, const NodeTest& test,
                   std::vector<std::pair<uint32_t, Node>>* hits,
                   num::JoinCounters* counters) const;

  /// Shared core of BatchAxis / BatchAxisFlat: exactly one of \p slots and
  /// \p flat is non-null.
  bool BatchAxisImpl(const std::vector<Node>& context, num::Axis axis,
                     const NodeTest& test,
                     std::vector<std::vector<Node>>* slots,
                     std::vector<Node>* flat) const;

  const virt::VirtualDocument* vdoc_;
  ExecContext* ctx_;
};

/// \brief Parse and evaluate \p path_text over the virtual document.
Result<std::vector<virt::VirtualNode>> EvalVirtual(
    const virt::VirtualDocument& vdoc, std::string_view path_text);

/// \brief Evaluate a pre-parsed path. \p ctx (optional) carries the
/// evaluation knobs and collects ExecStats (see query/engine.h).
Result<std::vector<virt::VirtualNode>> EvalVirtual(
    const virt::VirtualDocument& vdoc, const Path& path,
    ExecContext* ctx = nullptr);

}  // namespace vpbn::query
