#include "query/eval_virtual.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

#include "common/parallel.h"
#include "pbn/packed.h"
#include "pbn/structural_join.h"
#include "query/cost_model.h"
#include "query/value_pushdown.h"

namespace vpbn::query {

using virt::VirtualNode;
using virt::Vpbn;

namespace {

/// Cache key for ExecContext::CachedVTypes: the test kind byte plus the
/// name (only kName tests have one, the others collapse per kind).
std::string TestCacheKey(const NodeTest& test) {
  std::string key(1, static_cast<char>('0' + static_cast<int>(test.kind)));
  key += test.name;
  return key;
}

/// The vDataGuide analogue of value_pushdown's ResolveChainTypes: the
/// terminal vtypes a predicate-free chain reaches from \p context by a
/// type-level frontier walk over the virtual type forest. Sorted ascending.
std::vector<vdg::VTypeId> ResolveVChainTypes(const vdg::VDataGuide& vg,
                                             vdg::VTypeId context,
                                             const Path& path) {
  std::vector<vdg::VTypeId> frontier{context};
  std::vector<char> seen;
  std::vector<vdg::VTypeId> stack;
  for (const Step& step : path.steps) {
    seen.assign(vg.num_vtypes(), 0);
    std::vector<vdg::VTypeId> next;
    auto add = [&](vdg::VTypeId t) {
      if (!seen[t]) {
        seen[t] = 1;
        next.push_back(t);
      }
    };
    auto matches = [&](vdg::VTypeId t) {
      return step.test.Matches(!vg.IsTextVType(t), vg.label(t));
    };
    for (vdg::VTypeId t : frontier) {
      switch (step.axis) {
        case num::Axis::kChild:
          for (vdg::VTypeId c : vg.children(t)) {
            if (matches(c)) add(c);
          }
          break;
        case num::Axis::kDescendant:
        case num::Axis::kDescendantOrSelf:
          // IsPredicateFreeChain admits only the anonymous '//' form of
          // descendant-or-self, which keeps the frontier itself and cannot
          // end a chain (see ResolveChainTypes).
          if (step.axis == num::Axis::kDescendantOrSelf) add(t);
          stack.assign(vg.children(t).begin(), vg.children(t).end());
          while (!stack.empty()) {
            const vdg::VTypeId d = stack.back();
            stack.pop_back();
            if (step.axis == num::Axis::kDescendantOrSelf || matches(d)) add(d);
            stack.insert(stack.end(), vg.children(d).begin(),
                         vg.children(d).end());
          }
          break;
        default:
          break;  // unreachable: IsPredicateFreeChain screens axes
      }
    }
    frontier = std::move(next);
  }
  std::sort(frontier.begin(), frontier.end());
  return frontier;
}

}  // namespace

/// One vtype's slice of the context: which context positions it occupies
/// and their PBNs as a flat column. Within one vtype the context
/// subsequence is already in document order, and equal-typed instances
/// have equal-length numbers, so the column is lexicographically sorted —
/// exactly what MergeCompatiblePairs requires of its inputs.
struct VirtualAdapter::ContextGroup {
  vdg::VTypeId vtype = vdg::kNullVType;
  std::vector<uint32_t> slots;  ///< context indexes, ascending
  num::DecodedPbnColumn col;    ///< context numbers, same order
};

/// One unit of batched axis work: merge the group's context column against
/// one result vtype's instance column (target != kNullVType), or run the
/// exact per-node chain expansion for every type the merges could not
/// cover (target == kNullVType). Tasks are independent — they are the
/// parallel grain — and their hit lists are appended in task order, so
/// results are identical for any thread count.
struct VirtualAdapter::JoinTask {
  const ContextGroup* group = nullptr;
  vdg::VTypeId target = vdg::kNullVType;
  bool reach_filter = false;  ///< drop candidates the bitmap marks orphaned
};

bool VirtualAdapter::VTypeMatches(vdg::VTypeId t, const NodeTest& test) const {
  const vdg::VDataGuide& vg = vdoc_->vguide();
  return test.Matches(!vg.IsTextVType(t), vg.label(t));
}

std::shared_ptr<const std::vector<vdg::VTypeId>> VirtualAdapter::MatchingVTypes(
    const NodeTest& test) const {
  auto build = [this, &test] {
    const vdg::VDataGuide& vg = vdoc_->vguide();
    std::vector<vdg::VTypeId> out;
    for (vdg::VTypeId t = 0; t < vg.num_vtypes(); ++t) {
      if (VTypeMatches(t, test)) out.push_back(t);
    }
    return out;
  };
  if (ctx_ != nullptr) return ctx_->CachedVTypes(TestCacheKey(test), build);
  return std::make_shared<const std::vector<vdg::VTypeId>>(build());
}

std::vector<VirtualNode> VirtualAdapter::DocumentRoots(
    const NodeTest& test) const {
  const vdg::VDataGuide& vg = vdoc_->vguide();
  std::vector<VirtualNode> out;
  for (vdg::VTypeId rt : vg.roots()) {
    if (!VTypeMatches(rt, test)) continue;
    const std::vector<xml::NodeId>& ids =
        vdoc_->stored().NodeIdsOfType(vg.original(rt));
    out.reserve(out.size() + ids.size());
    for (xml::NodeId id : ids) out.push_back(VirtualNode{id, rt});
  }
  return out;
}

std::vector<VirtualNode> VirtualAdapter::AllNodes(const NodeTest& test) const {
  const vdg::VDataGuide& vg = vdoc_->vguide();
  std::vector<VirtualNode> out;
  const auto types = MatchingVTypes(test);  // keep the cache entry alive
  for (vdg::VTypeId t : *types) {
    const std::vector<xml::NodeId>& ids =
        vdoc_->stored().NodeIdsOfType(vg.original(t));
    // Orphans (instances with no virtual-parent chain) are not part of
    // the virtual document; the memoized bitmap answers per index.
    const std::vector<uint8_t>* bm = vdoc_->ReachableBitmap(t);
    out.reserve(out.size() + ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      if (bm == nullptr || (*bm)[i] != 0) {
        out.push_back(VirtualNode{ids[i], t});
      }
    }
  }
  return out;
}

bool VirtualAdapter::ChainSafe(vdg::VTypeId top, vdg::VTypeId bottom) const {
  // The pure-number descendant join is exact when every intermediate
  // virtual type strictly between `top` and `bottom` has an original type
  // that is an ancestor-or-self of `bottom`'s original: the intermediate
  // instance is then a prefix of the candidate's number, so it exists and
  // is compatible with both endpoints. Otherwise a predicate hit could
  // rely on an intermediate instance that does not exist, and the
  // evaluator must expand actual chains instead.
  const vdg::VDataGuide& vg = vdoc_->vguide();
  const dg::DataGuide& orig = vg.original_guide();
  for (vdg::VTypeId i = vg.parent(bottom); i != top; i = vg.parent(i)) {
    if (i == vdg::kNullVType) return false;  // bottom not under top
    if (!orig.IsAncestorOrSelfType(vg.original(i), vg.original(bottom))) {
      return false;
    }
  }
  return true;
}

bool VirtualAdapter::ChainMergeable(vdg::VTypeId top,
                                    vdg::VTypeId bottom) const {
  if (!ChainSafe(top, bottom)) return false;  // also: bottom is under top
  const vdg::VDataGuide& vg = vdoc_->vguide();
  const dg::DataGuide& orig = vg.original_guide();
  for (vdg::VTypeId c = bottom; c != top; c = vg.parent(c)) {
    // A null original LCA empties the placement relation while the number
    // test stays vacuously true (the BatchAxis child-pair rule).
    if (orig.LcaType(vg.original(vg.parent(c)), vg.original(c)) ==
        dg::kNullType) {
      return false;
    }
  }
  return true;
}

std::shared_ptr<const std::vector<vdg::VTypeId>> VirtualAdapter::VChainTypes(
    const Path* chain, vdg::VTypeId context) const {
  auto build = [&] {
    return ResolveVChainTypes(vdoc_->vguide(), context, *chain);
  };
  if (ctx_ == nullptr) {
    return std::make_shared<const std::vector<vdg::VTypeId>>(build());
  }
  char key[64];
  std::snprintf(key, sizeof(key), "vvct:%p:%u",
                static_cast<const void*>(chain), context);
  return ctx_->CachedVTypes(key, build);
}

VirtualAdapter::Groups VirtualAdapter::GroupByVType(
    const std::vector<VirtualNode>& context) const {
  Groups groups;
  std::unordered_map<uint32_t, ContextGroup*> index;
  for (size_t i = 0; i < context.size(); ++i) {
    auto [it, inserted] = index.emplace(context[i].vtype, nullptr);
    if (inserted) {
      groups.push_back(std::make_unique<ContextGroup>());
      groups.back()->vtype = context[i].vtype;
      it->second = groups.back().get();
    }
    ContextGroup& g = *it->second;
    g.slots.push_back(static_cast<uint32_t>(i));
    const num::Pbn& p = vdoc_->stored().numbering().OfNode(context[i].node);
    g.col.Append(p.components().data(), static_cast<uint32_t>(p.length()));
  }
  return groups;
}

bool VirtualAdapter::MergeWins(size_t n_context,
                               std::optional<size_t> n_candidates) const {
  const size_t min_context = ctx_ != nullptr
                                 ? ctx_->vjoin_min_context()
                                 : ExecContext::kDefaultVJoinMinContext;
  if (ctx_ == nullptr || !ctx_->use_cost_model() ||
      min_context != ExecContext::kDefaultVJoinMinContext) {
    return n_context >= min_context;
  }
  const CostModel cm(vdoc_->stored());
  return n_candidates ? cm.MergeBeatsWalk(n_context, *n_candidates)
                      : cm.MergeCanBeatWalk(n_context);
}

void VirtualAdapter::CountJoin(const num::JoinCounters& total) const {
  if (ctx_ == nullptr) return;
  ctx_->CountComparisons(total.comparisons, total.bytes_compared);
  ctx_->CountVJoinPairs(total.vjoin_pairs);
  ctx_->CountDecodedBatches(total.decoded_batches);
  ctx_->CountBlockSkips(total.block_skips);
}

void VirtualAdapter::DescendantWalkUnsafe(const VirtualNode& n,
                                          const NodeTest& test,
                                          std::vector<VirtualNode>* out) const {
  // Exact expansion through actual virtual children; safe types are the
  // merge joins' (or Axis's own joins') responsibility and are skipped.
  std::vector<VirtualNode> frontier = vdoc_->Children(n);
  while (!frontier.empty()) {
    std::vector<VirtualNode> next;
    for (const VirtualNode& c : frontier) {
      if (VTypeMatches(c.vtype, test) && !ChainMergeable(n.vtype, c.vtype)) {
        out->push_back(c);
      }
      std::vector<VirtualNode> down = vdoc_->Children(c);
      next.insert(next.end(), down.begin(), down.end());
    }
    vdoc_->SortVirtualOrder(&next);
    frontier = std::move(next);
  }
}

void VirtualAdapter::AncestorWalkUnsafe(const VirtualNode& n,
                                        const NodeTest& test,
                                        std::vector<VirtualNode>* out) const {
  // Mirror of VirtualDocument::AxisNodes(kAncestor): climb actual
  // (reachable) parent chains, but emit only types the merges do not
  // cover. ChainSafe types are excluded even when their merge was skipped
  // for an impassable link — the climb cannot reach them anyway.
  std::vector<VirtualNode> frontier;
  for (const VirtualNode& p : vdoc_->Parents(n)) {
    if (vdoc_->IsReachable(p)) frontier.push_back(p);
  }
  while (!frontier.empty()) {
    std::vector<VirtualNode> next;
    for (const VirtualNode& p : frontier) {
      if (VTypeMatches(p.vtype, test) && !ChainSafe(p.vtype, n.vtype)) {
        out->push_back(p);
      }
      for (const VirtualNode& gp : vdoc_->Parents(p)) {
        if (vdoc_->IsReachable(gp)) next.push_back(gp);
      }
    }
    vdoc_->SortVirtualOrder(&next);
    frontier = std::move(next);
  }
}

void VirtualAdapter::RunJoinTask(
    const JoinTask& task, const std::vector<VirtualNode>& context,
    num::Axis axis, const NodeTest& test,
    std::vector<std::pair<uint32_t, VirtualNode>>* hits,
    num::JoinCounters* counters) const {
  const ContextGroup& g = *task.group;
  if (task.target == vdg::kNullVType) {
    // Fallback: exact chain expansion per context node of the group.
    const bool desc = axis == num::Axis::kDescendant ||
                      axis == num::Axis::kDescendantOrSelf;
    std::vector<VirtualNode> out;
    for (uint32_t slot : g.slots) {
      out.clear();
      if (desc) {
        DescendantWalkUnsafe(context[slot], test, &out);
      } else {
        AncestorWalkUnsafe(context[slot], test, &out);
      }
      // A node reachable through two placement chains is walked twice;
      // dedup here so every task's hit list — and with it each slot — is
      // duplicate-free (the BatchAxis contract).
      vdoc_->SortVirtualOrder(&out);
      for (const VirtualNode& n : out) hits->emplace_back(slot, n);
    }
    return;
  }
  const vdg::VDataGuide& vg = vdoc_->vguide();
  const dg::DataGuide& orig = vg.original_guide();
  const dg::TypeId ot = vg.original(task.target);
  bool built = false;
  const num::DecodedPbnColumn& cand = vdoc_->DecodedNodesOfType(ot, &built);
  if (built) counters->decoded_batches += 1;
  const std::vector<xml::NodeId>& ids = vdoc_->stored().NodeIdsOfType(ot);
  const virt::VPairMergePlan plan = vdoc_->space().PlanPairMerge(
      g.vtype, task.target, orig.length(vg.original(g.vtype)),
      orig.length(ot));
  const std::vector<uint8_t>* bm =
      task.reach_filter ? vdoc_->ReachableBitmap(task.target) : nullptr;
  virt::MergeCompatiblePairs(
      plan, g.col, cand, counters, [&](size_t xi, size_t yi) {
        if (bm != nullptr && (*bm)[yi] == 0) return;
        hits->emplace_back(g.slots[xi], VirtualNode{ids[yi], task.target});
      });
}

bool VirtualAdapter::BatchAxis(const std::vector<VirtualNode>& context,
                               num::Axis axis, const NodeTest& test,
                               std::vector<std::vector<VirtualNode>>* slots)
    const {
  return BatchAxisImpl(context, axis, test, slots, nullptr);
}

bool VirtualAdapter::BatchAxisFlat(const std::vector<VirtualNode>& context,
                                   num::Axis axis, const NodeTest& test,
                                   std::vector<VirtualNode>* out) const {
  return BatchAxisImpl(context, axis, test, nullptr, out);
}

bool VirtualAdapter::BatchAxisImpl(const std::vector<VirtualNode>& context,
                                   num::Axis axis, const NodeTest& test,
                                   std::vector<std::vector<VirtualNode>>* slots,
                                   std::vector<VirtualNode>* flat) const {
  using num::Axis;
  if (context.empty()) return false;
  if (ctx_ != nullptr && !ctx_->virtual_join()) return false;
  const bool desc =
      axis == Axis::kDescendant || axis == Axis::kDescendantOrSelf;
  const bool anc = axis == Axis::kAncestor || axis == Axis::kAncestorOrSelf;
  if (!desc && !anc && axis != Axis::kChild && axis != Axis::kParent) {
    return false;
  }
  // The descendant family already scans whole candidate lists per context
  // node, so merging wins at any context size. Child / parent / ancestor
  // trade sublinear per-node range scans for full-list merges (MergeWins).
  if (!desc) {
    const vdg::VDataGuide& cvg = vdoc_->vguide();
    const auto types = MatchingVTypes(test);  // keep the cache entry alive
    size_t candidates = 0;
    for (vdg::VTypeId t : *types) {
      candidates += vdoc_->stored().NodeIdsOfType(cvg.original(t)).size();
    }
    if (!MergeWins(context.size(), candidates)) return false;
  }

  const vdg::VDataGuide& vg = vdoc_->vguide();
  const dg::DataGuide& orig = vg.original_guide();

  if (slots != nullptr) slots->assign(context.size(), {});
  if (axis == Axis::kDescendantOrSelf || axis == Axis::kAncestorOrSelf) {
    for (size_t i = 0; i < context.size(); ++i) {
      if (VTypeMatches(context[i].vtype, test)) {
        if (slots != nullptr) {
          (*slots)[i].push_back(context[i]);
        } else {
          flat->push_back(context[i]);
        }
      }
    }
  }

  const Groups groups = GroupByVType(context);

  // One task per (context vtype, result vtype) pair the type forest can
  // produce, in deterministic enumeration order. Divergences between the
  // number predicates and actual placement are resolved here, pair by
  // pair, so merge results equal the per-candidate path exactly:
  //   * a null original LCA makes the child/parent placement relation
  //     empty while the number predicate is vacuously true — skip;
  //   * an ancestor chain with a null-LCA link is impassable for the
  //     parent-chain walk — stop enumerating at the break;
  //   * a not-ChainSafe pair may rely on intermediate instances that do
  //     not exist — leave it to the exact walk fallback.
  std::vector<JoinTask> tasks;
  for (const std::unique_ptr<ContextGroup>& gp : groups) {
    const ContextGroup& g = *gp;
    const vdg::VTypeId ct = g.vtype;
    const dg::TypeId cot = vg.original(ct);
    switch (axis) {
      case Axis::kChild:
        for (vdg::VTypeId t : vg.children(ct)) {
          if (!VTypeMatches(t, test)) continue;
          if (orig.LcaType(cot, vg.original(t)) == dg::kNullType) continue;
          tasks.push_back({&g, t, false});
        }
        break;
      case Axis::kParent: {
        const vdg::VTypeId pt = vg.parent(ct);
        if (pt != vdg::kNullVType && VTypeMatches(pt, test) &&
            orig.LcaType(cot, vg.original(pt)) != dg::kNullType) {
          tasks.push_back({&g, pt, !vdoc_->IsGuaranteedReachable(pt)});
        }
        break;
      }
      case Axis::kDescendant:
      case Axis::kDescendantOrSelf: {
        bool need_walk = false;
        std::vector<vdg::VTypeId> stack(vg.children(ct).rbegin(),
                                        vg.children(ct).rend());
        while (!stack.empty()) {
          const vdg::VTypeId dt = stack.back();
          stack.pop_back();
          for (auto it = vg.children(dt).rbegin();
               it != vg.children(dt).rend(); ++it) {
            stack.push_back(*it);
          }
          if (!VTypeMatches(dt, test)) continue;
          if (ChainMergeable(ct, dt)) {
            tasks.push_back({&g, dt, false});
          } else {
            need_walk = true;
          }
        }
        if (need_walk) tasks.push_back({&g, vdg::kNullVType, false});
        break;
      }
      case Axis::kAncestor:
      case Axis::kAncestorOrSelf: {
        bool need_walk = false;
        vdg::VTypeId prev = ct;
        for (vdg::VTypeId at = vg.parent(ct); at != vdg::kNullVType;
             prev = at, at = vg.parent(at)) {
          if (orig.LcaType(vg.original(at), vg.original(prev)) ==
              dg::kNullType) {
            break;  // impassable link: nothing at or above is an ancestor
          }
          if (!VTypeMatches(at, test)) continue;
          if (ChainSafe(at, ct)) {
            tasks.push_back({&g, at, !vdoc_->IsGuaranteedReachable(at)});
          } else {
            need_walk = true;
          }
        }
        if (need_walk) tasks.push_back({&g, vdg::kNullVType, false});
        break;
      }
      default:
        break;
    }
  }
  if (tasks.empty()) return true;  // slots may still hold -or-self seeds

  std::vector<std::vector<std::pair<uint32_t, VirtualNode>>> hit_lists(
      tasks.size());
  std::vector<num::JoinCounters> task_counters(tasks.size());
  common::ThreadPool* pool = ctx_ != nullptr ? ctx_->pool() : nullptr;
  // ParallelFor runs inline when there is no usable pool or too few tasks;
  // hit lists are per-task, so no synchronization is needed either way.
  common::ParallelFor(pool, tasks.size(), /*grain=*/1,
                      [&](size_t lo, size_t hi) {
                        for (size_t i = lo; i < hi; ++i) {
                          RunJoinTask(tasks[i], context, axis, test,
                                      &hit_lists[i], &task_counters[i]);
                        }
                      });

  num::JoinCounters total;
  for (const num::JoinCounters& c : task_counters) total.Add(c);
  CountJoin(total);

  // Task order is deterministic and the caller sorts downstream (per slot
  // or over the flattened list), so the result is identical for any thread
  // count.
  if (slots != nullptr) {
    for (const auto& hits : hit_lists) {
      for (const auto& [slot, node] : hits) {
        (*slots)[slot].push_back(node);
      }
    }
  } else {
    size_t total = flat->size();
    for (const auto& hits : hit_lists) total += hits.size();
    flat->reserve(total);
    for (const auto& hits : hit_lists) {
      for (const auto& [slot, node] : hits) flat->push_back(node);
    }
  }
  return true;
}

bool VirtualAdapter::CanBatchPredicate(const Expr& e, vdg::VTypeId ct,
                                       size_t* candidates) const {
  switch (e.kind) {
    case Expr::Kind::kAnd:
    case Expr::Kind::kOr:
      return CanBatchPredicate(*e.lhs, ct, candidates) &&
             CanBatchPredicate(*e.rhs, ct, candidates);
    case Expr::Kind::kNot:
      return CanBatchPredicate(*e.lhs, ct, candidates);
    default:
      break;
  }
  const bool compare = e.kind != Expr::Kind::kPath;
  const Path* chain = nullptr;
  ValuePred vp;
  if (!compare) {
    if (!IsPredicateFreeChain(e.path)) return false;
    chain = &e.path;
  } else if (RecognizeValuePred(e, &vp) &&
             vp.kind == ValuePred::Kind::kPathCompare) {
    chain = vp.path;
  } else {
    return false;  // contains / starts-with / attributes stay per node
  }
  const vdg::VDataGuide& vg = vdoc_->vguide();
  const auto tts = VChainTypes(chain, ct);  // keep the list alive
  for (vdg::VTypeId tt : *tts) {
    if (!ChainMergeable(ct, tt)) return false;
    // Witnesses come from the value column, so the merge answers exactly
    // the values FastStringValue would have compared.
    if (compare && vdoc_->ValueColumn(tt) == nullptr) return false;
    *candidates += vdoc_->stored().NodeIdsOfType(vg.original(tt)).size();
  }
  return true;
}

std::shared_ptr<const std::vector<uint32_t>> VirtualAdapter::PredicateGate(
    const Expr& pred, vdg::VTypeId ct) const {
  auto build = [&] {
    size_t candidates = 0;
    return CanBatchPredicate(pred, ct, &candidates)
               ? std::vector<uint32_t>{static_cast<uint32_t>(candidates)}
               : std::vector<uint32_t>{};
  };
  if (ctx_ == nullptr) {
    return std::make_shared<const std::vector<uint32_t>>(build());
  }
  // Raw bytes behind a one-letter tag (no other key starts with 'g'):
  // short enough for std::string's inline buffer, and no formatting — this
  // runs for every per-slot list of a predicated step.
  const Expr* e = &pred;
  std::string key(1, 'g');
  key.append(reinterpret_cast<const char*>(&e), sizeof(e));
  key.append(reinterpret_cast<const char*>(&ct), sizeof(ct));
  return ctx_->CachedVTypes(key, build);
}

void VirtualAdapter::EvalBatchPredicate(const Expr& e, const Groups& groups,
                                        std::vector<char>* keep,
                                        num::JoinCounters* counters) const {
  switch (e.kind) {
    case Expr::Kind::kAnd:
    case Expr::Kind::kOr: {
      EvalBatchPredicate(*e.lhs, groups, keep, counters);
      std::vector<char> rhs(keep->size(), 0);
      EvalBatchPredicate(*e.rhs, groups, &rhs, counters);
      for (size_t i = 0; i < keep->size(); ++i) {
        (*keep)[i] = e.kind == Expr::Kind::kAnd ? ((*keep)[i] && rhs[i])
                                                : ((*keep)[i] || rhs[i]);
      }
      return;
    }
    case Expr::Kind::kNot:
      EvalBatchPredicate(*e.lhs, groups, keep, counters);
      for (size_t i = 0; i < keep->size(); ++i) (*keep)[i] = !(*keep)[i];
      return;
    default:
      break;
  }
  // A leaf CanBatchPredicate vetted: bare-chain existence (every terminal
  // instance is a witness) or [chain op literal] (the matching rows are).
  ValuePred vp;
  const bool compare = e.kind != Expr::Kind::kPath;
  if (compare) RecognizeValuePred(e, &vp);
  const Path* chain = compare ? vp.path : &e.path;
  const vdg::VDataGuide& vg = vdoc_->vguide();
  const dg::DataGuide& orig = vg.original_guide();
  num::DecodedPbnColumn matched;
  for (const std::unique_ptr<ContextGroup>& gp : groups) {
    const ContextGroup& g = *gp;
    const auto tts = VChainTypes(chain, g.vtype);
    for (vdg::VTypeId tt : *tts) {
      const dg::TypeId ot = vg.original(tt);
      bool built = false;
      const num::DecodedPbnColumn& all = vdoc_->DecodedNodesOfType(ot, &built);
      if (built) counters->decoded_batches += 1;
      const num::DecodedPbnColumn* witnesses = &all;
      if (compare) {
        // Keyed per vtype, not per original type: two vtypes over one
        // original type may carry different (assembled) values, and the
        // column's own dictionary is the one a non-intact vtype carries.
        const auto rows = MatchingRows(*vdoc_->ValueColumn(tt), &e, tt,
                                       vp.op, vp.lit, ctx_);
        if (rows->empty()) continue;
        matched.Clear();
        matched.Reserve(rows->size(), orig.length(ot));
        for (uint32_t r : *rows) matched.Append(all.comps(r), all.length(r));
        witnesses = &matched;
      }
      const virt::VPairMergePlan plan = vdoc_->space().PlanPairMerge(
          g.vtype, tt, orig.length(vg.original(g.vtype)), orig.length(ot));
      virt::MergeCompatiblePairs(plan, g.col, *witnesses, counters,
                                 [&](size_t xi, size_t) {
                                   (*keep)[g.slots[xi]] = 1;
                                 });
    }
  }
}

bool VirtualAdapter::BatchPredicate(const Expr& pred,
                                    const std::vector<VirtualNode>& nodes,
                                    std::vector<char>* keep) const {
  if (nodes.empty()) return false;
  // Every decline leaves the predicate to the per-node walk.
  auto decline = [&] {
    if (ctx_ != nullptr) ctx_->CountValueScanFallbacks(nodes.size());
    return false;
  };
  if (ctx_ != nullptr && (!ctx_->virtual_join() || !ctx_->use_value_index())) {
    return decline();
  }
  // Decide before grouping: a predicated step calls this once per context
  // node's short axis list, and a decline must cost far less than the
  // walk it hands back — lists too short for any merge to win decline
  // before a single lookup.
  if (!MergeWins(nodes.size(), std::nullopt)) return decline();
  std::vector<vdg::VTypeId> vtypes;
  size_t candidates = 0;
  for (const VirtualNode& n : nodes) {
    if (std::find(vtypes.begin(), vtypes.end(), n.vtype) != vtypes.end()) {
      continue;
    }
    vtypes.push_back(n.vtype);
    const auto gate = PredicateGate(pred, n.vtype);
    if (gate->empty()) return decline();
    candidates += gate->front();
  }
  if (!MergeWins(nodes.size(), candidates)) return decline();
  const Groups groups = GroupByVType(nodes);
  keep->assign(nodes.size(), 0);
  num::JoinCounters counters;
  EvalBatchPredicate(pred, groups, keep, &counters);
  CountJoin(counters);
  return true;
}

std::vector<VirtualNode> VirtualAdapter::Axis(const VirtualNode& n,
                                              num::Axis axis,
                                              const NodeTest& test) const {
  using num::Axis;
  const vdg::VDataGuide& vg = vdoc_->vguide();
  const virt::VpbnSpace& space = vdoc_->space();
  std::vector<VirtualNode> out;
  Vpbn vn = vdoc_->VpbnOf(n);
  virt::VpbnView vview(vn);
  switch (axis) {
    case Axis::kSelf:
      if (VTypeMatches(n.vtype, test)) out.push_back(n);
      break;
    case Axis::kChild:
      // The placement relation enumerates exactly the virtual children of
      // each child virtual type (containment scans / prefix lookups).
      for (vdg::VTypeId ct : vg.children(n.vtype)) {
        if (!VTypeMatches(ct, test)) continue;
        std::vector<VirtualNode> related = vdoc_->RelatedInstances(n.node, ct);
        out.insert(out.end(), related.begin(), related.end());
      }
      break;
    case Axis::kDescendant:
    case Axis::kDescendantOrSelf: {
      if (axis == Axis::kDescendantOrSelf && VTypeMatches(n.vtype, test)) {
        out.push_back(n);
      }
      // vPBN structural join per descendant type (Theorem 1) when the
      // intermediate chain provably exists; otherwise fall back to actual
      // chain expansion for the unsafe types.
      bool need_bfs = false;
      std::vector<vdg::VTypeId> stack(vg.children(n.vtype).rbegin(),
                                      vg.children(n.vtype).rend());
      while (!stack.empty()) {
        vdg::VTypeId dt = stack.back();
        stack.pop_back();
        for (auto it = vg.children(dt).rbegin(); it != vg.children(dt).rend();
             ++it) {
          stack.push_back(*it);
        }
        if (!VTypeMatches(dt, test)) continue;
        if (!ChainMergeable(n.vtype, dt)) {
          need_bfs = true;
          continue;
        }
        // Stream the packed arena of the type's instances (aligned with
        // the NodeId column): each candidate is decoded once into the
        // reused buffer and tested without materializing a Pbn.
        const storage::StoredDocument& sd = vdoc_->stored();
        const num::PackedPbnList& packed =
            sd.PackedNodesOfType(vg.original(dt));
        const std::vector<xml::NodeId>& ids =
            sd.NodeIdsOfType(vg.original(dt));
        std::vector<uint32_t> buf;
        for (size_t i = 0; i < packed.size(); ++i) {
          virt::VpbnView cv = virt::DecodeView(packed[i], dt, &buf);
          if (space.VDescendant(cv, vview)) {
            out.push_back(VirtualNode{ids[i], dt});
          }
        }
      }
      if (need_bfs) {
        DescendantWalkUnsafe(n, test, &out);
      }
      break;
    }
    case Axis::kParent: {
      // AxisNodes filters out orphaned parent instances.
      for (const VirtualNode& p : vdoc_->AxisNodes(n, Axis::kParent)) {
        if (VTypeMatches(p.vtype, test)) out.push_back(p);
      }
      break;
    }
    case Axis::kAncestor:
    case Axis::kAncestorOrSelf: {
      // Exact: walk actual parent chains (an instance of an ancestor type
      // is only an ancestor if a chain of placements connects it).
      for (const VirtualNode& a : vdoc_->AxisNodes(n, axis)) {
        if (VTypeMatches(a.vtype, test)) out.push_back(a);
      }
      break;
    }
    case Axis::kFollowing:
    case Axis::kPreceding: {
      const storage::StoredDocument& sd = vdoc_->stored();
      std::vector<uint32_t> buf;
      const auto types = MatchingVTypes(test);  // keep the cache entry alive
      for (vdg::VTypeId t : *types) {
        const num::PackedPbnList& packed =
            sd.PackedNodesOfType(vg.original(t));
        const std::vector<xml::NodeId>& ids = sd.NodeIdsOfType(vg.original(t));
        for (size_t i = 0; i < packed.size(); ++i) {
          virt::VpbnView cv = virt::DecodeView(packed[i], t, &buf);
          bool hit = axis == Axis::kFollowing ? space.VFollowing(cv, vview)
                                              : space.VPreceding(cv, vview);
          if (!hit) continue;
          VirtualNode cand{ids[i], t};
          if (vdoc_->IsReachable(cand)) out.push_back(cand);
        }
      }
      break;
    }
    case Axis::kFollowingSibling:
    case Axis::kPrecedingSibling: {
      // Exact: siblings are children of the node's actual parents.
      for (const VirtualNode& s : vdoc_->AxisNodes(n, axis)) {
        if (VTypeMatches(s.vtype, test)) out.push_back(s);
      }
      break;
    }
    case Axis::kAttribute:
      break;
  }
  return out;
}

void VirtualAdapter::SortUnique(std::vector<VirtualNode>* nodes) const {
  vdoc_->SortVirtualOrder(nodes);
}

std::string VirtualAdapter::StringValue(const VirtualNode& n) const {
  return vdoc_->StringValue(n);
}

std::optional<std::string_view> VirtualAdapter::FastStringValue(
    const VirtualNode& n) const {
  if (ctx_ != nullptr && !ctx_->use_value_index()) return std::nullopt;
  const idx::TypeColumn* col = vdoc_->ValueColumn(n.vtype);
  if (col == nullptr) return std::nullopt;
  if (ctx_ != nullptr) ctx_->CountValueIndexLookups(1);
  return col->dict->term(
      col->term_ids[vdoc_->stored().RowOfNode(n.node)]);
}

Result<std::string> VirtualAdapter::Attribute(const VirtualNode& n,
                                              const std::string& name) const {
  const xml::Document& doc = vdoc_->stored().doc();
  if (!doc.IsElement(n.node)) {
    return Status::NotFound("text node has no attributes");
  }
  return doc.AttributeValue(n.node, name);
}

Result<std::vector<VirtualNode>> EvalVirtual(
    const virt::VirtualDocument& vdoc, std::string_view path_text) {
  VPBN_ASSIGN_OR_RETURN(Path path, ParsePath(path_text));
  return EvalVirtual(vdoc, path);
}

Result<std::vector<VirtualNode>> EvalVirtual(
    const virt::VirtualDocument& vdoc, const Path& path, ExecContext* ctx) {
  VirtualAdapter adapter(vdoc, ctx);
  PathEvaluator<VirtualAdapter> evaluator(adapter, ctx);
  return evaluator.Eval(path);
}

}  // namespace vpbn::query
