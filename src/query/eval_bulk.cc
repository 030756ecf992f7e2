#include "query/eval_bulk.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
#include <map>

#include "pbn/packed.h"
#include "pbn/structural_join.h"
#include "query/cost_model.h"
#include "query/eval_indexed.h"
#include "query/value_pushdown.h"

namespace vpbn::query {

namespace {

using num::PackedPbnList;
using num::Pbn;

/// Surviving instances of one type, as rows of the type's document-ordered
/// instance list (StoredDocument::PackedNodesOfType). Rows align with
/// NodeIdsOfType, RowOfNode and every value and attribute column, so
/// predicates read those directly. A whole type is borrowed (`all`), never
/// copied; only survivor subsets own a row vector.
struct RowSet {
  bool all = false;
  size_t n = 0;                ///< size of the set when `all`
  std::vector<uint32_t> rows;  ///< ascending rows when not `all`

  size_t size() const { return all ? n : rows.size(); }
  bool empty() const { return size() == 0; }
  /// The i-th surviving row.
  uint32_t row(size_t i) const {
    return all ? static_cast<uint32_t>(i) : rows[i];
  }
};

/// Per-type survivors, in type order.
using State = std::map<dg::TypeId, RowSet>;

/// Every instance of a type with \p n instances.
RowSet AllRows(size_t n) {
  RowSet s;
  s.all = true;
  s.n = n;
  return s;
}

/// Ascending distinct \p rows of a type with \p type_size instances; a
/// set that turns out to hold every instance is stored as borrowed.
RowSet Rows(std::vector<uint32_t> rows, size_t type_size) {
  if (rows.size() == type_size) return AllRows(type_size);
  RowSet s;
  s.rows = std::move(rows);
  return s;
}

/// Union of two survivor sets of the same type.
RowSet Union(RowSet a, const RowSet& b) {
  if (a.all) return a;
  if (b.all) return b;
  std::vector<uint32_t> merged;
  merged.reserve(a.rows.size() + b.rows.size());
  std::set_union(a.rows.begin(), a.rows.end(), b.rows.begin(), b.rows.end(),
                 std::back_inserter(merged));
  a.rows = std::move(merged);
  return a;
}

/// The packed numbers of \p rs as a join input: \p full itself when every
/// instance survives, else the survivors gathered into \p scratch.
const PackedPbnList& Gather(const PackedPbnList& full, const RowSet& rs,
                            PackedPbnList* scratch) {
  if (rs.all) return full;
  scratch->Reserve(rs.rows.size(),
                   full.empty() ? 8 : full.arena_bytes() / full.size() + 1);
  for (uint32_t r : rs.rows) scratch->Append(full[r]);
  return *scratch;
}

bool TypeMatches(const dg::DataGuide& g, dg::TypeId t, const NodeTest& test) {
  return test.Matches(!g.IsTextType(t), g.label(t));
}

/// Fragment test: child/descendant chains, name-ish tests, predicates that
/// are existence chains of the same shape or recognized value predicates
/// ([path op literal], [@attr op literal], contains()/starts-with() — see
/// query/value_pushdown.h).
bool InFragment(const Path& path) {
  for (size_t i = 0; i < path.steps.size(); ++i) {
    const Step& step = path.steps[i];
    switch (step.axis) {
      case num::Axis::kChild:
      case num::Axis::kDescendant:
        break;
      case num::Axis::kDescendantOrSelf:
        // Only the '//'-style anonymous step (no predicates).
        if (step.test.kind != NodeTest::Kind::kAnyNode ||
            !step.predicates.empty()) {
          return false;
        }
        break;
      default:
        return false;
    }
    for (const auto& pred : step.predicates) {
      if (pred->kind == Expr::Kind::kPath) {
        if (!InFragment(pred->path)) return false;
        continue;
      }
      ValuePred vp;
      if (!RecognizeValuePred(*pred, &vp)) return false;
    }
  }
  return !path.steps.empty();
}

/// Runs the packed structural join for one step edge and flushes its work
/// counters into the context.
std::vector<num::JoinPair> Join(num::Axis axis, const PackedPbnList& ancestors,
                                const PackedPbnList& descendants,
                                ExecContext* ctx) {
  num::JoinCounters jc;
  std::vector<num::JoinPair> pairs =
      axis == num::Axis::kChild
          ? num::ParentChildJoin(ancestors, descendants, &jc)
          : num::AncestorDescendantJoin(ancestors, descendants, &jc);
  if (ctx) {
    ctx->CountJoinPairs(pairs.size());
    ctx->CountComparisons(jc.comparisons, jc.bytes_compared);
    ctx->CountBlockSkips(jc.block_skips);
  }
  return pairs;
}

/// The instances of type \p nt (every one, as the join's descendant side)
/// that stand in \p axis relation to a survivor of \p context: the join's
/// descendant indexes are rows of \p nt already, in ascending order (the
/// join emits pairs by descendant), so survivors are read straight off
/// them.
RowSet StepJoin(const storage::StoredDocument& stored, num::Axis axis,
                const PackedPbnList& context, dg::TypeId nt,
                ExecContext* ctx) {
  const PackedPbnList& all = stored.PackedNodesOfType(nt);
  std::vector<num::JoinPair> pairs = Join(axis, context, all, ctx);
  std::vector<uint32_t> rows;
  rows.reserve(pairs.size());
  for (const num::JoinPair& p : pairs) {
    const auto row = static_cast<uint32_t>(p.descendant_index);
    if (rows.empty() || rows.back() != row) rows.push_back(row);
  }
  if (ctx) ctx->CountNodes(rows.size());
  return Rows(std::move(rows), all.size());
}

/// The survivors of \p rs (rows of \p full) that are the proper ancestor at
/// depth \p depth of some witness: each witness's one candidate is its
/// number cut to \p depth components, found by binary search in \p full.
/// Witnesses arrive in document order, so the candidates do too and every
/// search starts where the previous one ended.
RowSet ProbeAncestors(const PackedPbnList& full, const RowSet& rs,
                      size_t depth, const PackedPbnList& witnesses,
                      ExecContext* ctx) {
  PackedPbnList prefixes;
  prefixes.Reserve(witnesses.size());
  std::vector<uint32_t> rows;
  uint64_t comparisons = 0;
  uint64_t bytes = 0;
  size_t lo = 0;      // search floor in `full`
  size_t member = 0;  // cursor into rs.rows when not `all`
  for (size_t i = 0; i < witnesses.size(); ++i) {
    const num::PackedPbnRef w = witnesses[i];
    if (w.length() <= depth) continue;  // not a proper descendant
    prefixes.AppendPrefix(w, depth);
    const num::PackedPbnRef anc = prefixes[prefixes.size() - 1];
    size_t first = lo;
    size_t count = full.size() - lo;
    while (count > 0) {
      const size_t half = count / 2;
      ++comparisons;
      bytes += anc.size_bytes();
      if (full[first + half] < anc) {
        first += half + 1;
        count -= half + 1;
      } else {
        count = half;
      }
    }
    lo = first;
    if (first == full.size() || !(full[first] == anc)) continue;
    const auto row = static_cast<uint32_t>(first);
    if (!rows.empty() && rows.back() == row) continue;
    if (!rs.all) {
      while (member < rs.rows.size() && rs.rows[member] < row) ++member;
      if (member == rs.rows.size() || rs.rows[member] != row) continue;
    }
    rows.push_back(row);
  }
  if (ctx) {
    ctx->CountComparisons(comparisons, bytes);
    ctx->CountJoinPairs(rows.size());
    ctx->CountNodes(rows.size());
  }
  return Rows(std::move(rows), full.size());
}

/// Retains the survivors \p rs of type \p t that have at least one
/// descendant in `witnesses` (all witness types are descendants of the
/// context type, so the ancestor side identifies survivors).
///
/// Instances of one type never nest and all sit at one depth (a type is a
/// root-to-node label path), so each witness has at most one ancestor
/// here. When the witnesses are few, probing for that ancestor directly
/// (ProbeAncestors) costs O(witnesses · log |type|) instead of a merge over
/// the whole context; otherwise the structural join runs and the
/// survivors are its ancestor indexes.
RowSet SemiJoinAncestors(const storage::StoredDocument& stored, dg::TypeId t,
                         const RowSet& rs, const PackedPbnList& witnesses,
                         ExecContext* ctx) {
  const PackedPbnList& full = stored.PackedNodesOfType(t);
  if (rs.empty() || witnesses.empty()) return RowSet{};
  const size_t probe_cost =
      witnesses.size() * static_cast<size_t>(std::bit_width(full.size()));
  if (probe_cost < rs.size()) {
    return ProbeAncestors(full, rs, full[rs.row(0)].length(), witnesses, ctx);
  }
  PackedPbnList scratch;
  const PackedPbnList& context = Gather(full, rs, &scratch);
  std::vector<num::JoinPair> pairs =
      Join(num::Axis::kDescendant, context, witnesses, ctx);
  std::vector<uint32_t> rows;
  rows.reserve(pairs.size());
  for (const num::JoinPair& p : pairs) rows.push_back(rs.row(p.ancestor_index));
  // With at most one ancestor per witness the rows arrive in witness
  // order, which is ascending; the sort is a guard that costs one pass
  // when that holds.
  if (!std::is_sorted(rows.begin(), rows.end())) {
    std::sort(rows.begin(), rows.end());
  }
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  if (ctx) ctx->CountNodes(rows.size());
  return Rows(std::move(rows), full.size());
}

/// Evaluates `path` starting from `state` (document node when
/// `from_document` is set), returning the surviving per-type lists.
State EvalChain(const storage::StoredDocument& stored, const Path& path,
                size_t first_step, State state, bool from_document,
                ExecContext* ctx);

bool UseValueIndex(ExecContext* ctx) {
  return ctx == nullptr || ctx->use_value_index();
}

/// kScanProbe: answers a [path op literal] predicate per context instance by
/// scanning its terminal-row range in the term column directly — no
/// matching-rows materialization, no witness sort. Whole 256-row blocks the
/// zone maps rule out are skipped, and the scan stops at the first hit.
/// Chosen by the cost model at high selectivity, where the witness path's
/// global sort alone costs more than these early-exiting scans.
RowSet PredScanProbe(const storage::StoredDocument& stored,
                     const ValuePred& vp, const std::vector<dg::TypeId>& tts,
                     dg::TypeId t, const RowSet& rs, ExecContext* ctx) {
  const idx::ValueIndex& vi = stored.value_index();
  const idx::Dictionary& dict = vi.dict();
  const PackedPbnList& full = stored.PackedNodesOfType(t);
  const bool string_eq = vp.op == CompareOp::kEq && !vp.lit.numeric;
  const uint32_t eq_term = string_eq ? dict.Find(vp.lit.text) : idx::kNoTerm;
  std::vector<uint32_t> kept;
  uint64_t skips = 0;
  uint64_t tested = 0;
  for (size_t i = 0; i < rs.size(); ++i) {
    const uint32_t ctx_row = rs.row(i);
    bool keep = false;
    for (dg::TypeId tt : tts) {
      if (string_eq && eq_term == idx::kNoTerm) break;  // literal not interned
      const idx::TypeColumn* col = vi.Column(tt);
      auto [first, last] = stored.TypeRangeWithin(tt, full[ctx_row]);
      size_t row = first;
      while (row < last && !keep) {
        const size_t b = row / idx::ColumnStats::kZoneBlockRows;
        const size_t block_end =
            std::min(last, (b + 1) * idx::ColumnStats::kZoneBlockRows);
        if (!ZoneBlockCanMatch(col->stats, b, vp.op, vp.lit, eq_term)) {
          ++skips;
          row = block_end;
          continue;
        }
        for (; row < block_end; ++row) {
          ++tested;
          if (TermMatches(dict, col->term_ids[row], vp.op, vp.lit)) {
            keep = true;
            break;
          }
        }
      }
      if (keep) break;
    }
    if (keep) kept.push_back(ctx_row);
  }
  if (ctx != nullptr) {
    ctx->CountNodes(rs.size());
    ctx->CountValueIndexLookups(rs.size() * tts.size());
    ctx->CountValueIndexPostings(tested);
    ctx->CountZoneMapSkips(skips);
  }
  return Rows(std::move(kept), full.size());
}

/// kRowsProbe: answers the predicate per context instance by probing the
/// (memoized) sorted matching-rows list against the context's terminal-row
/// range. Contexts arrive in ascending document order, so the probe keeps a
/// monotone cursor over the rows list and skips whole 256-entry blocks on
/// their last entry (the block's implicit max) — the postings-block
/// counterpart of the value zone maps. Chosen for small contexts, where
/// materializing packed witnesses for every matching row would dominate.
RowSet PredRowsProbe(const storage::StoredDocument& stored, const Expr* pred,
                     const ValuePred& vp, const std::vector<dg::TypeId>& tts,
                     dg::TypeId t, const RowSet& rs, ExecContext* ctx) {
  const idx::ValueIndex& vi = stored.value_index();
  const PackedPbnList& full = stored.PackedNodesOfType(t);
  std::vector<bool> keep(rs.size(), false);
  uint64_t skips = 0;
  for (dg::TypeId tt : tts) {
    const idx::TypeColumn* col = vi.Column(tt);
    auto rows = MatchingRows(*col, pred, tt, vp.op, vp.lit, ctx);
    if (rows->empty()) continue;
    const size_t n = rows->size();
    const size_t nblocks =
        (n + idx::ColumnStats::kZoneBlockRows - 1) /
        idx::ColumnStats::kZoneBlockRows;
    size_t blk = 0;
    for (size_t i = 0; i < rs.size(); ++i) {
      if (keep[i]) continue;
      auto [first, last] = stored.TypeRangeWithin(tt, full[rs.row(i)]);
      if (first >= last) continue;
      // Range starts are non-decreasing (nested same-type contexts start
      // no earlier than their ancestors), so blocks left behind are left
      // behind for good.
      while (blk < nblocks) {
        const size_t tail =
            std::min(n, (blk + 1) * idx::ColumnStats::kZoneBlockRows) - 1;
        if ((*rows)[tail] < first) {
          ++blk;
          ++skips;
        } else {
          break;
        }
      }
      if (blk == nblocks) break;
      auto it = std::lower_bound(
          rows->begin() + blk * idx::ColumnStats::kZoneBlockRows, rows->end(),
          static_cast<uint32_t>(first));
      if (it != rows->end() && *it < last) keep[i] = true;
    }
  }
  std::vector<uint32_t> kept;
  for (size_t i = 0; i < rs.size(); ++i) {
    if (keep[i]) kept.push_back(rs.row(i));
  }
  if (ctx != nullptr) {
    ctx->CountNodes(rs.size());
    ctx->CountValueIndexLookups(rs.size() * tts.size());
    ctx->CountZoneMapSkips(skips);
  }
  return Rows(std::move(kept), full.size());
}

/// [@attr op literal] / contains(@attr, ...) / starts-with(@attr, ...) as one
/// pass over the attribute column: each survivor's row indexes the column
/// directly. A string-equality literal is resolved to its term id once, so
/// the pass compares integers (and is empty at once when the literal was
/// never interned); other operators test the interned term.
RowSet AttrMask(const storage::StoredDocument& stored, const ValuePred& vp,
                dg::TypeId t, const RowSet& rs, ExecContext* ctx) {
  const size_t type_size = stored.PackedNodesOfType(t).size();
  const bool is_compare = vp.kind == ValuePred::Kind::kAttrCompare;
  std::vector<uint32_t> kept;
  if (!UseValueIndex(ctx)) {
    // Ablation baseline: fetch the attribute from the document. A missing
    // attribute compares false under every operator and coerces to "" for
    // the string functions.
    const std::vector<xml::NodeId>& ids = stored.NodeIdsOfType(t);
    for (size_t i = 0; i < rs.size(); ++i) {
      const uint32_t row = rs.row(i);
      std::string hay;
      bool present = false;
      if (stored.doc().IsElement(ids[row])) {
        auto attr = stored.doc().AttributeValue(ids[row], vp.attr);
        if (attr.ok()) {
          present = true;
          hay = std::move(attr).ValueUnsafe();
        }
      }
      const bool keep =
          is_compare ? (present && CompareValues(hay, vp.op, vp.lit.text))
                     : TermMatchesString(hay, vp.str_fn, vp.lit.text);
      if (keep) kept.push_back(row);
    }
    if (ctx != nullptr) {
      ctx->CountValueScanFallbacks(rs.size());
      ctx->CountNodes(kept.size());
    }
    return Rows(std::move(kept), type_size);
  }

  const idx::ValueIndex& vi = stored.value_index();
  const idx::Dictionary& dict = vi.dict();
  const idx::AttrColumn* col = vi.Attr(t, vp.attr);
  uint64_t read = 0;
  auto mask = [&](auto&& keep) {
    read = rs.size();
    for (size_t i = 0; i < rs.size(); ++i) {
      const uint32_t row = rs.row(i);
      if (keep(row)) kept.push_back(row);
    }
  };
  if (col == nullptr) {
    // No instance carries the attribute: comparisons never match, and the
    // string functions see "" everywhere.
    if (!is_compare && vp.lit.text.empty()) return rs;
  } else if (is_compare) {
    const std::vector<uint32_t>& terms = col->term_ids;
    if (vp.op == CompareOp::kEq && !vp.lit.numeric) {
      const uint32_t eq_term = dict.Find(vp.lit.text);
      if (eq_term != idx::kNoTerm) {
        mask([&](uint32_t row) { return terms[row] == eq_term; });
      }
    } else {
      mask([&](uint32_t row) {
        return TermMatches(dict, terms[row], vp.op, vp.lit);
      });
    }
  } else {
    const std::vector<uint32_t>& terms = col->term_ids;
    auto bitmap = TermBitmap(dict, vp.str_fn, vp.lit.text, ctx);
    const bool empty_needle = vp.lit.text.empty();
    mask([&](uint32_t row) {
      const uint32_t term = terms[row];
      return term == idx::kNoTerm ? empty_needle : (*bitmap)[term] != 0;
    });
  }
  if (ctx != nullptr) {
    ctx->CountValueIndexLookups(1);
    ctx->CountValueIndexPostings(read);
    ctx->CountNodes(kept.size());
  }
  return Rows(std::move(kept), type_size);
}

/// Applies one recognized value predicate to one type's survivors.
///
/// Path-compare predicates collect witness instances from the terminal
/// types' dictionary postings / numeric slices (per-node string scan where
/// a type has no column or the index is disabled) and semi-join them
/// against the context; attribute predicates mask the survivors against
/// the attribute column; contains()/starts-with() on a path tests each
/// context instance's document-order-first terminal instance against a
/// term bitmap (XPath coerces a node set to its first node's value).
RowSet ApplyValuePred(const storage::StoredDocument& stored, const Expr* pred,
                      const ValuePred& vp, dg::TypeId t, const RowSet& rs,
                      ExecContext* ctx) {
  const idx::ValueIndex& vi = stored.value_index();
  const dg::DataGuide& g = stored.dataguide();
  const bool use_index = UseValueIndex(ctx);
  switch (vp.kind) {
    case ValuePred::Kind::kAttrCompare:
    case ValuePred::Kind::kAttrString:
      return AttrMask(stored, vp, t, rs, ctx);
    case ValuePred::Kind::kPathCompare: {
      auto tts = ChainTypes(g, vp.path, t, ctx);
      if (use_index && ctx != nullptr && ctx->use_cost_model()) {
        // Costed strategy choice, applicable when every terminal type has a
        // value column (all three strategies are byte-identical; an
        // uncovered type needs the scan fallback below either way).
        bool covered = true;
        for (dg::TypeId tt : *tts) {
          if (vi.Column(tt) == nullptr) {
            covered = false;
            break;
          }
        }
        if (covered && !tts->empty()) {
          CostModel cm(stored);
          PredPlan plan =
              cm.ChoosePredStrategy(t, rs.size(), *tts, vp.op, vp.lit);
          if (plan.strategy == PredStrategy::kScanProbe) {
            return PredScanProbe(stored, vp, *tts, t, rs, ctx);
          }
          if (plan.strategy == PredStrategy::kRowsProbe) {
            return PredRowsProbe(stored, pred, vp, *tts, t, rs, ctx);
          }
          // kWitness falls through to the default path below.
        }
      }
      PackedPbnList witnesses;
      for (dg::TypeId tt : *tts) {
        const idx::TypeColumn* col = vi.Column(tt);
        const num::PackedPbnList& packed = stored.PackedNodesOfType(tt);
        if (use_index && col != nullptr) {
          auto rows = MatchingRows(*col, pred, tt, vp.op, vp.lit, ctx);
          for (uint32_t row : *rows) witnesses.Append(packed[row]);
        } else {
          // Uncovered terminal type (nested structure) or ablation: scan
          // every instance's assembled string value.
          const std::vector<xml::NodeId>& ids = stored.NodeIdsOfType(tt);
          for (size_t row = 0; row < ids.size(); ++row) {
            if (CompareValues(stored.doc().StringValue(ids[row]), vp.op,
                              vp.lit.text)) {
              witnesses.Append(packed[row]);
            }
          }
          if (ctx != nullptr) ctx->CountValueScanFallbacks(ids.size());
        }
      }
      // One terminal type's rows are ascending already.
      if (tts->size() > 1) witnesses.SortUnique();
      return SemiJoinAncestors(stored, t, rs, witnesses, ctx);
    }
    case ValuePred::Kind::kPathString: {
      auto tts = ChainTypes(g, vp.path, t, ctx);
      const PackedPbnList& full = stored.PackedNodesOfType(t);
      std::shared_ptr<const std::vector<uint8_t>> bitmap;
      if (use_index) bitmap = TermBitmap(vi.dict(), vp.str_fn, vp.lit.text, ctx);
      std::vector<uint32_t> kept;
      for (size_t i = 0; i < rs.size(); ++i) {
        const uint32_t ctx_row = rs.row(i);
        // Document-order-first terminal instance within this context
        // instance (the node the scan path's string coercion reads).
        bool have = false;
        dg::TypeId best_tt = dg::kNullType;
        size_t best_row = 0;
        num::PackedPbnRef best{nullptr, 0, 0};
        for (dg::TypeId tt : *tts) {
          auto [first, last] = stored.TypeRangeWithin(tt, full[ctx_row]);
          if (first >= last) continue;
          num::PackedPbnRef candidate = stored.PackedNodesOfType(tt)[first];
          if (!have || candidate < best) {
            have = true;
            best = candidate;
            best_tt = tt;
            best_row = first;
          }
        }
        bool keep;
        if (!have) {
          keep = vp.lit.text.empty();  // empty node set coerces to ""
        } else {
          const idx::TypeColumn* col = vi.Column(best_tt);
          if (use_index && col != nullptr) {
            keep = (*bitmap)[col->term_ids[best_row]] != 0;
          } else {
            keep = TermMatchesString(
                stored.doc().StringValue(
                    stored.NodeIdsOfType(best_tt)[best_row]),
                vp.str_fn, vp.lit.text);
            if (ctx != nullptr) ctx->CountValueScanFallbacks(1);
          }
        }
        if (keep) kept.push_back(ctx_row);
      }
      if (ctx != nullptr) {
        ctx->CountNodes(rs.size());
        if (use_index) ctx->CountValueIndexLookups(rs.size());
      }
      return Rows(std::move(kept), full.size());
    }
  }
  return RowSet{};
}

/// Rough work estimate for one predicate against the current state, used
/// to order a step's predicates cheapest (most selective machinery) first:
/// attribute masks touch only the context list; indexed path comparisons
/// touch their matching rows; everything else streams over the terminal
/// types' full instance lists. The row collections are memoized in the
/// context, so estimating does not duplicate work the application pass
/// would do anyway.
uint64_t EstimatePredCost(const storage::StoredDocument& stored,
                          const Expr& pred, const State& state,
                          ExecContext* ctx) {
  const dg::DataGuide& g = stored.dataguide();
  uint64_t total = 0;
  ValuePred vp;
  if (pred.kind != Expr::Kind::kPath && RecognizeValuePred(pred, &vp)) {
    if (vp.kind == ValuePred::Kind::kAttrCompare ||
        vp.kind == ValuePred::Kind::kAttrString) {
      for (const auto& [t, rs] : state) total += rs.size();
      return total;
    }
    const bool use_index = UseValueIndex(ctx);
    for (const auto& [t, rs] : state) {
      auto tts = ChainTypes(g, vp.path, t, ctx);
      for (dg::TypeId tt : *tts) {
        const idx::TypeColumn* col = stored.value_index().Column(tt);
        if (vp.kind == ValuePred::Kind::kPathString) {
          total += use_index && col != nullptr
                       ? rs.size()
                       : stored.PackedNodesOfType(tt).size();
        } else if (use_index && col != nullptr) {
          if (ctx != nullptr && ctx->use_cost_model()) {
            // Histogram estimate: order predicates without materializing
            // their matching-rows lists (a costed strategy may never need
            // them at all).
            total += static_cast<uint64_t>(
                CardinalityEstimator::ColumnSelectivity(*col, vp.op, vp.lit) *
                static_cast<double>(col->stats.row_count));
          } else {
            total +=
                MatchingRows(*col, &pred, tt, vp.op, vp.lit, ctx)->size();
          }
        } else {
          total += stored.PackedNodesOfType(tt).size();
        }
      }
    }
    return total;
  }
  // Existence chain: the semi-join streams over every terminal instance.
  for (const auto& [t, rs] : state) {
    for (dg::TypeId tt : ResolveChainTypes(g, t, pred.path)) {
      total += stored.PackedNodesOfType(tt).size();
    }
  }
  return total;
}

/// Existence predicate [chain] on one type's survivors: evaluates the
/// relative chain anchored at them and keeps those with a terminal
/// instance below. A single terminal type's survivors are the witness list
/// as they are (borrowed whole when every instance survives); several are
/// merged into document order.
RowSet ApplyExistencePred(const storage::StoredDocument& stored,
                          const Path& chain, dg::TypeId t, const RowSet& rs,
                          ExecContext* ctx) {
  State anchor;
  anchor.emplace(t, rs);
  State terminal = EvalChain(stored, chain, 0, std::move(anchor),
                             /*from_document=*/false, ctx);
  if (terminal.empty()) return RowSet{};
  PackedPbnList scratch;
  if (terminal.size() == 1) {
    const auto& [tt, trs] = *terminal.begin();
    return SemiJoinAncestors(
        stored, t, rs, Gather(stored.PackedNodesOfType(tt), trs, &scratch),
        ctx);
  }
  for (const auto& [tt, trs] : terminal) {
    const PackedPbnList& full = stored.PackedNodesOfType(tt);
    for (size_t j = 0; j < trs.size(); ++j) scratch.Append(full[trs.row(j)]);
  }
  scratch.SortUnique();
  return SemiJoinAncestors(stored, t, rs, scratch, ctx);
}

/// Applies one step's predicates to every per-type survivor set, cheapest
/// first. All predicate forms here are existential, so applying them in
/// selectivity order changes the work, never the result.
State ApplyPredicates(const storage::StoredDocument& stored, const Step& step,
                      State state, ExecContext* ctx) {
  std::vector<const Expr*> preds;
  preds.reserve(step.predicates.size());
  for (const auto& pred : step.predicates) preds.push_back(pred.get());
  if (preds.size() > 1) {
    std::vector<std::pair<uint64_t, const Expr*>> costed;
    costed.reserve(preds.size());
    for (const Expr* p : preds) {
      costed.emplace_back(EstimatePredCost(stored, *p, state, ctx), p);
    }
    std::stable_sort(
        costed.begin(), costed.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    for (size_t i = 0; i < costed.size(); ++i) preds[i] = costed[i].second;
  }
  for (const Expr* pred : preds) {
    ValuePred vp;
    const bool is_value =
        pred->kind != Expr::Kind::kPath && RecognizeValuePred(*pred, &vp);
    State filtered;
    for (const auto& [t, rs] : state) {
      if (rs.empty()) continue;
      RowSet kept = is_value
                        ? ApplyValuePred(stored, pred, vp, t, rs, ctx)
                        : ApplyExistencePred(stored, pred->path, t, rs, ctx);
      if (!kept.empty()) filtered.emplace(t, std::move(kept));
    }
    state = std::move(filtered);
  }
  return state;
}

State EvalChain(const storage::StoredDocument& stored, const Path& path,
                size_t first_step, State state, bool from_document,
                ExecContext* ctx) {
  const dg::DataGuide& g = stored.dataguide();
  bool doc_node = from_document;
  for (size_t s = first_step; s < path.steps.size(); ++s) {
    const Step& step = path.steps[s];
    State next;
    auto add = [&](dg::TypeId nt, RowSet kept) {
      if (kept.empty()) return;
      auto it = next.find(nt);
      if (it == next.end()) {
        next.emplace(nt, std::move(kept));
      } else {
        it->second = Union(std::move(it->second), kept);
      }
    };

    if (step.axis == num::Axis::kDescendantOrSelf &&
        step.test.kind == NodeTest::Kind::kAnyNode) {
      // The '//' anonymous step: extend every context type with all of its
      // descendants (instances unrestricted below the context — the next
      // step's join against the context list does the real filtering, so
      // fold this step into the next by expanding the *type* frontier).
      if (doc_node) {
        // From the document node '//' reaches every type in full.
        for (dg::TypeId t = 0; t < g.num_types(); ++t) {
          add(t, AllRows(stored.PackedNodesOfType(t).size()));
        }
        doc_node = false;
      } else {
        next = state;
        for (const auto& [t, rs] : state) {
          PackedPbnList scratch;
          const PackedPbnList& context =
              Gather(stored.PackedNodesOfType(t), rs, &scratch);
          for (dg::TypeId dt : g.DescendantTypes(t)) {
            add(dt, StepJoin(stored, num::Axis::kDescendant, context, dt,
                             ctx));
          }
        }
      }
      state = std::move(next);
      continue;
    }

    if (doc_node) {
      // Step from the document node: whole types, borrowed.
      if (step.axis == num::Axis::kChild) {
        for (dg::TypeId rt : g.roots()) {
          if (TypeMatches(g, rt, step.test)) {
            add(rt, AllRows(stored.PackedNodesOfType(rt).size()));
          }
        }
      } else {  // descendant
        for (dg::TypeId t = 0; t < g.num_types(); ++t) {
          if (TypeMatches(g, t, step.test)) {
            add(t, AllRows(stored.PackedNodesOfType(t).size()));
          }
        }
      }
      doc_node = false;
    } else {
      for (const auto& [t, rs] : state) {
        const std::vector<dg::TypeId> candidates =
            step.axis == num::Axis::kChild ? g.children(t)
                                           : g.DescendantTypes(t);
        PackedPbnList scratch;
        const PackedPbnList* context = nullptr;
        for (dg::TypeId nt : candidates) {
          if (!TypeMatches(g, nt, step.test)) continue;
          if (context == nullptr) {
            context = &Gather(stored.PackedNodesOfType(t), rs, &scratch);
          }
          add(nt, StepJoin(stored, step.axis, *context, nt, ctx));
        }
      }
    }
    state = std::move(next);
    state = ApplyPredicates(stored, step, std::move(state), ctx);
  }
  return state;
}

}  // namespace

bool InBulkFragment(const Path& path) { return InFragment(path); }

Result<std::vector<Pbn>> EvalBulk(const storage::StoredDocument& stored,
                                  const Path& path, ExecContext* ctx) {
  if (!InFragment(path)) {
    return Status::NotImplemented(
        "bulk evaluation supports child/descendant chains with existence "
        "and value (comparison / contains / starts-with) predicates only");
  }
  State state =
      EvalChain(stored, path, 0, State(), /*from_document=*/true, ctx);
  size_t total = 0;
  for (const auto& [t, rs] : state) total += rs.size();
  std::vector<Pbn> out;
  out.reserve(total);
  for (const auto& [t, rs] : state) {
    const PackedPbnList& full = stored.PackedNodesOfType(t);
    for (size_t i = 0; i < rs.size(); ++i) {
      out.push_back(full.Materialize(rs.row(i)));
    }
  }
  // One type's rows are in document order already; distinct types never
  // share a node, so only their interleaving needs the sort.
  if (state.size() > 1) std::sort(out.begin(), out.end());
  return out;
}

Result<std::vector<Pbn>> EvalBulk(const storage::StoredDocument& stored,
                                  std::string_view path_text) {
  VPBN_ASSIGN_OR_RETURN(Path path, ParsePath(path_text));
  return EvalBulk(stored, path);
}

Result<std::vector<Pbn>> EvalBulkOrIndexed(
    const storage::StoredDocument& stored, const Path& path,
    ExecContext* ctx) {
  auto bulk = EvalBulk(stored, path, ctx);
  if (bulk.ok() || !bulk.status().IsNotImplemented()) return bulk;
  return EvalIndexed(stored, path, ctx);
}

Result<std::vector<Pbn>> EvalBulkOrIndexed(
    const storage::StoredDocument& stored, std::string_view path_text) {
  VPBN_ASSIGN_OR_RETURN(Path path, ParsePath(path_text));
  return EvalBulkOrIndexed(stored, path);
}

}  // namespace vpbn::query
