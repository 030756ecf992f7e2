/// \file structural_join.h
/// \brief Set-at-a-time structural joins on sorted PBN lists.
///
/// The per-type PBN lists of the type index are sorted in document order,
/// so the classic stack-based tree-merge join (Al-Khalifa et al., ICDE
/// 2002) computes all ancestor/descendant or parent/child pairs between
/// two lists in O(|A| + |D| + |output|) — the machinery underneath every
/// PBN-era XML query processor, and the set-oriented alternative to the
/// per-node containment scans used by the path evaluators.

#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "pbn/packed.h"
#include "pbn/pbn.h"

namespace vpbn::num {

/// \brief One join result: indexes into the input lists.
struct JoinPair {
  size_t ancestor_index;
  size_t descendant_index;

  bool operator==(const JoinPair&) const = default;
};

/// \brief All pairs (a, d) with ancestors[a] a proper ancestor of
/// descendants[d]. Both inputs must be sorted in document order (as the
/// type index provides). Output is ordered by descendant, then by
/// ancestor depth (outermost first).
std::vector<JoinPair> AncestorDescendantJoin(
    const std::vector<Pbn>& ancestors, const std::vector<Pbn>& descendants);

/// \brief All pairs (p, c) with parents[p] the parent of children[c].
/// Same input contract and output order.
std::vector<JoinPair> ParentChildJoin(const std::vector<Pbn>& parents,
                                      const std::vector<Pbn>& children);

/// \brief Work counters for the packed joins, so ExecStats can report how
/// many axis decisions and arena bytes a join actually touched. Each join
/// call accumulates into the struct when non-null.
struct JoinCounters {
  uint64_t comparisons = 0;     ///< prefix/order decisions made
  uint64_t bytes_compared = 0;  ///< encoded bytes fed to those decisions
  uint64_t vjoin_pairs = 0;     ///< pairs emitted by virtual merge joins
  uint64_t decoded_batches = 0; ///< arenas batch-decoded into flat columns
  uint64_t block_skips = 0;     ///< kPbnBlockEntries blocks skipped wholesale

  void Add(const JoinCounters& o) {
    comparisons += o.comparisons;
    bytes_compared += o.bytes_compared;
    vjoin_pairs += o.vjoin_pairs;
    decoded_batches += o.decoded_batches;
    block_skips += o.block_skips;
  }
};

/// \name Block-skipping toggle.
///
/// The packed joins stride over whole kPbnBlockEntries blocks whose min/max
/// sort keys prove no element can match or stop the merge (identical
/// output either way — property-tested). On by default; the toggle exists
/// so tests and benches can pin the unskipped baseline. Process-global.
/// @{
void SetJoinBlockSkipping(bool enabled);
bool JoinBlockSkippingEnabled();
/// @}

/// \name Packed structural joins
///
/// Same contract and byte-identical JoinPair output as the vector variants,
/// but streaming over the contiguous arenas of PackedPbnList: every axis
/// decision is a sort-key compare (arena memcmp only past equal keys).
/// Counters are explicit (no default) so brace-initialized vector calls
/// never overload-clash with the vector variants; pass nullptr to skip
/// counting.
/// @{
std::vector<JoinPair> AncestorDescendantJoin(const PackedPbnList& ancestors,
                                             const PackedPbnList& descendants,
                                             JoinCounters* counters);
std::vector<JoinPair> ParentChildJoin(const PackedPbnList& parents,
                                      const PackedPbnList& children,
                                      JoinCounters* counters);
/// @}

}  // namespace vpbn::num
