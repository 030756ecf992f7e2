#include "pbn/structural_join.h"

#include <algorithm>
#include <atomic>

namespace vpbn::num {

namespace {

std::atomic<bool> g_join_block_skipping{true};

}  // namespace

void SetJoinBlockSkipping(bool enabled) {
  g_join_block_skipping.store(enabled, std::memory_order_relaxed);
}

bool JoinBlockSkippingEnabled() {
  return g_join_block_skipping.load(std::memory_order_relaxed);
}

namespace {

/// Stack-tree join skeleton shared by both variants. The stack holds the
/// chain of ancestors enclosing the current position in document order;
/// each descendant is matched against the whole stack (ancestor variant) or
/// its top-most applicable entry (parent variant).
template <bool kParentOnly>
std::vector<JoinPair> StackTreeJoin(const std::vector<Pbn>& ancestors,
                                    const std::vector<Pbn>& descendants) {
  std::vector<JoinPair> out;
  std::vector<size_t> stack;
  size_t a = 0;
  for (size_t d = 0; d < descendants.size(); ++d) {
    const Pbn& dn = descendants[d];
    // Pop ancestors that cannot enclose dn (dn is past their subtree).
    while (!stack.empty() && !ancestors[stack.back()].IsStrictPrefixOf(dn)) {
      stack.pop_back();
    }
    // Push ancestors up to dn in document order that enclose dn.
    while (a < ancestors.size() && ancestors[a] < dn) {
      if (ancestors[a].IsStrictPrefixOf(dn)) {
        // Entering a deeper enclosing ancestor; anything it does not
        // nest in was popped above.
        stack.push_back(a);
      }
      ++a;
    }
    if constexpr (kParentOnly) {
      if (!stack.empty()) {
        size_t top = stack.back();
        if (ancestors[top].length() + 1 == dn.length()) {
          out.push_back(JoinPair{top, d});
        }
      }
    } else {
      for (size_t s : stack) out.push_back(JoinPair{s, d});
    }
  }
  return out;
}

/// Packed mirror of StackTreeJoin: the merge state is byte-level. Every
/// IsStrictPrefixOf/order decision is a sort-key compare (arena memcmp only
/// past equal keys); with kCounted the counters tally decisions and the
/// bytes they touched. Counting is a template parameter so the uncounted
/// join carries zero bookkeeping in its inner loop.
template <bool kParentOnly, bool kCounted>
void PackedStackTreeJoinLoop(const PackedPbnList& ancestors,
                             const PackedPbnList& descendants,
                             std::vector<JoinPair>* out,
                             JoinCounters* counters) {
  std::vector<size_t> stack;
  size_t a = 0;
  const size_t d_end = descendants.size();
  uint64_t comparisons = 0;
  uint64_t bytes = 0;
  uint64_t block_skips = 0;
  const bool skip_blocks = JoinBlockSkippingEnabled();
  const size_t a_size = ancestors.size();
  const char* a_arena = ancestors.arena_data();
  const uint32_t* a_off = ancestors.offsets_data();
  const uint32_t* a_len = ancestors.lengths_data();
  const uint64_t* a_key = ancestors.keys_data();
  const char* d_arena = descendants.arena_data();
  const uint32_t* d_off = descendants.offsets_data();
  const uint32_t* d_len = descendants.lengths_data();
  const uint64_t* d_key = descendants.keys_data();
  for (size_t d = 0; d < d_end; ++d) {
    PackedPbnRef dn(d_arena + d_off[d], d_off[d + 1] - d_off[d], d_len[d],
                    d_key[d]);
    // Pop the chain entries whose subtrees ended before dn. A popped
    // entry's subtree is a contiguous document-order interval ending
    // before dn, so it would be popped for every later descendant too —
    // which is what lets the block skip below run on the drained stack.
    while (!stack.empty()) {
      const size_t s = stack.back();
      const PackedPbnRef top(a_arena + a_off[s], a_off[s + 1] - a_off[s],
                             a_len[s], a_key[s]);
      if constexpr (kCounted) {
        ++comparisons;
        bytes += top.size_bytes();
      }
      if (top.IsStrictPrefixOf(dn)) break;
      stack.pop_back();
    }
    if (skip_blocks && stack.empty()) {
      // No enclosing chain: once the ancestor scan is exhausted, no later
      // descendant can produce output.
      if (a >= a_size) break;
      // A whole descendant block strictly below the next ancestor key emits
      // nothing: every dn in it has an.key > dn.key, so the advance loop
      // breaks immediately with the stack still empty.
      size_t d0 = d;
      while (d_end - d >= kPbnBlockEntries &&
             a_key[a] > d_key[d + kPbnBlockEntries - 1]) {
        d += kPbnBlockEntries;
        ++block_skips;
      }
      if (d >= d_end) break;
      if (d != d0) {
        dn = PackedPbnRef(d_arena + d_off[d], d_off[d + 1] - d_off[d],
                          d_len[d], d_key[d]);
      }
    }
    if (skip_blocks && a < a_size) {
      // Ancestors with sort keys below this bound can be neither prefixes
      // of dn nor >= dn, so the advance loop would step over every one of
      // them without touching the stack. Stride whole blocks off the key
      // column, then finish the sub-block run without decoding arena bytes.
      const uint64_t bound = MinStrictPrefixKeyBound(dn);
      a = SkipBlocksBelow(a_key, a, a_size, bound, &block_skips);
      while (a < a_size && a_key[a] < bound) ++a;
    }
    while (a < a_size) {
      const PackedPbnRef an(a_arena + a_off[a], a_off[a + 1] - a_off[a],
                            a_len[a], a_key[a]);
      if constexpr (kCounted) {
        ++comparisons;
        bytes += std::min(an.size_bytes(), dn.size_bytes());
      }
      if (an.Compare(dn) >= 0) break;
      if (an.IsStrictPrefixOf(dn)) stack.push_back(a);
      ++a;
    }
    if constexpr (kParentOnly) {
      if (!stack.empty()) {
        size_t top = stack.back();
        if (ancestors[top].length() + 1 == dn.length()) {
          out->push_back(JoinPair{top, d});
        }
      }
    } else {
      for (size_t s : stack) out->push_back(JoinPair{s, d});
    }
  }
  if constexpr (kCounted) {
    counters->comparisons += comparisons;
    counters->bytes_compared += bytes;
    counters->block_skips += block_skips;
  }
}

template <bool kParentOnly>
std::vector<JoinPair> PackedStackTreeJoin(const PackedPbnList& ancestors,
                                          const PackedPbnList& descendants,
                                          JoinCounters* counters) {
  std::vector<JoinPair> out;
  if (counters != nullptr) {
    PackedStackTreeJoinLoop<kParentOnly, true>(ancestors, descendants, &out,
                                               counters);
  } else {
    PackedStackTreeJoinLoop<kParentOnly, false>(ancestors, descendants, &out,
                                                nullptr);
  }
  return out;
}

}  // namespace

std::vector<JoinPair> AncestorDescendantJoin(
    const std::vector<Pbn>& ancestors, const std::vector<Pbn>& descendants) {
  return StackTreeJoin<false>(ancestors, descendants);
}

std::vector<JoinPair> ParentChildJoin(const std::vector<Pbn>& parents,
                                      const std::vector<Pbn>& children) {
  return StackTreeJoin<true>(parents, children);
}

std::vector<JoinPair> AncestorDescendantJoin(const PackedPbnList& ancestors,
                                             const PackedPbnList& descendants,
                                             JoinCounters* counters) {
  return PackedStackTreeJoin<false>(ancestors, descendants, counters);
}

std::vector<JoinPair> ParentChildJoin(const PackedPbnList& parents,
                                      const PackedPbnList& children,
                                      JoinCounters* counters) {
  return PackedStackTreeJoin<true>(parents, children, counters);
}

}  // namespace vpbn::num
