/// \file oracle.h
/// \brief Expected answers for every distinct query of a plan, computed
/// outside the timed phase and without the engine under test.
///
/// * View queries: the view is materialized into a plain document, the path
///   runs there with the navigational evaluator, and copies of one virtual
///   node are folded through the materializer's provenance (first
///   occurrence wins, which is virtual document order).
/// * Stored queries: the navigational evaluator over the source document.
///   One EvalNav over the 400k-node corpus costs 30-70 ms, too slow for the
///   thousands of distinct lookups a run sends, so each template is
///   answered for every literal at once: EvalNav selects the template's
///   context nodes and the navigational adapter walks each one's key and
///   result children. A few requests per template are also run through the
///   full EvalNav, and the two must agree before the run starts.
///
/// An answer is the result count plus the ValuesHasher digest of the
/// serialized result nodes, in order.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/stored_document.h"
#include "workload.h"
#include "xml/document.h"

namespace loadbench {

struct Answer {
  uint64_t count = 0;
  uint64_t hash = 0;
};

/// Fill \p answers (indexed like plan.queries). \p stored is the corpus
/// built in-process from \p source; views open over it. On an internal
/// inconsistency (the per-template answer disagrees with a full EvalNav)
/// returns false with \p error set.
bool BuildOracle(const Plan& plan, const vpbn::xml::Document& source,
                 const std::shared_ptr<const vpbn::storage::StoredDocument>&
                     stored,
                 int threads, std::vector<Answer>* answers,
                 std::string* error);

}  // namespace loadbench
