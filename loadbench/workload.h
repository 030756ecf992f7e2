/// \file workload.h
/// \brief The load workloads: their corpus, their query templates and
/// the fixed, seeded request sequence each one replays.
///
/// A workload never draws requests against a timer. Everything a run sends
/// is fixed up front from the seed and the run length: a warm-up sequence
/// whose request texts are disjoint from the timed ones, then the timed
/// rounds. Every round has the same composition (the same number of
/// requests of each cost class, shuffled), one sequence per client
/// connection, so rounds differ only in their literals.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace loadbench {

/// The catalog name vpbnd serves the corpus under.
inline constexpr const char* kDocName = "auctions";

/// \brief One query shape. The literal slot is `%s` in `path`.
struct Template {
  const char* name;     ///< short label used in the run record
  const char* view;     ///< "" for the stored document, else a view name
  const char* path;     ///< XPath text with one `%s`
  /// How the stored-document oracle answers it: the nodes at `result`
  /// (relative) of every node of `context` whose `key` (relative; "@id" for
  /// the attribute) has the literal as its string value. Null for view
  /// templates, which the oracle answers through the materialized view.
  const char* context;
  const char* key;
  const char* result;
};

/// The two vDataGuide views, (name, spec): `views` serves them; every
/// workload's traced run times opening them.
const std::vector<std::pair<std::string, std::string>>& ViewSpecs();

/// The template table shared by every workload (indices are stable).
const std::vector<Template>& Templates();

/// \brief A distinct query text, with what the oracle needs to answer it.
struct Query {
  int tmpl = 0;
  std::string literal;  ///< as written into the path (quotes excluded)
  std::string path;
  std::string Line() const;  ///< the protocol line, without newline
};

/// \brief One request of a client's sequence: a query or a RELOAD.
struct Request {
  int query = -1;  ///< index into Plan::queries; -1 for RELOAD
  bool reload() const { return query < 0; }
};

/// One timed round: a request sequence per client.
using Round = std::vector<std::vector<Request>>;

/// \brief Everything a run sends, fixed by (workload, seed, seconds).
struct Plan {
  std::string workload;
  uint64_t seed = 0;
  double scale = 1.0;        ///< workload::ScaledAuctions factor
  bool serve_snapshot = false;  ///< vpbnd loads a .vpsn instead of XML
  int clients = 1;
  /// (view name, vDataGuide spec) pairs vpbnd opens.
  std::vector<std::pair<std::string, std::string>> views;
  std::vector<Query> queries;  ///< every distinct query text
  Request probe;               ///< the first answer setup_s waits for
  std::vector<Request> warmup;  ///< sent by one client before timing
  /// The timed phase. The timed end-to-end metrics are medians over the
  /// rounds (see main.cc), which keeps slow stretches of a shared host
  /// that hit a minority of the rounds out of the figures.
  std::vector<Round> rounds;
  /// RELOADs sent after the timed phase (workloads without in-sequence
  /// reloads measure reload_ms here).
  int tail_reloads = 0;
  /// vpbnd cold starts per run; setup_s is their median.
  int cold_starts = 5;
};

/// Build the plan for \p workload. The request count scales with
/// \p seconds, so a run lasts about that long on a 4-core box; the
/// sequence itself never depends on how fast the server answers.
/// Returns false for an unknown workload name.
bool MakePlan(const std::string& workload, uint64_t seed, int seconds,
              Plan* plan);

}  // namespace loadbench
