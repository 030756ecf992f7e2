/// \file replay.h
/// \brief The traced run's in-process side: a replica of vpbnd's request
/// path built only from the libraries' public calls, and the spans timed
/// around each of those calls.
///
/// Replica::HandleLine repeats server::Server's QUERY and RELOAD dispatch
/// step for step (ParseRequest, Catalog::Find + EngineFor, ResultCache
/// Key + Get, QueryEngine Prepare / Execute / StringValues, ResultCache
/// Put, JSON assembly). Admission control is left out: the benchmark runs
/// far below vpbnd's in-flight limit and sets no rate limit. The driver
/// checks the replica's count and values against vpbnd's for every request,
/// so the copy cannot drift from the server unnoticed.

#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "query/exec_context.h"
#include "server/catalog.h"
#include "server/protocol.h"
#include "server/result_cache.h"
#include "workload.h"

namespace loadbench {

/// \brief One timed interval. Spans of one request share `request`;
/// `parent` indexes the enclosing span in the same log (-1 for a root).
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint32_t request = 0;
};

/// \brief Spans of one client thread, kept in memory until the run ends.
class SpanLog {
 public:
  int Open(const char* name, uint32_t request);
  void Close(int index);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// \brief Opens a span on construction and closes it on destruction; a
/// null log (spans off) makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint32_t request)
      : log_(log), index_(log ? log->Open(name, request) : -1) {}
  ~ScopedSpan() {
    if (log_) log_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

/// \brief Per-request execution counters (result-cache misses only).
struct ExecSample {
  bool executed = false;
  vpbn::query::ExecStats stats;
};

/// \brief vpbnd's catalog, caches and dispatch, in-process.
class Replica {
 public:
  /// Loads the corpus file and opens the plan's views the way vpbnd's
  /// command line does, with vpbnd's defaults (engine options, result
  /// cache of 256 entries).
  vpbn::Status Load(const Plan& plan, const std::string& doc_path);

  /// One request line -> one response line, as Server::HandleLine. With
  /// \p collect_stats the execution also gathers ExecStats into \p sample.
  std::string HandleLine(std::string_view line, SpanLog* log,
                         uint32_t request, bool collect_stats,
                         ExecSample* sample);

  const vpbn::server::ResultCache& cache() const { return cache_; }
  const vpbn::server::Catalog& catalog() const { return catalog_; }

  /// Plan-cache (hits, misses) summed over every engine that served a
  /// Prepare, including engines a reload has since replaced.
  std::pair<uint64_t, uint64_t> PlanCacheTotals() const;

 private:
  std::string HandleQuery(const vpbn::server::Request& req, SpanLog* log,
                          uint32_t request, bool collect_stats,
                          ExecSample* sample);

  vpbn::server::Catalog catalog_;
  vpbn::server::ResultCache cache_{256};
  mutable std::mutex plan_mu_;
  std::map<uint64_t, std::pair<uint64_t, uint64_t>> plan_counters_;
};

}  // namespace loadbench
