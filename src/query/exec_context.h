/// \file exec_context.h
/// \brief Per-execution state threaded through the evaluators: the
/// evaluation knobs, per-query caches, and the counters behind ExecStats.
///
/// An ExecContext is owned by one QueryEngine::Execute call (query/engine.h)
/// and shared by every evaluator frame of that execution, which runs on the
/// calling thread. Counters are atomic and step records and caches are
/// mutex-guarded all the same, so a context is safe to share. A null
/// ExecContext (the default everywhere) means no accounting, which keeps
/// the pre-engine call sites zero-cost.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace vpbn::query {

/// \brief Accounting for one top-level path step (ExecStats::steps).
struct StepStats {
  std::string label;        ///< "child::book[2 predicates]" and the like
  uint64_t nodes_out = 0;   ///< context size after the step
  double wall_ms = 0;       ///< wall time of the step, predicates included
};

/// \brief What one Execute call did. Returned inside QueryResult.
struct ExecStats {
  uint64_t nodes_scanned = 0;      ///< rows steps and predicates produced
                                   ///< or probed one by one (a type list
                                   ///< borrowed whole is not scanned)
  uint64_t join_pairs = 0;         ///< structural-join pairs emitted
  uint64_t pbn_comparisons = 0;    ///< packed axis/order decisions made
  uint64_t bytes_compared = 0;     ///< encoded arena bytes those touched
  uint64_t vjoin_pairs = 0;        ///< virtual merge-join pairs emitted
  uint64_t decoded_batches = 0;    ///< arenas batch-decoded into columns
  uint64_t block_skips = 0;        ///< whole key blocks skipped by joins
  uint64_t value_index_lookups = 0;   ///< dictionary / numeric-slice probes
                                      ///< and attribute-column passes
  uint64_t value_index_postings = 0;  ///< value-column rows consumed by
                                      ///< pushdown (postings, slices,
                                      ///< column scans)
  uint64_t value_scan_fallbacks = 0;  ///< value predicates scanned per node
  uint64_t zone_map_skips = 0;     ///< value/postings blocks skipped on bounds
  uint64_t est_rows = 0;           ///< planner's estimated result cardinality
  uint64_t plan_cache_hits = 0;    ///< engine-lifetime prepared-plan hits
  uint64_t plan_cache_misses = 0;  ///< engine-lifetime prepared-plan misses
  uint64_t result_cache_hits = 0;    ///< server result-cache hits (vpbnd)
  uint64_t result_cache_misses = 0;  ///< server result-cache misses (vpbnd)
  uint64_t result_nodes = 0;       ///< size of the result node list
  double wall_ms = 0;              ///< end-to-end wall time
  double ingest_ms = 0;            ///< build (or snapshot-load) cost of the
                                   ///< stored substrate, when one is attached
  bool snapshot_load = false;      ///< stored substrate came from a snapshot
  uint64_t snapshot_bytes = 0;     ///< on-disk size of that snapshot
  uint64_t mapped_bytes = 0;       ///< bytes of it memory-mapped, not copied
  std::string plan;                ///< "nav" | "indexed" | "bulk" | "virtual"
  std::string chosen_plan;         ///< "cost:bulk" / "rule:indexed" — how the
                                   ///< plan was picked (stored substrate only)
  std::vector<StepStats> steps;    ///< per-step timings (top-level path only)

  std::string ToString() const;

  /// The one JSON serialization of these counters, shared by `vpbnq --json`,
  /// the vpbnd STATS verb and the E14 driver. One compact object on a single
  /// line (the vpbnd protocol is newline-delimited), every field above plus
  /// the steps array.
  std::string ToJson() const;

  /// Field-wise sum (wall/ingest add, plan/snapshot keep the last
  /// non-default value) — the server's cumulative-counters accumulator.
  void Accumulate(const ExecStats& other);
};

/// \brief Mutable execution state. Pointer-identity shared, never copied.
class ExecContext {
 public:
  ExecContext() = default;
  explicit ExecContext(bool collect_stats) : collect_stats_(collect_stats) {}

  bool collect_stats() const { return collect_stats_; }

  /// \name Virtual merge-join knobs (query/eval_virtual.h)
  ///
  /// `virtual_join` gates the vtype-partitioned merge path (ExecOptions
  /// exposes it so benchmarks can pin the per-candidate baseline);
  /// `vjoin_min_context` is the context size below which the child /
  /// parent / ancestor axes keep their sublinear per-node range scans
  /// (tests set 1 to force merging on tiny documents).
  /// @{
  bool virtual_join() const { return virtual_join_; }
  void set_virtual_join(bool on) { virtual_join_ = on; }
  size_t vjoin_min_context() const { return vjoin_min_context_; }
  void set_vjoin_min_context(size_t n) { vjoin_min_context_ = n; }
  static constexpr size_t kDefaultVJoinMinContext = 16;
  /// @}

  /// Value-index knob (ExecOptions::use_value_index): when off, value
  /// predicates run the per-node scan path everywhere — the benchmark and
  /// property-test baseline the pushdown must match byte-for-byte.
  bool use_value_index() const { return use_value_index_; }
  void set_use_value_index(bool on) { use_value_index_ = on; }

  /// Cost-model knob (ExecOptions::use_cost_model): when on, the evaluators
  /// replace their fixed-threshold decisions (pushdown strategy, merge vs
  /// walk, predicate ordering) with costed choices from query/cost_model.h,
  /// including zone-map data skipping. Results are byte-identical either
  /// way; off is the fixed-heuristics baseline.
  bool use_cost_model() const { return use_cost_model_; }
  void set_use_cost_model(bool on) { use_cost_model_ = on; }

  /// Per-query cache of uint32 lists keyed by an adapter-chosen string:
  /// node-test -> matching-vtype lists (so repeated steps and every context
  /// group of a batch step do not rescan the whole type forest), and
  /// value-pushdown (predicate, type) -> matching-row lists. \p build fills
  /// the list on the first miss. Entries are shared_ptr so a caller can
  /// keep reading one while later inserts rehash the map.
  template <typename Build>
  std::shared_ptr<const std::vector<uint32_t>> CachedVTypes(
      const std::string& key, Build&& build) {
    {
      std::lock_guard<std::mutex> lock(vtypes_mu_);
      auto it = vtypes_cache_.find(key);
      if (it != vtypes_cache_.end()) return it->second;
    }
    auto made = std::make_shared<const std::vector<uint32_t>>(build());
    std::lock_guard<std::mutex> lock(vtypes_mu_);
    auto [it, inserted] = vtypes_cache_.emplace(key, std::move(made));
    return it->second;
  }

  /// Per-query cache of term bitmaps: one byte per dictionary term, 1 where
  /// the term satisfies a contains()/starts-with() needle. Built once per
  /// (needle, dictionary) key, so such predicates test each distinct term
  /// once instead of each node once.
  template <typename Build>
  std::shared_ptr<const std::vector<uint8_t>> CachedTermBitmap(
      const std::string& key, Build&& build) {
    {
      std::lock_guard<std::mutex> lock(bitmaps_mu_);
      auto it = bitmaps_cache_.find(key);
      if (it != bitmaps_cache_.end()) return it->second;
    }
    auto made = std::make_shared<const std::vector<uint8_t>>(build());
    std::lock_guard<std::mutex> lock(bitmaps_mu_);
    auto [it, inserted] = bitmaps_cache_.emplace(key, std::move(made));
    return it->second;
  }

  void CountNodes(uint64_t n) {
    nodes_scanned_.fetch_add(n, std::memory_order_relaxed);
  }
  void CountJoinPairs(uint64_t n) {
    join_pairs_.fetch_add(n, std::memory_order_relaxed);
  }
  void CountComparisons(uint64_t comparisons, uint64_t bytes) {
    pbn_comparisons_.fetch_add(comparisons, std::memory_order_relaxed);
    bytes_compared_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void CountVJoinPairs(uint64_t n) {
    vjoin_pairs_.fetch_add(n, std::memory_order_relaxed);
  }
  void CountDecodedBatches(uint64_t n) {
    decoded_batches_.fetch_add(n, std::memory_order_relaxed);
  }
  void CountBlockSkips(uint64_t n) {
    block_skips_.fetch_add(n, std::memory_order_relaxed);
  }
  void CountValueIndexLookups(uint64_t n) {
    value_index_lookups_.fetch_add(n, std::memory_order_relaxed);
  }
  void CountValueIndexPostings(uint64_t n) {
    value_index_postings_.fetch_add(n, std::memory_order_relaxed);
  }
  void CountValueScanFallbacks(uint64_t n) {
    value_scan_fallbacks_.fetch_add(n, std::memory_order_relaxed);
  }
  void CountZoneMapSkips(uint64_t n) {
    zone_map_skips_.fetch_add(n, std::memory_order_relaxed);
  }
  void RecordStep(StepStats step) {
    std::lock_guard<std::mutex> lock(steps_mu_);
    steps_.push_back(std::move(step));
  }

  uint64_t nodes_scanned() const {
    return nodes_scanned_.load(std::memory_order_relaxed);
  }
  uint64_t join_pairs() const {
    return join_pairs_.load(std::memory_order_relaxed);
  }
  uint64_t pbn_comparisons() const {
    return pbn_comparisons_.load(std::memory_order_relaxed);
  }
  uint64_t bytes_compared() const {
    return bytes_compared_.load(std::memory_order_relaxed);
  }
  uint64_t vjoin_pairs() const {
    return vjoin_pairs_.load(std::memory_order_relaxed);
  }
  uint64_t decoded_batches() const {
    return decoded_batches_.load(std::memory_order_relaxed);
  }
  uint64_t block_skips() const {
    return block_skips_.load(std::memory_order_relaxed);
  }
  uint64_t value_index_lookups() const {
    return value_index_lookups_.load(std::memory_order_relaxed);
  }
  uint64_t value_index_postings() const {
    return value_index_postings_.load(std::memory_order_relaxed);
  }
  uint64_t value_scan_fallbacks() const {
    return value_scan_fallbacks_.load(std::memory_order_relaxed);
  }
  uint64_t zone_map_skips() const {
    return zone_map_skips_.load(std::memory_order_relaxed);
  }
  std::vector<StepStats> TakeSteps() {
    std::lock_guard<std::mutex> lock(steps_mu_);
    return std::move(steps_);
  }

 private:
  bool collect_stats_ = false;
  bool virtual_join_ = true;
  bool use_value_index_ = true;
  bool use_cost_model_ = true;
  size_t vjoin_min_context_ = kDefaultVJoinMinContext;
  std::atomic<uint64_t> nodes_scanned_{0};
  std::atomic<uint64_t> join_pairs_{0};
  std::atomic<uint64_t> pbn_comparisons_{0};
  std::atomic<uint64_t> bytes_compared_{0};
  std::atomic<uint64_t> vjoin_pairs_{0};
  std::atomic<uint64_t> decoded_batches_{0};
  std::atomic<uint64_t> block_skips_{0};
  std::atomic<uint64_t> value_index_lookups_{0};
  std::atomic<uint64_t> value_index_postings_{0};
  std::atomic<uint64_t> value_scan_fallbacks_{0};
  std::atomic<uint64_t> zone_map_skips_{0};
  std::mutex steps_mu_;
  std::vector<StepStats> steps_;
  std::mutex vtypes_mu_;
  std::unordered_map<std::string,
                     std::shared_ptr<const std::vector<uint32_t>>>
      vtypes_cache_;
  std::mutex bitmaps_mu_;
  std::unordered_map<std::string,
                     std::shared_ptr<const std::vector<uint8_t>>>
      bitmaps_cache_;
};

}  // namespace vpbn::query
