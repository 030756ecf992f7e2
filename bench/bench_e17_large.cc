/// \file bench_e17_large.cc
/// \brief E17: a stored document large enough to matter — streamed
/// generation of a ten-million-node auctions corpus, sequential vs pool
/// build, cold-vs-warm mmap behaviour of its snapshot, and plain query
/// timings over the mapped snapshot (pass a smaller scale or a
/// --benchmark_min_time flag for a smoke run).
///
/// Everything is gated on byte-identity first: the pool build must
/// snapshot to the same bytes as the sequential build, and every query
/// over the mapped snapshot must return exactly the in-memory build's
/// result, before anything is timed.
///
///   $ ./bench_e17_large [scale] [out.json] [--benchmark_min_time=0.01s]
///
/// \p scale is the XMark-style factor fed to workload::ScaledAuctions
/// (28 ~= 11M nodes; the smoke default is 0.05).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/thread_pool.h"
#include "query/engine.h"
#include "storage/snapshot.h"
#include "storage/stored_document.h"
#include "workload/auctions.h"

int main(int argc, char** argv) {
  using namespace vpbn;
  using bench::Fmt;

  bool smoke = false;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_min_time=", 21) == 0) {
      smoke = true;
    } else {
      positional.push_back(argv[i]);
    }
  }

  double scale = smoke ? 0.05 : 28.0;
  const char* out_path = "BENCH_e17.json";
  size_t p = 0;
  if (p < positional.size() &&
      positional[p].find_first_not_of("0123456789.") == std::string::npos) {
    scale = std::atof(positional[p++].c_str());
  }
  if (p < positional.size()) out_path = positional[p].c_str();
  const int reps = smoke ? 3 : 5;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  // --- Corpus (streamed generation) -------------------------------------
  workload::AuctionsOptions opts = workload::ScaledAuctions(scale);
  std::fprintf(stderr,
               "e17: generating auctions at scale %.3g "
               "(%d items, %d people, %d auctions)\n",
               scale, opts.num_items, opts.num_people, opts.num_auctions);
  uint64_t last_pct = 0;
  xml::Document doc = workload::GenerateAuctionsChunked(
      opts, 100000, [&](uint64_t done, uint64_t total) {
        uint64_t pct = total == 0 ? 100 : 100 * done / total;
        if (pct >= last_pct + 10) {
          std::fprintf(stderr, "e17: generated %llu%%\n",
                       static_cast<unsigned long long>(pct));
          last_pct = pct;
        }
      });
  const size_t num_nodes = doc.num_nodes();
  std::fprintf(stderr, "e17: %zu nodes\n", num_nodes);

  // --- Build: sequential vs pool (byte-identity gated) ------------------
  double build_seq_ms = 0, build_pool_ms = 0;
  storage::StoredDocument stored;
  {
    auto t0 = std::chrono::steady_clock::now();
    storage::StoredDocument seq = storage::StoredDocument::Build(doc);
    build_seq_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
    // The reference build borrows `doc` — snapshot it before the owning
    // build below moves the document out from under it.
    std::string seq_snap = storage::Snapshot::Write(seq);
    common::ThreadPool pool(static_cast<int>(hw));
    t0 = std::chrono::steady_clock::now();
    storage::StoredDocument par =
        storage::StoredDocument::Build(std::move(doc), &pool);
    build_pool_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    if (seq_snap != storage::Snapshot::Write(par)) {
      std::fprintf(stderr, "MISMATCH: pool build differs from sequential\n");
      return 1;
    }
    stored = std::move(par);
  }
  std::fprintf(stderr, "e17: build seq %.0f ms, pool(%u) %.0f ms\n",
               build_seq_ms, hw, build_pool_ms);

  // --- Snapshot + cold/warm mmap residency ------------------------------
  const std::string snap_path = "/tmp/bench_e17.vpsn";
  if (!storage::Snapshot::WriteFile(stored, snap_path).ok()) {
    std::fprintf(stderr, "cannot write %s\n", snap_path.c_str());
    return 1;
  }

  struct QuerySpec {
    const char* label;
    const char* path;
  };
  const std::vector<QuerySpec> kQueries = {
      {"scan_all", "//item/name"},
      {"mid_selective", "//auction[bidder/price > 120]/itemref"},
      {"high_selective", "//bidder[price > 990]/personref"},
      {"no_match_literal", "//person[city = \"__nowhere__\"]/name"},
  };

  auto loaded = storage::Snapshot::LoadFile(snap_path, nullptr, true);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  auto shared = std::make_shared<const storage::StoredDocument>(
      std::move(*loaded));
  const size_t resident_after_load = shared->resident_mapped_bytes();
  query::QueryEngine engine(shared);

  // Cold first query: pages evicted, then one mid-selective query pays
  // the page-in plus lazy-decode cost.
  shared->EvictMappedPages();
  const size_t resident_cold = shared->resident_mapped_bytes();
  double cold_ms = 0;
  {
    auto t0 = std::chrono::steady_clock::now();
    auto r = engine.Execute(kQueries[1].path, {});
    cold_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    if (!r.ok()) return 1;
  }
  const size_t resident_warm = shared->resident_mapped_bytes();
  double warm_ms = bench::MedianMs(reps, [&] {
    if (!engine.Execute(kQueries[1].path, {}).ok()) std::abort();
  });

  // --- Queries over the snapshot (byte-identity gated) -------------------
  // The in-memory build is the reference; the aliasing pointer borrows it.
  query::QueryEngine built_engine(
      std::shared_ptr<const storage::StoredDocument>(
          std::shared_ptr<const void>(), &stored));
  struct Row {
    std::string label;
    size_t hits = 0;
    double ms = 0;
  };
  std::vector<Row> rows;
  for (const QuerySpec& q : kQueries) {
    auto prepared = engine.Prepare(q.path);
    if (!prepared.ok()) {
      std::fprintf(stderr, "prepare failed for %s\n", q.path);
      return 1;
    }
    auto r = engine.Execute(*prepared);
    auto expect = built_engine.Execute(q.path);
    if (!r.ok() || !expect.ok() || r->nodes() != expect->nodes()) {
      std::fprintf(stderr,
                   "MISMATCH: %s differs between snapshot and build\n",
                   q.path);
      return 1;
    }
    Row row;
    row.label = q.label;
    row.hits = r->size();
    row.ms = bench::MedianMs(reps, [&] {
      if (!engine.Execute(*prepared).ok()) std::abort();
    });
    rows.push_back(std::move(row));
  }

  // --- Report -----------------------------------------------------------
  std::printf("E17 — large stored document (auctions scale %.3g, %zu "
              "nodes, %u hw threads)\n\n",
              scale, num_nodes, hw);
  bench::Table table({"query", "hits", "ms"});
  for (const Row& r : rows) {
    table.AddRow({r.label, std::to_string(r.hits), Fmt(r.ms)});
  }
  table.Print();
  std::printf("\nbuild: seq %.1f ms, pool(%u) %.1f ms (%.2fx)\n",
              build_seq_ms, hw, build_pool_ms,
              build_pool_ms > 0 ? build_seq_ms / build_pool_ms : 0);
  std::printf("mmap residency: after load %zu B, evicted %zu B, after "
              "query %zu B; cold query %.2f ms, warm %.2f ms\n",
              resident_after_load, resident_cold, resident_warm, cold_ms,
              warm_ms);

  FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(out, "{\n  \"run\": %s,\n", bench::RunRecordJson().c_str());
  std::fprintf(out,
               "  \"experiment\": \"e17_large\",\n"
               "  \"workload\": {\"generator\": \"auctions\", \"scale\": "
               "%.4f, \"nodes\": %zu, \"hw_threads\": %u},\n",
               scale, num_nodes, hw);
  std::fprintf(out,
               "  \"build\": {\"seq_ms\": %.2f, \"pool_ms\": %.2f, "
               "\"speedup\": %.3f, \"byte_identical\": true},\n",
               build_seq_ms, build_pool_ms,
               build_pool_ms > 0 ? build_seq_ms / build_pool_ms : 0);
  std::fprintf(out,
               "  \"mmap\": {\"resident_after_load\": %zu, "
               "\"resident_evicted\": %zu, \"resident_after_query\": %zu, "
               "\"cold_query_ms\": %.3f, \"warm_query_ms\": %.3f},\n",
               resident_after_load, resident_cold, resident_warm, cold_ms,
               warm_ms);
  std::fprintf(out, "  \"queries\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(out,
                 "    {\"label\": \"%s\", \"hits\": %zu, \"ms\": %.4f}%s\n",
                 r.label.c_str(), r.hits, r.ms,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path);
  std::remove(snap_path.c_str());
  return 0;
}
