/// \file bench_e11_virtual_join.cc
/// \brief E11: vtype-partitioned merge joins for virtual axis steps vs the
/// per-candidate predicate baseline, on the XMark-style auctions workload.
///
/// Both sides run the same QueryEngine over the same VirtualDocument; the
/// only difference is ExecOptions::virtual_join. The baseline evaluates
/// each axis step as |context| x |candidates| (or per-node range-scan)
/// predicate work; the merge side runs one linear group merge per
/// (context-vtype, result-vtype) pair over batch-decoded columns, with the
/// pair tasks doubling as the parallel grain. Results are byte-identical
/// (asserted here on every query, before any timing); only the wall clock
/// moves. Value-predicate rows compare the set-at-a-time predicate path
/// (VirtualAdapter::BatchPredicate) with per-node predicate evaluation the
/// same way. Emits a table to stdout and a JSON record with baseline +
/// speedup.
///
///   $ ./bench_e11_virtual_join [num_auctions] [out.json]
///       [--benchmark_min_time=0.01s]
///
/// The --benchmark_min_time flag (Google-Benchmark spelling, accepted for
/// CI smoke runs) shrinks the workload and repetition count.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "query/engine.h"
#include "vpbn/virtual_document.h"
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

  // Positional args: [num_auctions] [out.json] — a non-numeric first arg
  // is the output path (so `--benchmark_min_time=... out.json` works).
  workload::AuctionsOptions opts;
  opts.num_items = smoke ? 100 : 400;
  opts.num_people = smoke ? 80 : 300;
  opts.num_auctions = smoke ? 300 : 3000;
  const char* out_path = "BENCH_e11.json";
  size_t p = 0;
  if (p < positional.size() &&
      positional[p].find_first_not_of("0123456789") == std::string::npos) {
    opts.num_auctions = std::atoi(positional[p++].c_str());
  }
  if (p < positional.size()) out_path = positional[p].c_str();
  const int reps = smoke ? 3 : 11;

  auto stored = std::make_shared<const storage::StoredDocument>(
      storage::StoredDocument::Build(workload::GenerateAuctions(opts)));
  auto vdoc_or = virt::VirtualDocument::OpenShared(
      stored, "auction { itemref bidder { price } }");
  if (!vdoc_or.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 vdoc_or.status().ToString().c_str());
    return 1;
  }
  query::QueryEngine engine(std::move(vdoc_or).ValueUnsafe());

  struct Case {
    const char* label;  ///< which axis family the hot step exercises
    const char* query;
  };
  // The predicate rows run value predicates set-at-a-time on the merge
  // side (one witness probe per terminal vtype, then one merge per vtype
  // pair) and per context node on the baseline, which is exactly the
  // per-node path the batched predicate replaces; the byte-identity check
  // below gates them like every other row.
  const Case cases[] = {
      {"descendant", "//auction//price"},
      {"descendant", "//auction/descendant-or-self::*"},
      {"child", "//auction/bidder/price"},
      {"child+pred", "//auction/bidder[price > 150]"},
      {"ancestor", "//price/ancestor::auction"},
      {"value pred", "//auction[itemref = 'item7']/bidder/price"},
      {"value pred", "//auction[bidder/price > 120]/itemref"},
  };

  std::printf(
      "E11 — virtual merge joins vs per-candidate predicates (auctions, "
      "%zu nodes, %d auctions)\n\n",
      static_cast<size_t>(stored->doc().num_nodes()), opts.num_auctions);

  struct Row {
    std::string label;
    std::string query;
    size_t nodes = 0;
    uint64_t vjoin_pairs = 0;
    uint64_t decoded_batches = 0;
    double baseline_ms = 0;
    double merge_ms = 0;
    double merge_2t_ms = 0;
    double merge_4t_ms = 0;
  };
  std::vector<Row> rows;
  size_t sink = 0;

  for (const Case& c : cases) {
    auto prepared = engine.Prepare(c.query);
    if (!prepared.ok()) {
      std::fprintf(stderr, "prepare failed: %s\n",
                   prepared.status().ToString().c_str());
      return 1;
    }
    query::ExecOverrides base_opts{.threads = 1,
                                   .collect_stats = false,
                                   .virtual_join = false};
    query::ExecOverrides merge_opts{.threads = 1,
                                    .collect_stats = true,
                                    .virtual_join = true};

    // Warm-up: verifies byte-identity and pays one-time costs (decoded
    // columns, reachability bitmaps) outside the timed regions — the lazy
    // caches persist for the document's lifetime, which is the steady
    // state the merge path is designed for.
    auto base_r = engine.Execute(*prepared, base_opts);
    auto merge_r = engine.Execute(*prepared, merge_opts);
    if (!base_r.ok() || !merge_r.ok()) {
      std::fprintf(stderr, "execute failed on %s\n", c.query);
      return 1;
    }
    if (base_r->virtual_nodes() != merge_r->virtual_nodes()) {
      std::fprintf(stderr, "DIVERGENCE on %s: baseline %zu vs merge %zu\n",
                   c.query, base_r->size(), merge_r->size());
      return 1;
    }

    Row row;
    row.label = c.label;
    row.query = c.query;
    row.nodes = merge_r->size();
    row.vjoin_pairs = merge_r->stats().vjoin_pairs;
    row.decoded_batches = merge_r->stats().decoded_batches;
    merge_opts.collect_stats = false;
    row.baseline_ms = bench::MedianMs(reps, [&] {
      sink += engine.Execute(*prepared, base_opts)->size();
    });
    row.merge_ms = bench::MedianMs(reps, [&] {
      sink += engine.Execute(*prepared, merge_opts)->size();
    });
    merge_opts.threads = 2;
    row.merge_2t_ms = bench::MedianMs(reps, [&] {
      sink += engine.Execute(*prepared, merge_opts)->size();
    });
    merge_opts.threads = 4;
    row.merge_4t_ms = bench::MedianMs(reps, [&] {
      sink += engine.Execute(*prepared, merge_opts)->size();
    });
    rows.push_back(std::move(row));
  }

  bench::Table table(
      {"axis", "query", "nodes", "baseline ms", "merge ms", "speedup", "2T",
       "4T"});
  for (const Row& r : rows) {
    table.AddRow({r.label, r.query, std::to_string(r.nodes),
                  Fmt(r.baseline_ms), Fmt(r.merge_ms),
                  Fmt(r.merge_ms > 0 ? r.baseline_ms / r.merge_ms : 0, 2) +
                      "x",
                  Fmt(r.merge_2t_ms), Fmt(r.merge_4t_ms)});
  }
  table.Print();

  FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"experiment\": \"e11_virtual_join\",\n"
               "  \"workload\": {\"generator\": \"auctions\", \"nodes\": %zu, "
               "\"auctions\": %d, \"view\": "
               "\"auction { itemref bidder { price } }\"},\n"
               "  \"reps\": %d,\n"
               "  \"queries\": [",
               static_cast<size_t>(stored->doc().num_nodes()), opts.num_auctions, reps);
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        out,
        "%s\n    {\"axis\": \"%s\", \"query\": \"%s\", \"result_nodes\": %zu, "
        "\"vjoin_pairs\": %llu, \"decoded_batches\": %llu, "
        "\"baseline_ms\": %.4f, \"merge_ms\": %.4f, \"merge_2t_ms\": %.4f, "
        "\"merge_4t_ms\": %.4f, \"speedup\": %.3f}",
        i == 0 ? "" : ",", r.label.c_str(), r.query.c_str(), r.nodes,
        static_cast<unsigned long long>(r.vjoin_pairs),
        static_cast<unsigned long long>(r.decoded_batches), r.baseline_ms,
        r.merge_ms, r.merge_2t_ms, r.merge_4t_ms,
        r.merge_ms > 0 ? r.baseline_ms / r.merge_ms : 0);
  }
  std::fprintf(out, "\n  ],\n  \"sink\": %zu\n}\n", sink % 2);
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path);
  return 0;
}
