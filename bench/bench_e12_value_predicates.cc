/// \file bench_e12_value_predicates.cc
/// \brief E12: value-predicate pushdown through the dictionary-encoded
/// value index vs the per-node scan baseline, across selectivities, on the
/// books catalog and the XMark-style auctions workload.
///
/// Both sides run the same QueryEngine over the same StoredDocument; the
/// only difference is ExecOptions::use_value_index. The baseline evaluates
/// each candidate by materializing its string value and comparing; the
/// pushdown side answers equality from postings, ranges from two binary
/// searches over the sorted numeric column, and contains() from one
/// dictionary sweep — then semi-joins the witnesses against the context.
/// Results are byte-identical (asserted here on every query); only the
/// wall clock and the counters move. Emits a table to stdout and a JSON
/// record with baseline + speedup per query.
///
/// A second block times selective lookups: the four templates of the
/// `lookup` load workload (loadbench/) on ScaledAuctions(1.0), each over
/// distinct literals. Every answer is checked against the navigational
/// evaluator before timing; the block records execute µs per query and
/// `nodes_scanned` per result row (JSON "lookups"), the counter CI bounds.
///
///   $ ./bench_e12_value_predicates [num_books] [out.json]
///       [--benchmark_min_time=0.01s]
///
/// The --benchmark_min_time flag (Google-Benchmark spelling, accepted for
/// CI smoke runs) shrinks the workload, the literal count and the
/// repetition count (the lookup corpus stays at scale 1.0).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "query/engine.h"
#include "query/eval_nav.h"
#include "workload/auctions.h"
#include "workload/books.h"

namespace {

/// Minimal JSON string escaping for the query texts (embedded quotes).
std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

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

  // Positional args: [num_books] [out.json] — a non-numeric first arg is
  // the output path (so `--benchmark_min_time=... out.json` works).
  workload::BooksOptions bopts;
  bopts.seed = 12;
  bopts.num_books = smoke ? 400 : 2000;
  const char* out_path = "BENCH_e12.json";
  size_t p = 0;
  if (p < positional.size() &&
      positional[p].find_first_not_of("0123456789") == std::string::npos) {
    bopts.num_books = std::atoi(positional[p++].c_str());
  }
  if (p < positional.size()) out_path = positional[p].c_str();
  const int reps = smoke ? 3 : 11;

  auto books_stored = std::make_shared<const storage::StoredDocument>(
      storage::StoredDocument::Build(workload::GenerateBooks(bopts)));

  workload::AuctionsOptions aopts;
  aopts.num_items = smoke ? 100 : 400;
  aopts.num_people = smoke ? 80 : 300;
  aopts.num_auctions = smoke ? 300 : 3000;
  auto auctions_stored = std::make_shared<const storage::StoredDocument>(
      storage::StoredDocument::Build(workload::GenerateAuctions(aopts)));

  // A near-unique equality literal: the first title (titles repeat with
  // low probability, so its selectivity sits at ~1/num_books).
  auto first_title = query::EvalNav(books_stored->doc(), "//title");
  if (!first_title.ok() || first_title->empty()) {
    std::fprintf(stderr, "no titles generated\n");
    return 1;
  }
  std::string rare_title =
      books_stored->doc().StringValue(first_title->front());

  struct Case {
    const char* label;    ///< predicate family / selectivity band
    const char* workload; ///< books | auctions
    std::string query;
  };
  const Case cases[] = {
      {"eq-rare", "books", "//book[title = \"" + rare_title + "\"]"},
      {"eq-common", "books", "//book[author/name = \"Ada Codd\"]"},
      {"range-narrow", "books", "//book[@year >= 2020]"},
      {"range-wide", "books", "//book[@year > 1980]"},
      {"contains", "books", "//book[contains(title, \"Vol\")]/title"},
      {"eq-chain", "auctions", "//auction[bidder/price > 120]"},
      {"range-leaf", "auctions", "//item[quantity >= 4]/name"},
  };

  std::printf(
      "E12 — value-predicate pushdown vs per-node scan (books: %zu nodes, "
      "%d books; auctions: %zu nodes)\n\n",
      static_cast<size_t>(books_stored->doc().num_nodes()), bopts.num_books,
      static_cast<size_t>(auctions_stored->doc().num_nodes()));

  struct Row {
    std::string label;
    std::string workload;
    std::string query;
    size_t nodes = 0;
    double selectivity = 0;  // result nodes / candidate instances
    uint64_t lookups = 0;
    uint64_t postings = 0;
    uint64_t fallbacks = 0;
    double scan_ms = 0;
    double push_ms = 0;
  };
  std::vector<Row> rows;
  size_t sink = 0;

  for (const Case& c : cases) {
    query::QueryEngine engine(c.workload[0] == 'b' ? books_stored
                                                   : auctions_stored);
    auto prepared = engine.Prepare(c.query);
    if (!prepared.ok()) {
      std::fprintf(stderr, "prepare failed: %s\n",
                   prepared.status().ToString().c_str());
      return 1;
    }
    query::ExecOverrides scan_opts{.collect_stats = false,
                                   .use_value_index = false};
    query::ExecOverrides push_opts{.collect_stats = true,
                                   .use_value_index = true};

    // Warm-up verifies byte-identity and captures the counters.
    auto scan_r = engine.Execute(*prepared, scan_opts);
    auto push_r = engine.Execute(*prepared, push_opts);
    if (!scan_r.ok() || !push_r.ok()) {
      std::fprintf(stderr, "execute failed on %s\n", c.query.c_str());
      return 1;
    }
    if (scan_r->pbn_nodes() != push_r->pbn_nodes()) {
      std::fprintf(stderr, "DIVERGENCE on %s: scan %zu vs pushdown %zu\n",
                   c.query.c_str(), scan_r->size(), push_r->size());
      return 1;
    }

    Row row;
    row.label = c.label;
    row.workload = c.workload;
    row.query = c.query;
    row.nodes = push_r->size();
    // Candidates = instances of the predicate's context element.
    size_t candidates =
        c.workload[0] == 'b'
            ? static_cast<size_t>(bopts.num_books)
            : static_cast<size_t>(aopts.num_auctions + aopts.num_items);
    row.selectivity =
        candidates > 0 ? static_cast<double>(row.nodes) / candidates : 0;
    row.lookups = push_r->stats().value_index_lookups;
    row.postings = push_r->stats().value_index_postings;
    row.fallbacks = push_r->stats().value_scan_fallbacks;
    push_opts.collect_stats = false;
    row.scan_ms = bench::MedianMs(reps, [&] {
      sink += engine.Execute(*prepared, scan_opts)->size();
    });
    row.push_ms = bench::MedianMs(reps, [&] {
      sink += engine.Execute(*prepared, push_opts)->size();
    });
    rows.push_back(std::move(row));
  }

  // Selective lookups over distinct literals (both caches of a server
  // would miss): per template, every literal's answer must equal EvalNav's
  // before any timing.
  const workload::AuctionsOptions lopts = workload::ScaledAuctions(1.0);
  auto lookup_stored = std::make_shared<const storage::StoredDocument>(
      storage::StoredDocument::Build(workload::GenerateAuctions(lopts)));
  struct LookupCase {
    const char* label;
    const char* head;        ///< query text before the literal
    const char* tail;        ///< query text after it
    const char* lit_prefix;  ///< "item" | "person"
    int ids;                 ///< literal ids 0 .. ids-1
  };
  const LookupCase lookup_cases[] = {
      {"auction-itemref", "//auction[itemref = \"", "\"]/bidder/price", "item",
       lopts.num_items},
      {"bidder-personref", "//bidder[personref = \"", "\"]/price", "person",
       lopts.num_people},
      {"person-id", "//person[@id = \"", "\"]/name", "person",
       lopts.num_people},
      {"item-id", "//item[@id = \"", "\"]/name", "item", lopts.num_items},
  };
  const int lookup_literals = smoke ? 8 : 64;
  struct LookupRow {
    std::string label;
    std::string query;  ///< the template, literal shown as N
    int literals = 0;
    size_t result_rows = 0;
    uint64_t nodes_scanned = 0;
    double execute_us = 0;  ///< per query, median over reps
  };
  std::vector<LookupRow> lookup_rows;
  query::QueryEngine lookup_engine(lookup_stored);
  const query::ExecOverrides timed_opts{};
  const query::ExecOverrides counted_opts{.collect_stats = true};
  Rng lit_rng(12);
  for (const LookupCase& c : lookup_cases) {
    LookupRow row;
    row.label = c.label;
    row.query = std::string(c.head) + c.lit_prefix + "N" + c.tail;
    row.literals = lookup_literals;
    // Distinct ids: a partial Fisher-Yates draw.
    std::vector<int> ids(static_cast<size_t>(c.ids));
    for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int>(i);
    std::vector<query::PreparedQuery> prepared;
    for (int k = 0; k < lookup_literals; ++k) {
      const size_t j = k + lit_rng.Uniform(ids.size() - k);
      std::swap(ids[k], ids[j]);
      const std::string text = std::string(c.head) + c.lit_prefix +
                               std::to_string(ids[k]) + c.tail;
      auto q = lookup_engine.Prepare(text);
      auto nav = query::EvalNav(lookup_stored->doc(), text);
      if (!q.ok() || !nav.ok()) {
        std::fprintf(stderr, "lookup failed: %s\n", text.c_str());
        return 1;
      }
      auto r = lookup_engine.Execute(*q, counted_opts);
      if (!r.ok()) {
        std::fprintf(stderr, "execute failed on %s\n", text.c_str());
        return 1;
      }
      std::vector<num::Pbn> expect;
      for (xml::NodeId id : *nav) {
        expect.push_back(lookup_stored->numbering().OfNode(id));
      }
      if (r->pbn_nodes() != expect) {
        std::fprintf(stderr, "DIVERGENCE on %s: nav %zu vs engine %zu\n",
                     text.c_str(), expect.size(), r->size());
        return 1;
      }
      row.result_rows += r->size();
      row.nodes_scanned += r->stats().nodes_scanned;
      prepared.push_back(std::move(q).ValueUnsafe());
    }
    const double pass_ms = bench::MedianMs(reps, [&] {
      for (const query::PreparedQuery& q : prepared) {
        sink += lookup_engine.Execute(q, timed_opts)->size();
      }
    });
    row.execute_us = 1000 * pass_ms / lookup_literals;
    lookup_rows.push_back(std::move(row));
  }

  bench::Table table({"case", "query", "nodes", "sel %", "scan ms",
                      "push ms", "speedup"});
  for (const Row& r : rows) {
    table.AddRow({r.label, r.query, std::to_string(r.nodes),
                  Fmt(100 * r.selectivity, 2), Fmt(r.scan_ms), Fmt(r.push_ms),
                  Fmt(r.push_ms > 0 ? r.scan_ms / r.push_ms : 0, 2) + "x"});
  }
  table.Print();

  std::printf("\nSelective lookups (ScaledAuctions(1.0): %zu nodes, %d "
              "distinct literals per template)\n\n",
              static_cast<size_t>(lookup_stored->doc().num_nodes()),
              lookup_literals);
  bench::Table lookup_table(
      {"case", "query", "rows", "execute us", "scanned/row"});
  auto per_row = [](const LookupRow& r) {
    return static_cast<double>(r.nodes_scanned) /
           static_cast<double>(std::max<size_t>(r.result_rows, 1));
  };
  for (const LookupRow& r : lookup_rows) {
    lookup_table.AddRow({r.label, r.query, std::to_string(r.result_rows),
                         Fmt(r.execute_us, 1), Fmt(per_row(r), 2)});
  }
  lookup_table.Print();

  FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"run\": %s,\n"
               "  \"experiment\": \"e12_value_predicates\",\n"
               "  \"workloads\": {\"books\": {\"nodes\": %zu, \"books\": %d}, "
               "\"auctions\": {\"nodes\": %zu, \"auctions\": %d}},\n"
               "  \"reps\": %d,\n"
               "  \"queries\": [",
               bench::RunRecordJson().c_str(),
               static_cast<size_t>(books_stored->doc().num_nodes()), bopts.num_books,
               static_cast<size_t>(auctions_stored->doc().num_nodes()), aopts.num_auctions,
               reps);
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        out,
        "%s\n    {\"case\": \"%s\", \"workload\": \"%s\", \"query\": \"%s\", "
        "\"result_nodes\": %zu, \"selectivity\": %.5f, "
        "\"value_index_lookups\": %llu, \"value_index_postings\": %llu, "
        "\"value_scan_fallbacks\": %llu, "
        "\"scan_ms\": %.4f, \"push_ms\": %.4f, \"speedup\": %.3f}",
        i == 0 ? "" : ",", r.label.c_str(), r.workload.c_str(),
        JsonEscape(r.query).c_str(), r.nodes, r.selectivity,
        static_cast<unsigned long long>(r.lookups),
        static_cast<unsigned long long>(r.postings),
        static_cast<unsigned long long>(r.fallbacks), r.scan_ms, r.push_ms,
        r.push_ms > 0 ? r.scan_ms / r.push_ms : 0);
  }
  std::fprintf(out,
               "\n  ],\n  \"lookup_workload\": {\"nodes\": %zu, "
               "\"literals_per_template\": %d},\n  \"lookups\": [",
               static_cast<size_t>(lookup_stored->doc().num_nodes()),
               lookup_literals);
  for (size_t i = 0; i < lookup_rows.size(); ++i) {
    const LookupRow& r = lookup_rows[i];
    std::fprintf(out,
                 "%s\n    {\"case\": \"%s\", \"query\": \"%s\", "
                 "\"literals\": %d, \"result_rows\": %zu, "
                 "\"nodes_scanned\": %llu, "
                 "\"nodes_scanned_per_result\": %.3f, "
                 "\"execute_us\": %.2f}",
                 i == 0 ? "" : ",", r.label.c_str(),
                 JsonEscape(r.query).c_str(), r.literals, r.result_rows,
                 static_cast<unsigned long long>(r.nodes_scanned), per_row(r),
                 r.execute_us);
  }
  std::fprintf(out, "\n  ],\n  \"sink\": %zu\n}\n", sink % 2);
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path);
  return 0;
}
