/// \file bench_e15_snapshot_v2.cc
/// \brief E15: snapshot format v2 — compressed size vs v1 and vs the
/// source XML, cold-start load latency of the v1 copy-load against the v2
/// mmap load, and end-to-end first-query latency from either format, on
/// the same auctions corpus E13 uses.
///
/// The load paths are gated on correctness first: both formats must
/// restore documents that re-snapshot to identical v2 bytes and answer the
/// probe query with the same result count before anything is timed.
///
///   $ ./bench_e15_snapshot_v2 [num_auctions] [out.json]
///       [--benchmark_min_time=0.01s]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "query/engine.h"
#include "storage/snapshot.h"
#include "storage/stored_document.h"
#include "workload/auctions.h"
#include "xml/parser.h"
#include "xml/serializer.h"

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

  workload::AuctionsOptions opts;
  opts.num_items = smoke ? 100 : 400;
  opts.num_people = smoke ? 80 : 300;
  opts.num_auctions = smoke ? 300 : 4000;
  const char* out_path = "BENCH_e15.json";
  size_t p = 0;
  if (p < positional.size() &&
      positional[p].find_first_not_of("0123456789") == std::string::npos) {
    opts.num_auctions = std::atoi(positional[p++].c_str());
  }
  if (p < positional.size()) out_path = positional[p].c_str();
  const int reps = smoke ? 3 : 9;
  const char* kQuery = "//auction[bidder/price > 120]";

  std::string xml_text =
      xml::SerializeDocument(workload::GenerateAuctions(opts));
  auto parsed = xml::Parse(xml_text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 1;
  }
  storage::StoredDocument stored =
      storage::StoredDocument::Build(std::move(*parsed));

  std::string v1 = storage::Snapshot::Write(stored, 1);
  std::string v2 = storage::Snapshot::Write(stored, 2);
  const std::string v1_path = std::string("/tmp/bench_e15_v1.vpsn");
  const std::string v2_path = std::string("/tmp/bench_e15_v2.vpsn");
  if (!storage::Snapshot::WriteFile(stored, v1_path, 1).ok() ||
      !storage::Snapshot::WriteFile(stored, v2_path, 2).ok()) {
    std::fprintf(stderr, "cannot write snapshot files\n");
    return 1;
  }

  // Correctness gate: both formats restore documents that re-snapshot to
  // the same bytes and agree on the probe query.
  size_t probe_hits = 0;
  {
    auto from_v1 = storage::Snapshot::LoadFile(v1_path, nullptr, false);
    auto from_v2 = storage::Snapshot::LoadFile(v2_path, nullptr, true);
    if (!from_v1.ok() || !from_v2.ok()) {
      std::fprintf(stderr, "load failed\n");
      return 1;
    }
    if (storage::Snapshot::Write(*from_v1) !=
        storage::Snapshot::Write(*from_v2)) {
      std::fprintf(stderr, "MISMATCH: v1/v2 restores differ\n");
      return 1;
    }
    auto s1 = std::make_shared<const storage::StoredDocument>(
        std::move(*from_v1));
    auto s2 = std::make_shared<const storage::StoredDocument>(
        std::move(*from_v2));
    size_t h1 = query::QueryEngine(s1).Execute(kQuery, {})->size();
    size_t h2 = query::QueryEngine(s2).Execute(kQuery, {})->size();
    if (h1 != h2) {
      std::fprintf(stderr, "MISMATCH: %zu vs %zu hits\n", h1, h2);
      return 1;
    }
    probe_hits = h1;
  }

  std::printf(
      "E15 — snapshot v2 (auctions, %d auctions; xml %zu B, v1 %zu B, "
      "v2 %zu B => %.2fx vs v1, %.2fx vs xml)\n\n",
      opts.num_auctions, xml_text.size(), v1.size(), v2.size(),
      v2.empty() ? 0 : static_cast<double>(v1.size()) / v2.size(),
      v2.empty() ? 0 : static_cast<double>(xml_text.size()) / v2.size());

  // --- Cold-start load latency ----------------------------------------
  // v1 copy-load is the pre-v2 production path (read file, validate every
  // number structurally, rebuild columns). v2 mmap is the new default
  // (checksum, derive, leave arenas lazy). v2 copy isolates the mmap win
  // from the format win. First-touch decode is charged where a workload
  // pays it: the first-query medians below run a real query after load.
  double v1_copy_ms = bench::MedianMs(reps, [&] {
    auto r = storage::Snapshot::LoadFile(v1_path, nullptr, false);
    if (!r.ok()) std::abort();
  });
  double v2_copy_ms = bench::MedianMs(reps, [&] {
    auto r = storage::Snapshot::LoadFile(v2_path, nullptr, false);
    if (!r.ok()) std::abort();
  });
  double v2_mmap_ms = bench::MedianMs(reps, [&] {
    auto r = storage::Snapshot::LoadFile(v2_path, nullptr, true);
    if (!r.ok()) std::abort();
  });

  // --- First-query latency (load + one real query) --------------------
  auto first_query = [&](const std::string& path, bool mmap) {
    return bench::MedianMs(reps, [&] {
      auto r = storage::Snapshot::LoadFile(path, nullptr, mmap);
      if (!r.ok()) std::abort();
      auto s = std::make_shared<const storage::StoredDocument>(
          std::move(*r));
      query::QueryEngine engine(s);
      if (engine.Execute(kQuery, {})->size() != probe_hits) std::abort();
    });
  };
  double v1_first_ms = first_query(v1_path, false);
  double v2_first_ms = first_query(v2_path, true);

  bench::Table table({"path", "ms"});
  table.AddRow({"v1 copy-load", Fmt(v1_copy_ms)});
  table.AddRow({"v2 copy-load", Fmt(v2_copy_ms)});
  table.AddRow({"v2 mmap-load", Fmt(v2_mmap_ms)});
  table.AddRow({"v1 load+query", Fmt(v1_first_ms)});
  table.AddRow({"v2 load+query (mmap)", Fmt(v2_first_ms)});
  table.Print();
  std::printf(
      "\nv2 mmap load vs v1 copy load: %.2fx; load+first-query: %.2fx\n",
      v2_mmap_ms > 0 ? v1_copy_ms / v2_mmap_ms : 0,
      v2_first_ms > 0 ? v1_first_ms / v2_first_ms : 0);

  FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(out, "{\n  \"run\": %s,\n", bench::RunRecordJson().c_str());
  std::fprintf(out,
               "  \"experiment\": \"e15_snapshot_v2\",\n"
               "  \"workload\": {\"generator\": \"auctions\", \"auctions\": "
               "%d, \"probe_hits\": %zu},\n",
               opts.num_auctions, probe_hits);
  std::fprintf(out,
               "  \"sizes\": {\"xml_bytes\": %zu, \"v1_bytes\": %zu, "
               "\"v2_bytes\": %zu, \"v2_vs_v1\": %.3f, \"v2_vs_xml\": "
               "%.3f},\n",
               xml_text.size(), v1.size(), v2.size(),
               v2.empty() ? 0 : static_cast<double>(v1.size()) / v2.size(),
               v2.empty() ? 0
                          : static_cast<double>(xml_text.size()) / v2.size());
  std::fprintf(out,
               "  \"load\": {\"v1_copy_ms\": %.4f, \"v2_copy_ms\": %.4f, "
               "\"v2_mmap_ms\": %.4f, \"v2_mmap_vs_v1_copy\": %.3f},\n",
               v1_copy_ms, v2_copy_ms, v2_mmap_ms,
               v2_mmap_ms > 0 ? v1_copy_ms / v2_mmap_ms : 0);
  std::fprintf(out,
               "  \"first_query\": {\"v1_ms\": %.4f, \"v2_mmap_ms\": %.4f, "
               "\"speedup\": %.3f}\n",
               v1_first_ms, v2_first_ms,
               v2_first_ms > 0 ? v1_first_ms / v2_first_ms : 0);
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path);
  std::remove(v1_path.c_str());
  std::remove(v2_path.c_str());
  return 0;
}
