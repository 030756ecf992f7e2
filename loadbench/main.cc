/// \file main.cc
/// \brief vpbnd_load: the closed-loop load driver behind loadbench/run.py.
///
///   vpbnd_load --workload lookup|views --seed N --seconds S
///              --trace 0|1 --vpbnd <path> --workdir <dir> [--corrupt-one]
///
/// It generates the seeded auctions corpus, computes the oracle's answer to
/// every distinct request, starts the shipped vpbnd on an ephemeral port and
/// replays the workload's fixed request sequence over loopback TCP, one
/// blocking connection per client. Every reply is checked against the
/// oracle. With --trace 0 it reports the end-to-end metrics; with --trace 1
/// it also replays the same sequence in-process through the libraries'
/// public calls (loadbench/replay.h), once with spans off and once with
/// spans and ExecStats on, and reports the per-layer metrics.
///
/// The last stdout line is the result object; the line before it is the
/// run record (hardware, build, corpus, sample counts). Exit status 0 only
/// if every answer matched; --corrupt-one flips a byte of one reply before
/// it is checked, to show that a wrong answer fails the run.

#include <sys/stat.h>

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client.h"
#include "common/str_util.h"
#include "oracle.h"
#include "pbn/packed.h"
#include "replay.h"
#include "storage/snapshot.h"
#include "storage/stored_document.h"
#include "vpbn/virtual_document.h"
#include "workload.h"
#include "workload/auctions.h"
#include "xml/parser.h"
#include "xml/serializer.h"

#ifndef VPBN_LOADBENCH_BUILD_TYPE
#define VPBN_LOADBENCH_BUILD_TYPE "unknown"
#endif

namespace loadbench {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

/// Nearest-rank percentile of \p v (copied, so callers keep their order).
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

double Median(const std::vector<double>& v) {
  if (v.empty()) return 0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  size_t n = s.size();
  return n % 2 ? s[n / 2] : (s[n / 2 - 1] + s[n / 2]) / 2;
}

/// Median wall time of \p repeats calls to \p fn, in ms.
template <typename Fn>
double MedianMs(int repeats, Fn fn) {
  std::vector<double> ms;
  for (int i = 0; i < repeats; ++i) {
    auto t = Clock::now();
    fn();
    ms.push_back(MsSince(t));
  }
  return Median(ms);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string vpbnd;
  std::string workdir;
  bool corrupt_one = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--corrupt-one") {
      a->corrupt_one = true;
      continue;
    }
    if (v == nullptr) return false;
    ++i;
    if (arg == "--workload") {
      a->workload = v;
    } else if (arg == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      a->seconds = std::max(1, std::atoi(v));
    } else if (arg == "--trace") {
      a->trace = std::atoi(v) != 0;
    } else if (arg == "--vpbnd") {
      a->vpbnd = v;
    } else if (arg == "--workdir") {
      a->workdir = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && !a->vpbnd.empty() && !a->workdir.empty();
}

/// The generated corpus, its files, and what set-up measured about them.
struct Corpus {
  std::shared_ptr<const vpbn::xml::Document> source;
  std::string xml_text;
  std::shared_ptr<const vpbn::storage::StoredDocument> stored;
  std::string xml_path;
  std::string snapshot_path;
  std::string serve_path;  ///< what vpbnd loads (XML or snapshot)
  uint64_t snapshot_bytes = 0;
  std::vector<double> snapshot_write_s;
};

bool MakeCorpus(const Plan& plan, const std::string& dir, Corpus* c) {
  auto options = vpbn::workload::ScaledAuctions(plan.scale, plan.seed);
  c->source = std::make_shared<const vpbn::xml::Document>(
      vpbn::workload::GenerateAuctions(options));
  c->xml_text = vpbn::xml::SerializeDocument(*c->source);
  const std::string stem = dir + "/" + plan.workload + "-" +
                           std::to_string(plan.seed);
  c->xml_path = stem + ".xml";
  c->snapshot_path = stem + ".vpsn";
  {
    std::ofstream out(c->xml_path, std::ios::binary | std::ios::trunc);
    out << c->xml_text;
    if (!out) return false;
  }
  c->stored = std::make_shared<const vpbn::storage::StoredDocument>(
      vpbn::storage::StoredDocument::Build(*c->source));
  // snapshot_write_s: the median of repeated writes. The last write is the
  // file the views workload serves.
  constexpr int kWrites = 3;
  for (int i = 0; i < kWrites; ++i) {
    auto t = Clock::now();
    if (!vpbn::storage::Snapshot::WriteFile(*c->stored, c->snapshot_path)
             .ok()) {
      return false;
    }
    c->snapshot_write_s.push_back(MsSince(t) / 1000.0);
  }
  struct stat st{};
  if (::stat(c->snapshot_path.c_str(), &st) != 0) return false;
  c->snapshot_bytes = static_cast<uint64_t>(st.st_size);
  c->serve_path = plan.serve_snapshot ? c->snapshot_path : c->xml_path;
  return true;
}

/// vpbnd's command line for this plan, minus the port flags.
std::vector<std::string> ServerArgs(const Plan& plan, const Corpus& c) {
  std::vector<std::string> args = {"--doc",
                                   std::string(kDocName) + "=" + c.serve_path};
  for (const auto& [name, spec] : plan.views) {
    args.push_back("--view");
    args.push_back(std::string(kDocName) + "/" + name + "=" + spec);
  }
  return args;
}

/// \brief Checks replies against the oracle and counts outcomes.
class Checker {
 public:
  Checker(const Plan& plan, const std::vector<Answer>& answers)
      : plan_(plan), answers_(answers) {}

  /// True if \p reply is the right answer to \p req. RELOADs must come
  /// back with an epoch above \p *epoch, which is then advanced.
  bool Check(const Request& req, const Reply& reply, int64_t* epoch) const {
    if (!reply.parsed || reply.code != 0) return false;
    if (req.reload()) {
      if (reply.epoch <= *epoch) return false;
      *epoch = reply.epoch;
      return true;
    }
    const Answer& want = answers_[static_cast<size_t>(req.query)];
    return reply.count == static_cast<int64_t>(want.count) &&
           reply.num_values == want.count && reply.values_hash == want.hash;
  }

  /// The oracle's row count for query \p req.
  uint64_t ExpectedCount(const Request& req) const {
    return answers_[static_cast<size_t>(req.query)].count;
  }

  const Plan& plan() const { return plan_; }

 private:
  const Plan& plan_;
  const std::vector<Answer>& answers_;
};

/// One request's outcome in a closed-loop phase.
struct Outcome {
  double latency_ms = 0;
  size_t bytes = 0;
  bool ok = false;
  bool corrupted = false;  ///< --corrupt-one flipped a byte of this reply
  Reply reply;
};

/// Totals over every request a run sent, for `attempted` / `failed`.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// A request sender: (client, line, reply) -> transport ok.
using SendFn = std::function<bool(int, std::string_view, std::string*)>;

/// The protocol line of \p req.
const std::string& LineOf(const std::vector<std::string>& lines,
                          const Request& req) {
  static const std::string kReload = std::string("RELOAD ") + kDocName;
  return req.reload() ? kReload : lines[static_cast<size_t>(req.query)];
}

/// Send \p req from \p client, time it and check the reply. With
/// \p corrupt, one byte of the first value is flipped before the check.
Outcome SendOne(const Checker& checker, const std::vector<std::string>& lines,
                const SendFn& send, int client, const Request& req,
                bool corrupt, std::string* reply, int64_t* epoch) {
  Outcome out;
  auto t = Clock::now();
  const bool sent = send(client, LineOf(lines, req), reply);
  out.latency_ms = MsSince(t);
  out.bytes = reply->size();
  if (!sent) return out;
  if (corrupt) {
    size_t at = reply->find("\"values\":[\"");
    if (at != std::string::npos) {
      (*reply)[at + 11] ^= 0x20;
      out.corrupted = true;
    }
  }
  out.reply = ParseReply(*reply);
  out.ok = checker.Check(req, out.reply, epoch);
  return out;
}

/// Send \p seq from client 0, sequentially.
std::vector<Outcome> RunSequential(const Checker& checker,
                                   const std::vector<std::string>& lines,
                                   const std::vector<Request>& seq,
                                   const SendFn& send, int64_t* epoch) {
  std::vector<Outcome> out;
  std::string reply;
  for (const Request& req : seq) {
    out.push_back(
        SendOne(checker, lines, send, 0, req, false, &reply, epoch));
  }
  return out;
}

/// \brief The timed phase's outcomes, [round][client][i], each round's
/// wall time, and vpbnd's VmRSS at the end of each round.
struct TimedRun {
  std::vector<std::vector<std::vector<Outcome>>> outcomes;
  std::vector<double> round_s;
  std::vector<double> round_rss_mb;

  /// Call \p fn(request, outcome) for every request of \p rounds.
  template <typename Fn>
  void ForEach(const Plan& plan, const std::vector<size_t>& rounds,
               Fn fn) const {
    for (size_t r : rounds) {
      for (size_t c = 0; c < outcomes[r].size(); ++c) {
        for (size_t i = 0; i < outcomes[r][c].size(); ++i) {
          fn(plan.rounds[r][c][i], outcomes[r][c][i]);
        }
      }
    }
  }
};

/// The timed closed loop: one thread per client, each replaying its own
/// fixed sequence of every round. All clients start a round together, and
/// the next round starts when every client has finished the current one.
/// \p server is the pid whose VmRSS is sampled after each round (-1: none).
void RunTimed(const Checker& checker, const std::vector<std::string>& lines,
              const SendFn& send, pid_t server, bool corrupt_one,
              int64_t* epoch, TimedRun* run) {
  const Plan& plan = checker.plan();
  const size_t rounds = plan.rounds.size();
  const size_t clients = static_cast<size_t>(plan.clients);
  run->outcomes.assign(rounds, std::vector<std::vector<Outcome>>(clients));
  run->round_s.assign(rounds, 0);
  run->round_rss_mb.assign(rounds, 0);
  // The self-check target: the first query with a non-empty answer from
  // the middle of client 0's middle round on, so there is a value to flip.
  size_t corrupt_round = rounds, corrupt_at = 0;
  for (size_t r = rounds / 2; corrupt_one && r < rounds; ++r) {
    const std::vector<Request>& seq = plan.rounds[r][0];
    for (size_t i = r == rounds / 2 ? seq.size() / 2 : 0; i < seq.size();
         ++i) {
      if (!seq[i].reload() && checker.ExpectedCount(seq[i]) > 0) {
        corrupt_round = r;
        corrupt_at = i;
        break;
      }
    }
    if (corrupt_round < rounds) break;
  }
  std::barrier sync(static_cast<std::ptrdiff_t>(clients) + 1);
  std::vector<int64_t> epochs(clients, *epoch);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::string reply;
      for (size_t r = 0; r < rounds; ++r) {
        const std::vector<Request>& seq = plan.rounds[r][c];
        std::vector<Outcome>& out = run->outcomes[r][c];
        out.resize(seq.size());
        const bool target = c == 0 && r == corrupt_round;
        sync.arrive_and_wait();
        for (size_t i = 0; i < seq.size(); ++i) {
          out[i] = SendOne(checker, lines, send, static_cast<int>(c), seq[i],
                           target && i == corrupt_at, &reply, &epochs[c]);
        }
        sync.arrive_and_wait();
      }
    });
  }
  for (size_t r = 0; r < rounds; ++r) {
    sync.arrive_and_wait();
    auto t = Clock::now();
    sync.arrive_and_wait();
    run->round_s[r] = MsSince(t) / 1000.0;
    if (server > 0) run->round_rss_mb[r] = ResidentMb(server);
  }
  for (std::thread& th : threads) th.join();
  for (int64_t e : epochs) *epoch = std::max(*epoch, e);
}

/// Indices of every round.
std::vector<size_t> AllRounds(const TimedRun& run) {
  std::vector<size_t> all(run.round_s.size());
  for (size_t r = 0; r < all.size(); ++r) all[r] = r;
  return all;
}

/// Latencies of the queries (RELOADs excluded) and of the RELOADs of
/// \p rounds.
void SplitLatencies(const Plan& plan, const TimedRun& run,
                    const std::vector<size_t>& rounds,
                    std::vector<double>* queries,
                    std::vector<double>* reloads) {
  run.ForEach(plan, rounds, [&](const Request& req, const Outcome& o) {
    (req.reload() ? reloads : queries)->push_back(o.latency_ms);
  });
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string JsonList(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i ? ", " : "") + JsonNumber(values[i]);
  }
  return out + "]";
}

std::string ResultJson(bool correct, const Tally& tally,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted);
  out += ", \"failed\": " + std::to_string(tally.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  return out;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return std::string(
            vpbn::TrimWhitespace(std::string_view(line).substr(colon + 1)));
      }
    }
  }
  return "unknown";
}

/// \brief What the traced in-process replay measured.
struct ReplayResult {
  TimedRun run;
  std::vector<SpanLog> logs;                   ///< one per client thread
  std::vector<std::vector<ExecSample>> samples;  ///< per client, per request
  double hit_rate = 0;
  double plan_hit_rate = 0;
  double memory_mb = 0;
  double resident_mapped_mb = 0;
  double open_ms = 0;
  uint64_t mismatches = 0;  ///< requests whose answer differs from vpbnd's
};

/// Replay the plan in-process against a fresh replica. \p tcp holds
/// vpbnd's outcomes for the same requests.
bool Replay(const Checker& checker, const std::vector<std::string>& lines,
            const Corpus& corpus, bool spans, const TimedRun& tcp,
            Tally* tally, ReplayResult* r) {
  const Plan& plan = checker.plan();
  Replica replica;
  if (vpbn::Status s = replica.Load(plan, corpus.serve_path); !s.ok()) {
    std::fprintf(stderr, "vpbnd_load: replica load: %s\n",
                 s.ToString().c_str());
    return false;
  }
  const size_t clients = static_cast<size_t>(plan.clients);
  r->logs.assign(clients, SpanLog{});
  r->samples.assign(clients, {});
  for (const Round& round : plan.rounds) {
    for (size_t c = 0; c < clients; ++c) {
      r->samples[c].resize(r->samples[c].size() + round[c].size());
    }
  }
  // Request ids: client c's i-th timed request is c * 2^24 + i.
  std::vector<uint32_t> next(clients, 0);
  SendFn send = [&](int c, std::string_view line, std::string* reply) {
    const size_t cc = static_cast<size_t>(c);
    const uint32_t i = next[cc]++;
    ExecSample* sample =
        i < r->samples[cc].size() ? &r->samples[cc][i] : nullptr;
    *reply = replica.HandleLine(line, spans ? &r->logs[cc] : nullptr,
                                (static_cast<uint32_t>(c) << 24) | i, spans,
                                sample);
    return true;
  };

  int64_t epoch = 1;
  for (const Request& req : plan.warmup) {
    replica.HandleLine(LineOf(lines, req), nullptr, 0, false, nullptr);
  }
  RunTimed(checker, lines, send, -1, false, &epoch, &r->run);
  for (size_t k = 0; k < plan.rounds.size(); ++k) {
    for (size_t c = 0; c < clients; ++c) {
      for (size_t i = 0; i < plan.rounds[k][c].size(); ++i) {
        const Outcome& mine = r->run.outcomes[k][c][i];
        const Outcome& theirs = tcp.outcomes[k][c][i];
        tally->Add(mine.ok);
        const bool same =
            plan.rounds[k][c][i].reload() ||
            (mine.reply.count == theirs.reply.count &&
             mine.reply.num_values == theirs.reply.num_values &&
             mine.reply.values_hash == theirs.reply.values_hash);
        if (!same) ++r->mismatches;
      }
    }
  }
  // Post-phase reloads (lookup), timed as spans too.
  std::vector<Request> tail(static_cast<size_t>(plan.tail_reloads), Request{});
  for (const Outcome& o : RunSequential(checker, lines, tail, send, &epoch)) {
    tally->Add(o.ok);
  }

  const auto& cache = replica.cache();
  const double probes = static_cast<double>(cache.hits() + cache.misses());
  r->hit_rate = probes > 0 ? cache.hits() / probes : 0;
  auto [plan_hits, plan_misses] = replica.PlanCacheTotals();
  r->plan_hit_rate = plan_hits + plan_misses > 0
                         ? static_cast<double>(plan_hits) /
                               static_cast<double>(plan_hits + plan_misses)
                         : 0;
  auto entry = replica.catalog().Find(kDocName);
  r->memory_mb = entry->stored->MemoryUsage() / (1024.0 * 1024.0);
  r->resident_mapped_mb =
      entry->stored->resident_mapped_bytes() / (1024.0 * 1024.0);
  // vpbn.open_ms: the two views opened over the document vpbnd serves.
  std::vector<double> opens;
  for (int rep = 0; rep < 3; ++rep) {
    for (const auto& [name, spec] : ViewSpecs()) {
      auto t = Clock::now();
      auto vdoc = vpbn::virt::VirtualDocument::OpenShared(entry->stored, spec);
      if (!vdoc.ok()) return false;
      opens.push_back(MsSince(t));
    }
  }
  r->open_ms = Median(opens);
  return true;
}

/// Self time of every span: its duration minus its direct children's.
std::map<std::string, std::vector<double>> SelfTimesMs(
    const std::vector<SpanLog>& logs) {
  std::map<std::string, std::vector<double>> out;
  for (const SpanLog& log : logs) {
    const std::vector<Span>& spans = log.spans();
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const int64_t self = spans[i].end_ns - spans[i].start_ns - child_ns[i];
      out[spans[i].name].push_back(static_cast<double>(self) / 1e6);
    }
  }
  return out;
}

void WriteSpans(const std::string& path, const std::vector<SpanLog>& logs) {
  std::ofstream out(path, std::ios::trunc);
  for (size_t c = 0; c < logs.size(); ++c) {
    for (const Span& s : logs[c].spans()) {
      out << "{\"thread\":" << c << ",\"request\":" << s.request
          << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
          << "}\n";
    }
  }
}

/// The per-layer metrics, from the TCP run, the two replays and the
/// in-process timings of the ingest calls.
std::vector<Metric> LayerMetrics(const Plan& plan, const Corpus& corpus,
                                 const TimedRun& tcp,
                                 const ReplayResult& off,
                                 const ReplayResult& on) {
  // Every round counts here: the three runs are compared with each other.
  const std::vector<size_t> all = AllRounds(tcp);
  std::vector<double> tcp_ms, off_ms, on_ms, ignored;
  SplitLatencies(plan, tcp, all, &tcp_ms, &ignored);
  SplitLatencies(plan, off.run, all, &off_ms, &ignored);
  SplitLatencies(plan, on.run, all, &on_ms, &ignored);

  double bytes = 0, queries = 0;
  tcp.ForEach(plan, all, [&](const Request& req, const Outcome& o) {
    if (req.reload()) return;
    bytes += static_cast<double>(o.bytes);
    queries += 1;
  });

  auto self = SelfTimesMs(on.logs);
  auto med = [&](const char* name) { return Median(self[name]); };

  // ExecStats of every executed (result-cache miss) request.
  double executed = 0, results = 0, examined = 0, lookups = 0, postings = 0,
         fallbacks = 0, zone_skips = 0, comparisons = 0, compared_bytes = 0,
         block_skips = 0, join_pairs = 0, vjoin_pairs = 0, batches = 0,
         rows = 0;
  std::vector<double> qerror;
  for (const auto& client : on.samples) {
    for (const ExecSample& s : client) {
      if (!s.executed) continue;
      const vpbn::query::ExecStats& st = s.stats;
      executed += 1;
      rows += static_cast<double>(st.result_nodes);
      results += static_cast<double>(std::max<uint64_t>(st.result_nodes, 1));
      examined += static_cast<double>(st.nodes_scanned);
      lookups += static_cast<double>(st.value_index_lookups);
      postings += static_cast<double>(st.value_index_postings);
      fallbacks += static_cast<double>(st.value_scan_fallbacks);
      zone_skips += static_cast<double>(st.zone_map_skips);
      comparisons += static_cast<double>(st.pbn_comparisons);
      compared_bytes += static_cast<double>(st.bytes_compared);
      block_skips += static_cast<double>(st.block_skips);
      join_pairs += static_cast<double>(st.join_pairs);
      vjoin_pairs += static_cast<double>(st.vjoin_pairs);
      batches += static_cast<double>(st.decoded_batches);
      const double est = static_cast<double>(st.est_rows) + 1;
      const double act = static_cast<double>(st.result_nodes) + 1;
      qerror.push_back(std::max(est / act, act / est));
    }
  }
  auto per = [](double x, double base) { return base > 0 ? x / base : 0; };

  // Ingest-side calls, each the median of three.
  const double parse_ms = MedianMs(3, [&] {
    auto doc = vpbn::xml::Parse(corpus.xml_text);
    (void)doc;
  });
  const double build_ms = MedianMs(3, [&] {
    auto sd = vpbn::storage::StoredDocument::Build(*corpus.source);
    (void)sd;
  });
  const double load_ms = MedianMs(3, [&] {
    auto sd = vpbn::storage::Snapshot::LoadFile(corpus.snapshot_path);
    (void)sd;
  });

  return {
      {"server.wire_ms", "ms", Median(tcp_ms) - Median(off_ms)},
      {"server.parse_us", "us", med("server.parse") * 1000},
      {"server.catalog.find_us", "us", med("server.catalog.find") * 1000},
      {"server.cache.get_us", "us", med("server.cache.get") * 1000},
      {"server.cache.hit_rate", "fraction", on.hit_rate},
      {"server.render_ms", "ms", med("server.render")},
      {"server.response_kb", "KB", per(bytes, queries) / 1024.0},
      {"server.catalog.reload_ms", "ms", med("server.catalog.reload")},
      {"query.prepare_us", "us", med("query.prepare") * 1000},
      {"query.plan_cache.hit_rate", "fraction", on.plan_hit_rate},
      {"query.execute_ms", "ms", med("query.execute")},
      {"query.execute_p99_ms", "ms", Percentile(self["query.execute"], 0.99)},
      {"query.values_ms", "ms", med("query.values")},
      {"query.result_rows", "count", per(rows, executed)},
      {"query.rows_examined_per_result", "count/result",
       per(examined, results)},
      {"query.est_qerror", "ratio", Median(qerror)},
      {"index.lookups_per_request", "count/request", per(lookups, executed)},
      {"index.postings_per_result", "count/result", per(postings, results)},
      {"index.scan_fallbacks", "count/request", per(fallbacks, executed)},
      {"index.zone_map_skips", "count/request", per(zone_skips, executed)},
      {"pbn.comparisons_per_result", "count/result",
       per(comparisons, results)},
      {"pbn.bytes_compared_per_result", "B/result",
       per(compared_bytes, results)},
      {"pbn.block_skips", "count/request", per(block_skips, executed)},
      {"pbn.join_pairs_per_result", "count/result", per(join_pairs, results)},
      {"vpbn.open_ms", "ms", on.open_ms},
      {"vpbn.vjoin_pairs_per_result", "count/result",
       per(vjoin_pairs, results)},
      {"vpbn.decoded_batches", "count/request", per(batches, executed)},
      {"xml.parse_ms", "ms", parse_ms},
      {"storage.build_ms", "ms", build_ms},
      {"storage.snapshot_load_ms", "ms", load_ms},
      {"storage.snapshot_write_ms", "ms",
       Median(corpus.snapshot_write_s) * 1000},
      {"storage.memory_mb", "MB", on.memory_mb},
      {"storage.resident_mapped_mb", "MB", on.resident_mapped_mb},
      {"trace.overhead_ms", "ms", Median(on_ms) - Median(off_ms)},
  };
}

int Run(const Args& args) {
  Plan plan;
  if (!MakePlan(args.workload, args.seed, args.seconds, &plan)) {
    std::fprintf(stderr, "vpbnd_load: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  std::vector<std::string> lines;
  for (const Query& q : plan.queries) lines.push_back(q.Line());

  Corpus corpus;
  if (!MakeCorpus(plan, args.workdir, &corpus)) {
    std::fprintf(stderr, "vpbnd_load: cannot write the corpus files\n");
    return 2;
  }
  std::vector<Answer> answers;
  std::string error;
  const int threads = std::clamp(
      static_cast<int>(std::thread::hardware_concurrency()), 1, 4);
  auto oracle_start = Clock::now();
  if (!BuildOracle(plan, *corpus.source, corpus.stored, threads, &answers,
                   &error)) {
    std::fprintf(stderr, "vpbnd_load: oracle: %s\n", error.c_str());
    return 2;
  }
  std::fprintf(stderr, "vpbnd_load: oracle for %zu queries in %.0f ms\n",
               plan.queries.size(), MsSince(oracle_start));
  Checker checker(plan, answers);
  Tally tally;

  // setup_s: cold starts, each from fork to the first correct answer. The
  // last server stays up for the run.
  const int cold_starts = args.trace ? 1 : plan.cold_starts;
  const std::string port_file = args.workdir + "/vpbnd.port";
  const std::string log_file = args.workdir + "/vpbnd.log";
  std::vector<double> setup_s;
  std::unique_ptr<ServerProcess> server;
  int port = 0;
  for (int i = 0; i < cold_starts; ++i) {
    server.reset();
    server = std::make_unique<ServerProcess>();
    auto t = Clock::now();
    if (!server->Start(args.vpbnd, ServerArgs(plan, corpus), port_file,
                       log_file) ||
        (port = server->WaitForPort(120)) == 0) {
      std::fprintf(stderr, "vpbnd_load: vpbnd did not start (see %s)\n",
                   log_file.c_str());
      return 2;
    }
    Connection probe;
    std::string reply;
    int64_t epoch = 1;
    if (!probe.Connect(port)) return 2;
    const bool ok = probe.RoundTrip(LineOf(lines, plan.probe), &reply) &&
                    checker.Check(plan.probe, ParseReply(reply), &epoch);
    tally.Add(ok);
    setup_s.push_back(MsSince(t) / 1000.0);
  }

  std::vector<std::unique_ptr<Connection>> conns;
  for (int c = 0; c < plan.clients; ++c) {
    conns.push_back(std::make_unique<Connection>());
    if (!conns.back()->Connect(port)) return 2;
  }
  SendFn tcp_send = [&](int c, std::string_view line, std::string* reply) {
    return conns[static_cast<size_t>(c)]->RoundTrip(line, reply);
  };

  int64_t epoch = 1;
  for (const Outcome& o : RunSequential(checker, lines, plan.warmup,
                                        tcp_send, &epoch)) {
    tally.Add(o.ok);
  }
  TimedRun timed;
  RunTimed(checker, lines, tcp_send, server->pid(), args.corrupt_one, &epoch,
           &timed);
  const std::vector<size_t> all_rounds = AllRounds(timed);
  bool corrupted = false;
  timed.ForEach(plan, all_rounds, [&](const Request&, const Outcome& o) {
    tally.Add(o.ok);
    corrupted |= o.corrupted;
  });
  if (args.corrupt_one && !corrupted) {
    std::fprintf(stderr, "vpbnd_load: --corrupt-one found no reply to "
                 "corrupt\n");
    return 2;
  }
  std::vector<Request> tail(static_cast<size_t>(plan.tail_reloads), Request{});
  std::vector<Outcome> tail_out =
      RunSequential(checker, lines, tail, tcp_send, &epoch);
  for (const Outcome& o : tail_out) tally.Add(o.ok);
  conns.clear();
  server.reset();

  // qps, lat_p50_ms and lat_p99_ms are each the median over the rounds of
  // that round's figure, so a slow stretch of the host in a minority of the
  // rounds does not move them. The record also gives them pooled over the
  // whole timed phase, where such stretches (or program stalls) do show.
  double timed_s = 0;
  for (double s : timed.round_s) timed_s += s;
  std::vector<double> query_ms, reload_ms;
  SplitLatencies(plan, timed, all_rounds, &query_ms, &reload_ms);
  for (const Outcome& o : tail_out) reload_ms.push_back(o.latency_ms);
  std::vector<double> round_qps, round_p50, round_p99;
  for (size_t r : all_rounds) {
    std::vector<double> q, ignored;
    SplitLatencies(plan, timed, {r}, &q, &ignored);
    round_qps.push_back(static_cast<double>(q.size()) / timed.round_s[r]);
    round_p50.push_back(Percentile(q, 0.50));
    round_p99.push_back(Percentile(q, 0.99));
  }
  const size_t round_queries = query_ms.size() / all_rounds.size();
  const uint64_t ok_requests = tally.attempted - tally.failed;

  std::vector<Metric> metrics;
  uint64_t mismatches = 0;
  if (!args.trace) {
    metrics = {
        {"setup_s", "s", Median(setup_s)},
        {"qps", "1/s", Median(round_qps)},
        {"lat_p50_ms", "ms", Median(round_p50)},
        {"lat_p99_ms", "ms", Median(round_p99)},
        {"ok_frac", "fraction",
         static_cast<double>(ok_requests) /
             static_cast<double>(std::max<uint64_t>(tally.attempted, 1))},
        {"resident_mb", "MB", Median(timed.round_rss_mb)},
        {"reload_ms", "ms", Median(reload_ms)},
        {"snapshot_write_s", "s", Median(corpus.snapshot_write_s)},
        {"snapshot_bytes_per_xml_byte", "B/B",
         static_cast<double>(corpus.snapshot_bytes) /
             static_cast<double>(corpus.xml_text.size())},
    };
  } else {
    ReplayResult off, on;
    if (!Replay(checker, lines, corpus, false, timed, &tally, &off) ||
        !Replay(checker, lines, corpus, true, timed, &tally, &on)) {
      return 2;
    }
    mismatches = off.mismatches + on.mismatches;
    tally.failed += mismatches;
    metrics = LayerMetrics(plan, corpus, timed, off, on);
    const std::string spans_path = args.workdir + "/spans-" + plan.workload +
                                   "-" + std::to_string(plan.seed) + ".jsonl";
    WriteSpans(spans_path, on.logs);
    std::fprintf(stderr, "vpbnd_load: spans written to %s\n",
                 spans_path.c_str());
  }

  // The run record, on the line before the result. Latencies are also
  // summarized by cost class: template, split into result-cache hits and
  // misses.
  std::map<std::string, std::vector<double>> per_class;
  timed.ForEach(plan, all_rounds, [&](const Request& r, const Outcome& o) {
    std::string name = "RELOAD";
    if (!r.reload()) {
      name = Templates()[plan.queries[r.query].tmpl].name;
      name += o.reply.cached ? "/hit" : "/miss";
    }
    per_class[name].push_back(o.latency_ms);
  });
  std::string record = "{\"record\": {";
  record += "\"workload\": \"" + plan.workload + "\"";
  record += ", \"seed\": " + std::to_string(plan.seed);
  record += ", \"seconds\": " + std::to_string(args.seconds);
  record += ", \"trace\": " + std::to_string(args.trace ? 1 : 0);
  record += ", \"nproc\": " +
            std::to_string(std::thread::hardware_concurrency());
  record += ", \"cpu_model\": \"" + vpbn::JsonEscape(CpuModel()) + "\"";
  record += std::string(", \"batch_kernel_isa\": \"") +
            vpbn::num::BatchKernelIsa() + "\"";
  record += ", \"build_type\": \"" VPBN_LOADBENCH_BUILD_TYPE "\"";
  const char* commit = std::getenv("VPBN_GIT_COMMIT");
  record += ", \"git_commit\": \"" +
            vpbn::JsonEscape(commit ? commit : "unknown") + "\"";
  record += ", \"corpus_nodes\": " + std::to_string(corpus.source->num_nodes());
  record += ", \"corpus_xml_bytes\": " + std::to_string(corpus.xml_text.size());
  record += ", \"snapshot_bytes\": " + std::to_string(corpus.snapshot_bytes);
  record += ", \"clients\": " + std::to_string(plan.clients);
  record += ", \"distinct_queries\": " + std::to_string(plan.queries.size());
  record += ", \"warmup_requests\": " + std::to_string(plan.warmup.size());
  record += ", \"setup_s\": " + JsonList(setup_s);
  record += ", \"round_s\": " + JsonList(timed.round_s);
  record += ", \"round_qps\": " + JsonList(round_qps);
  record += ", \"round_p99_ms\": " + JsonList(round_p99);
  record += ", \"round_rss_mb\": " + JsonList(timed.round_rss_mb);
  record += ", \"pooled\": {\"qps\": " +
            JsonNumber(static_cast<double>(query_ms.size()) / timed_s) +
            ", \"lat_p50_ms\": " + JsonNumber(Percentile(query_ms, 0.50)) +
            ", \"lat_p99_ms\": " + JsonNumber(Percentile(query_ms, 0.99)) +
            ", \"samples\": " + std::to_string(query_ms.size()) + "}";
  // Per round: the queries behind each round's p50 and p99, and how many
  // of them lie beyond the p99.
  record += ", \"samples\": {\"rounds\": " +
            std::to_string(all_rounds.size()) +
            ", \"queries_per_round\": " + std::to_string(round_queries) +
            ", \"beyond_p99_per_round\": " +
            std::to_string(round_queries - static_cast<size_t>(std::ceil(
                                               0.99 * round_queries))) +
            ", \"reload_ms\": " + std::to_string(reload_ms.size()) +
            ", \"setup_s\": " + std::to_string(setup_s.size()) +
            ", \"snapshot_write_s\": " +
            std::to_string(corpus.snapshot_write_s.size()) + "}";
  record += ", \"classes\": {";
  bool first = true;
  for (const auto& [name, ms] : per_class) {
    record += (first ? "\"" : ", \"") + name + "\": {\"n\": " +
              std::to_string(ms.size()) + ", \"p50_ms\": " +
              JsonNumber(Percentile(ms, 0.5)) + ", \"p99_ms\": " +
              JsonNumber(Percentile(ms, 0.99)) + "}";
    first = false;
  }
  record += "}";
  if (args.trace) {
    record += ", \"replay_mismatches\": " + std::to_string(mismatches);
  }
  record += "}}";
  std::printf("%s\n", record.c_str());
  {
    std::ofstream out(args.workdir + "/record-" + plan.workload + "-" +
                          std::to_string(plan.seed) + ".json",
                      std::ios::trunc);
    out << record << "\n";
  }

  const bool correct = tally.failed == 0;
  std::printf("%s\n", ResultJson(correct, tally, metrics).c_str());
  std::fflush(stdout);
  if (!correct) {
    std::fprintf(stderr, "vpbnd_load: %llu of %llu requests failed the "
                 "oracle\n",
                 static_cast<unsigned long long>(tally.failed),
                 static_cast<unsigned long long>(tally.attempted));
  }
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace loadbench

int main(int argc, char** argv) {
  loadbench::Args args;
  if (!loadbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: vpbnd_load --workload lookup|views --seed N "
                 "--seconds S --trace 0|1 --vpbnd <path> --workdir <dir> "
                 "[--corrupt-one]\n");
    return 2;
  }
  return loadbench::Run(args);
}
