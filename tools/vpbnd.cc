/// \file vpbnd.cc
/// \brief The vpbnd daemon: serve a catalog of documents (and virtual
/// views of them) over the newline-delimited query protocol.
///
///   vpbnd --doc books=data/books.xml --doc site=site.vpsn \
///         --view books/by_author='...spec...' \
///         --port 7070 [--workers 8] [--max-inflight 64] \
///         [--rate 1000 --burst 200] [--result-cache 256]
///
/// `--port 0` (the default) binds an ephemeral port; `--port-file <path>`
/// writes the bound port there once listening, so scripts can wait on the
/// file instead of parsing stdout. The process runs until a client sends
/// SHUTDOWN or it receives SIGINT/SIGTERM. See docs/server.md for the
/// protocol.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "server/catalog.h"
#include "server/server.h"

namespace {

using namespace vpbn;

int Usage() {
  std::fprintf(
      stderr,
      "usage: vpbnd --doc <name>=<file.xml|file.vpsn> [--doc ...]\n"
      "             [--view <doc>/<name>=<vdataguide-spec>] [--view ...]\n"
      "             [--port N] [--port-file <path>] [--host A.B.C.D]\n"
      "             [--workers N] [--max-inflight N]\n"
      "             [--rate QPS] [--burst N] [--result-cache N]\n"
      "             [--no-mmap]\n");
  return 2;
}

volatile std::sig_atomic_t g_signaled = 0;
void OnSignal(int) { g_signaled = 1; }

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::pair<std::string, std::string>> docs;   // name -> path
  std::vector<std::pair<std::string, std::string>> views;  // doc/name -> spec
  server::ServerOptions options;
  bool use_mmap = true;
  std::string port_file;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--doc" && (v = next())) {
      const char* eq = std::strchr(v, '=');
      if (eq == nullptr || eq == v || eq[1] == '\0') return Usage();
      docs.emplace_back(std::string(v, eq), std::string(eq + 1));
    } else if (arg == "--view" && (v = next())) {
      const char* eq = std::strchr(v, '=');
      if (eq == nullptr || eq == v || eq[1] == '\0') return Usage();
      views.emplace_back(std::string(v, eq), std::string(eq + 1));
    } else if (arg == "--port" && (v = next())) {
      options.port = std::atoi(v);
    } else if (arg == "--port-file" && (v = next())) {
      port_file = v;
    } else if (arg == "--host" && (v = next())) {
      options.host = v;
    } else if (arg == "--workers" && (v = next())) {
      options.num_workers = std::atoi(v);
    } else if (arg == "--max-inflight" && (v = next())) {
      options.max_inflight = std::atoi(v);
    } else if (arg == "--rate" && (v = next())) {
      options.rate_limit = std::atof(v);
    } else if (arg == "--burst" && (v = next())) {
      options.burst = std::atof(v);
    } else if (arg == "--result-cache" && (v = next())) {
      options.result_cache_capacity =
          static_cast<size_t>(std::atoll(v));
    } else if (arg == "--mmap") {
      use_mmap = true;
    } else if (arg == "--no-mmap") {
      use_mmap = false;
    } else {
      return Usage();
    }
  }
  if (docs.empty()) return Usage();

  server::Catalog catalog(query::ExecOptions{}, use_mmap);
  for (const auto& [name, path] : docs) {
    if (Status s = catalog.AddDocumentFile(name, path); !s.ok()) {
      std::fprintf(stderr, "vpbnd: loading '%s': %s\n", name.c_str(),
                   s.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "vpbnd: loaded %s from %s\n", name.c_str(),
                 path.c_str());
  }
  for (const auto& [target, spec] : views) {
    size_t slash = target.find('/');
    if (slash == std::string::npos || slash == 0 ||
        slash + 1 == target.size()) {
      std::fprintf(stderr, "vpbnd: bad --view target '%s' (want doc/name)\n",
                   target.c_str());
      return 2;
    }
    std::string doc = target.substr(0, slash);
    std::string view = target.substr(slash + 1);
    if (Status s = catalog.AddView(doc, view, spec); !s.ok()) {
      std::fprintf(stderr, "vpbnd: view '%s': %s\n", target.c_str(),
                   s.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "vpbnd: opened view %s\n", target.c_str());
  }

  server::Server server(&catalog, options);
  if (Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "vpbnd: %s\n", s.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "vpbnd: listening on %s:%d\n", options.host.c_str(),
               server.port());
  if (!port_file.empty()) {
    // Write to a temp name then rename: a watcher that sees the file sees
    // the complete port number.
    std::string tmp = port_file + ".tmp";
    if (std::FILE* f = std::fopen(tmp.c_str(), "w")) {
      std::fprintf(f, "%d\n", server.port());
      std::fclose(f);
      std::rename(tmp.c_str(), port_file.c_str());
    } else {
      std::fprintf(stderr, "vpbnd: cannot write --port-file %s\n",
                   port_file.c_str());
      return 1;
    }
  }

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  while (g_signaled == 0) {
    if (server.WaitForShutdownRequest(std::chrono::milliseconds(200))) break;
  }
  std::fprintf(stderr, "vpbnd: shutting down\n");
  server.Stop();
  return 0;
}
