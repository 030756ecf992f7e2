/// \file bench_util.h
/// \brief Shared helpers for the experiment binaries: wall-clock timing with
/// repetitions, a fixed-width table printer, so every experiment prints
/// the rows/series its table or figure in EXPERIMENTS.md reports, and the
/// run-record header every BENCH_*.json opens with.

#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "pbn/packed.h"

// Stamped by bench/CMakeLists.txt; the fallbacks cover out-of-tree builds.
#ifndef VPBN_BUILD_TYPE
#define VPBN_BUILD_TYPE "unknown"
#endif
#ifndef VPBN_GIT_COMMIT
#define VPBN_GIT_COMMIT "unknown"
#endif

namespace vpbn::bench {

/// \brief The `"run"` object every BENCH_*.json carries, so a recorded
/// number names the machine and the code that produced it: CPU count and
/// model (/proc/cpuinfo), the batched-kernel ISA the dispatcher picked, the
/// build type, the commit the build tree was configured at ("unknown"
/// outside a git checkout), and the UTC time of the run. Emit it as
/// `"run": <this>,` right after the record's opening brace.
inline std::string RunRecordJson() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    size_t begin = line.find_first_not_of(' ', colon + 1);
    if (begin != std::string::npos) cpu = line.substr(begin);
    break;
  }
  // Keep the JSON string literal valid whatever the kernel reports.
  std::replace_if(
      cpu.begin(), cpu.end(),
      [](char c) { return c == '"' || c == '\\' || c < 0x20; }, ' ');
  char date[32];
  const std::time_t now = std::time(nullptr);
  std::tm utc{};
  gmtime_r(&now, &utc);
  std::strftime(date, sizeof(date), "%Y-%m-%dT%H:%M:%SZ", &utc);
  return "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu\": \"" + cpu + "\", \"isa\": \"" + num::BatchKernelIsa() +
         "\", \"build_type\": \"" VPBN_BUILD_TYPE
         "\", \"commit\": \"" VPBN_GIT_COMMIT "\", \"date\": \"" +
         date + "\"}";
}

/// \brief Median wall-clock milliseconds of \p fn over \p reps runs.
inline double MedianMs(int reps, const std::function<void()>& fn) {
  std::vector<double> times;
  times.reserve(reps);
  for (int i = 0; i < reps; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    fn();
    auto t1 = std::chrono::steady_clock::now();
    times.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

/// \brief Fixed-width table printer.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void Print() const {
    std::vector<size_t> widths(headers_.size());
    for (size_t i = 0; i < headers_.size(); ++i) {
      widths[i] = headers_[i].size();
    }
    for (const auto& row : rows_) {
      for (size_t i = 0; i < row.size() && i < widths.size(); ++i) {
        widths[i] = std::max(widths[i], row[i].size());
      }
    }
    auto print_row = [&](const std::vector<std::string>& row) {
      for (size_t i = 0; i < widths.size(); ++i) {
        std::printf("%-*s  ", static_cast<int>(widths[i]),
                    i < row.size() ? row[i].c_str() : "");
      }
      std::printf("\n");
    };
    print_row(headers_);
    size_t total = 0;
    for (size_t w : widths) total += w + 2;
    std::printf("%s\n", std::string(total, '-').c_str());
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// \brief Format a double with \p digits decimals.
inline std::string Fmt(double v, int digits = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

}  // namespace vpbn::bench
