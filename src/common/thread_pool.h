/// \file thread_pool.h
/// \brief A small fixed-size thread pool.
///
/// The pool is deliberately minimal: a shared FIFO of type-erased tasks,
/// N worker threads, blocking shutdown in the destructor. It runs two kinds
/// of work: the build phases (StoredDocument::Build, snapshot load,
/// ValueIndex::Build), which take a caller-owned pool, and the vpbnd
/// connection workers (server/server.h). Query execution never uses it: a
/// query runs sequentially on its caller's thread, and parallelism comes
/// from running many queries at once.
///
/// Tasks must not throw — higher-level fork/join helpers (parallel.h)
/// capture exceptions per task and rethrow them on the joining thread.

#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace vpbn::common {

class ThreadPool {
 public:
  /// Starts \p num_threads workers. 0 means std::thread::hardware_concurrency
  /// (at least 1). A 1-thread pool is valid and still runs tasks on its
  /// single worker.
  explicit ThreadPool(int num_threads);

  /// Drains nothing: pending tasks are executed, then workers join. Blocks
  /// until every submitted task has run.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues \p task. Must not be called after/while the destructor runs.
  void Submit(std::function<void()> task);

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// True when the calling thread is a worker of *any* ThreadPool. Fork/join
  /// helpers use this to run nested parallel regions inline instead of
  /// re-submitting (which could deadlock a fully busy pool).
  static bool InWorker();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace vpbn::common
