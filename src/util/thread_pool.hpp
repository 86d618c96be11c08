// Minimal blocking thread pool with a parallel_for convenience wrapper.
//
// The benchmark machine may have any core count (the CI container has a
// single core); all kernels take their parallelism from here so they
// degrade gracefully to serial execution. The pool is created once and
// reused — kernels never spawn threads on the hot path.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "util/check.hpp"

namespace nmspmm {

class ThreadPool {
 public:
  /// @param threads number of workers; 0 means hardware_concurrency().
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned size() const noexcept {
    return static_cast<unsigned>(workers_.size()) + 1;  // +1: caller thread
  }

  /// Run fn(chunk_index) for chunk_index in [0, chunks); blocks until all
  /// chunks finish. The calling thread participates, so a pool of size 1
  /// (zero workers) executes everything inline with no synchronization.
  /// Completion is tracked per call: concurrent run_chunks invocations on
  /// one pool wait only for their own chunks. If chunks throw, one
  /// exception (the first worker failure, else the caller chunk's own) is
  /// rethrown on the calling thread after the call's remaining chunks
  /// drain — nothing ever escapes a worker thread.
  void run_chunks(std::int64_t chunks,
                  const std::function<void(std::int64_t)>& fn);

  /// Global pool shared by the library (sized from NMSPMM_THREADS env var
  /// or hardware concurrency).
  static ThreadPool& global();

  /// Resolve a thread-count request to a pool handle: 1 -> nullptr
  /// (strictly serial), 0 -> a non-owning alias of the global pool
  /// (never spawns new threads), any explicit count -> a dedicated
  /// owned pool of that size (the global pool is left untouched).
  static std::shared_ptr<ThreadPool> shared(unsigned num_threads);

 private:
  /// Per-run_chunks completion state, living on the caller's stack for
  /// the duration of the call (the caller cannot return before
  /// remaining hits zero, so worker access is always valid).
  struct CallSync {
    std::int64_t remaining = 0;
    std::exception_ptr error;
  };
  struct Task {
    const std::function<void(std::int64_t)>* fn;
    CallSync* sync;
    std::int64_t index;
  };

  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  std::queue<Task> queue_;
  bool stop_ = false;
};

/// Split [begin, end) into roughly even contiguous ranges and run
/// body(lo, hi) for each on @p pool. A null pool (or a pool of size 1)
/// runs body(begin, end) inline on the calling thread — the serial
/// fallback every kernel relies on for bit-exact single-threaded runs.
void parallel_for(ThreadPool* pool, std::int64_t begin, std::int64_t end,
                  const std::function<void(std::int64_t, std::int64_t)>& body,
                  std::int64_t min_grain = 1);

/// Convenience overload on the process-global pool.
void parallel_for(std::int64_t begin, std::int64_t end,
                  const std::function<void(std::int64_t, std::int64_t)>& body,
                  std::int64_t min_grain = 1);

}  // namespace nmspmm
