#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>

#include "util/aligned_buffer.hpp"

namespace nmspmm {

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  // threads counts the caller thread; spawn one fewer worker.
  for (unsigned i = 1; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    Task task{};
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = queue_.front();
      queue_.pop();
    }
    std::exception_ptr error;
    try {
      (*task.fn)(task.index);
    } catch (...) {
      error = std::current_exception();  // rethrown on the calling thread
    }
    {
      std::lock_guard lock(mutex_);
      if (error && !task.sync->error) task.sync->error = error;
      if (--task.sync->remaining == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::run_chunks(std::int64_t chunks,
                            const std::function<void(std::int64_t)>& fn) {
  if (chunks <= 0) return;
  if (workers_.empty() || chunks == 1) {
    for (std::int64_t i = 0; i < chunks; ++i) fn(i);
    return;
  }
  CallSync sync;
  sync.remaining = chunks - 1;
  {
    std::lock_guard lock(mutex_);
    // Caller keeps chunk 0 for itself; workers get the rest.
    for (std::int64_t i = 1; i < chunks; ++i) {
      queue_.push(Task{&fn, &sync, i});
    }
  }
  cv_.notify_all();
  std::exception_ptr own_error;
  try {
    fn(0);
  } catch (...) {
    own_error = std::current_exception();
  }
  // Wait for this call's own chunks only: concurrent run_chunks callers
  // on a shared pool do not gate on each other's work.
  std::unique_lock lock(mutex_);
  done_cv_.wait(lock, [&sync] { return sync.remaining == 0; });
  if (sync.error) std::rethrow_exception(sync.error);
  if (own_error) std::rethrow_exception(own_error);
}

std::shared_ptr<ThreadPool> ThreadPool::shared(unsigned num_threads) {
  if (num_threads == 1) return nullptr;  // strictly serial
  if (num_threads == 0) {
    // Non-owning alias: the global pool outlives every handle. Explicit
    // counts get a dedicated pool without instantiating the global one
    // (probing global().size() would spawn its workers as a side effect).
    return std::shared_ptr<ThreadPool>(std::shared_ptr<ThreadPool>(),
                                       &global());
  }
  return std::make_shared<ThreadPool>(num_threads);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool([] {
    if (const char* env = std::getenv("NMSPMM_THREADS")) {
      const long v = std::strtol(env, nullptr, 10);
      if (v > 0) return static_cast<unsigned>(v);
    }
    return 0u;
  }());
  return pool;
}

void parallel_for(ThreadPool* pool, std::int64_t begin, std::int64_t end,
                  const std::function<void(std::int64_t, std::int64_t)>& body,
                  std::int64_t min_grain) {
  const std::int64_t total = end - begin;
  if (total <= 0) return;
  const std::int64_t max_chunks =
      std::max<std::int64_t>(1, total / std::max<std::int64_t>(1, min_grain));
  const std::int64_t chunks = pool == nullptr
      ? 1
      : std::min<std::int64_t>(pool->size(), max_chunks);
  if (chunks == 1) {
    body(begin, end);
    return;
  }
  const std::int64_t per = ceil_div(total, chunks);
  std::function<void(std::int64_t)> chunk_fn = [&](std::int64_t c) {
    const std::int64_t lo = begin + c * per;
    const std::int64_t hi = std::min(end, lo + per);
    if (lo < hi) body(lo, hi);
  };
  pool->run_chunks(chunks, chunk_fn);
}

void parallel_for(std::int64_t begin, std::int64_t end,
                  const std::function<void(std::int64_t, std::int64_t)>& body,
                  std::int64_t min_grain) {
  parallel_for(&ThreadPool::global(), begin, end, body, min_grain);
}

}  // namespace nmspmm
