#include "common/thread_pool.h"

#include <algorithm>
#include <utility>

namespace cdi {

ThreadPool::ThreadPool(std::size_t num_threads) {
  const std::size_t n = std::max<std::size_t>(1, num_threads);
  threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stopping_ = true;
  }
  task_ready_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  task_ready_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_ready_.wait(lock,
                       [this] { return stopping_ || !queue_.empty(); });
      // Drain the queue even when stopping so ~ThreadPool never abandons
      // submitted work (callers block in ParallelFor on its completion).
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

namespace {

/// Workers that can make forward progress simultaneously: a pool wider
/// than the machine only adds context-switch and wakeup overhead to these
/// fan-out helpers (an 8-thread pool on a 1-core CI runner made every
/// parallel sweep ~15% slower than running it inline), so the helpers
/// fan out to at most hardware_concurrency tasks. The pool keeps its full
/// thread count — direct Submit() is untouched, and results never depend
/// on how many workers ran the loop (per-index output slots).
std::size_t UsableWorkers(const ThreadPool& pool) {
  const std::size_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? pool.size() : std::min(pool.size(), hw);
}

}  // namespace

void ParallelFor(ThreadPool* pool, std::size_t n,
                 const std::function<void(std::size_t)>& fn) {
  if (pool == nullptr || pool->size() <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Dynamic scheduling: workers pull the next index from a shared counter.
  // Small loops wake only as many workers as can get a useful share of the
  // indices: CDI's parallel bodies (one cached CI query chain per edge) are
  // mostly sub-microsecond, so a worker must receive tens of indices before
  // its wakeup cost pays for itself.
  constexpr std::size_t kMinPerWorker = 64;
  const std::size_t workers = std::min(
      UsableWorkers(*pool), std::max<std::size_t>(1, n / kMinPerWorker));
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  // `live` is guarded by `mu`: the caller may return (destroying `mu` and
  // `done`) as soon as it sees live == 0, so the last worker must not
  // touch either after the decrement becomes visible.
  std::size_t live = workers;
  std::mutex mu;
  std::condition_variable done;
  for (std::size_t w = 0; w < workers; ++w) {
    pool->Submit([&] {
      for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
           i < n; i = next.fetch_add(1, std::memory_order_relaxed)) {
        fn(i);
      }
      std::lock_guard<std::mutex> lock(mu);
      if (--live == 0) done.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  done.wait(lock, [&] { return live == 0; });
}

void ParallelForRanges(
    ThreadPool* pool, std::size_t n, std::size_t min_grain,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  if (min_grain == 0) min_grain = 1;
  const std::size_t workers =
      pool == nullptr
          ? 1
          : std::min(UsableWorkers(*pool), (n + min_grain - 1) / min_grain);
  if (workers <= 1) {
    fn(0, n);
    return;
  }
  // ~4 chunks per worker balances pull overhead against tail imbalance.
  const std::size_t chunk =
      std::max(min_grain, (n + workers * 4 - 1) / (workers * 4));
  const std::size_t num_chunks = (n + chunk - 1) / chunk;
  std::atomic<std::size_t> next{0};
  std::size_t live = workers;  // guarded by `mu`, as in ParallelFor
  std::mutex mu;
  std::condition_variable done;
  for (std::size_t w = 0; w < workers; ++w) {
    pool->Submit([&] {
      for (std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
           c < num_chunks; c = next.fetch_add(1, std::memory_order_relaxed)) {
        const std::size_t begin = c * chunk;
        fn(begin, std::min(begin + chunk, n));
      }
      std::lock_guard<std::mutex> lock(mu);
      if (--live == 0) done.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  done.wait(lock, [&] { return live == 0; });
}

}  // namespace cdi
