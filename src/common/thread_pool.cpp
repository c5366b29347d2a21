#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

namespace sheriff::common {

namespace {
/// The pool whose worker_loop owns the calling thread (nullptr on any
/// thread that is not a pool worker). One marker suffices even with many
/// pools alive: a thread belongs to at most one pool.
thread_local const ThreadPool* t_worker_pool = nullptr;
}  // namespace

bool ThreadPool::on_worker_thread() const noexcept { return t_worker_pool == this; }

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::scoped_lock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::enqueue(std::function<void()> task) {
  {
    std::scoped_lock lock(mutex_);
    queue_.push(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  t_worker_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

void parallel_for(ThreadPool* pool, std::size_t n, const std::function<void(std::size_t)>& fn) {
  // The one dispatch rule (see the header). The reentrancy clause matters
  // for correctness, not just cost: a nested parallel_for on the pool the
  // caller already works for would enqueue chunks that can only run once
  // the caller (and every sibling blocked the same way) returns — a
  // deadlock at full occupancy.
  if (pool == nullptr || pool->size() < 2 || n < 2 || pool->on_worker_thread()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // At most 4 chunks per worker bound the queueing overhead; each chunk
  // claims indices until none are left, so uneven bodies still balance.
  const std::size_t chunks = std::min(n, pool->size() * 4);
  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::size_t unfinished = chunks;
  std::mutex mutex;  // guards first_error and unfinished
  std::condition_variable done;
  const auto chunk = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      try {
        fn(i);
      } catch (...) {
        std::scoped_lock lock(mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
    // Notify under the lock: once the caller sees zero it returns and the
    // stack state above is gone, so no chunk may touch it after unlocking.
    std::scoped_lock lock(mutex);
    if (--unfinished == 0) done.notify_one();
  };
  // The queued task captures one reference, so it fits std::function's
  // small buffer and enqueues without allocating.
  for (std::size_t c = 0; c < chunks; ++c) pool->enqueue([&chunk] { chunk(); });
  std::unique_lock lock(mutex);
  done.wait(lock, [&] { return unfinished == 0; });
  if (first_error) std::rethrow_exception(first_error);
}

ThreadPool& default_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace sheriff::common
