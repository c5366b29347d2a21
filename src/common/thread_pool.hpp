#pragma once
// Work-queue thread pool plus the parallel_for helper every sweep uses.
//
// The engine's per-VM, per-switch, per-rack and per-shard sweeps, the
// fleet runner and the benches all go through parallel_for, and
// parallel_for alone decides whether a sweep is worth a pool. It runs the
// body inline — on the calling thread, in index order 0..n-1 — when:
//   * the pool is null (a caller below its grain passes nullptr);
//   * the pool has one worker (handing the body to that worker costs tens
//     of microseconds and buys nothing);
//   * n < 2;
//   * the caller is one of the pool's own workers (the reentrancy guard).
// Otherwise the iterations are spread over the pool's workers. Every
// parallel body in this codebase writes only to its own index, so the two
// modes produce identical results; pool size is a throughput knob only.
//
// Reentrancy (DESIGN.md §12): without the guard, two-level parallelism —
// e.g. a fleet worker running an engine whose sweeps target the fleet's
// own pool — deadlocks as soon as every worker blocks on chunks only the
// (fully occupied) pool could drain.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace sheriff::common {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// True iff the calling thread is one of this pool's workers. The
  /// parallel_for reentrancy guard keys off this to run nested sweeps
  /// inline rather than deadlocking on a saturated queue.
  [[nodiscard]] bool on_worker_thread() const noexcept;

 private:
  friend void parallel_for(ThreadPool* pool, std::size_t n,
                           const std::function<void(std::size_t)>& fn);

  void enqueue(std::function<void()> task);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Runs fn(i) for i in [0, n), blocking until all complete: inline under
/// the rule in the header comment, else across the pool's workers.
/// Exceptions propagate: inline, the first throw ends the sweep; pooled,
/// every index still runs and the first exception caught is rethrown.
void parallel_for(ThreadPool* pool, std::size_t n, const std::function<void(std::size_t)>& fn);

/// Process-wide default pool (lazily constructed, sized to the hardware).
ThreadPool& default_pool();

}  // namespace sheriff::common
