// A small fixed-size worker pool for fan-out/join parallelism.
//
// The containment engine uses it to check independent rewriting disjuncts
// concurrently (see src/core/containment.cc): tasks are submitted from one
// producer thread, workers drain a FIFO queue, and Wait() joins the batch.
// There is deliberately no future/packaged-task machinery — results are
// aggregated by the tasks themselves under caller-owned synchronization,
// which keeps the pool dependency-free and the hot path allocation-light.
//
// Shutdown semantics are deterministic and two-flavored:
//   * ~ThreadPool() DRAINS: every task submitted before destruction runs
//     to completion, then workers join.
//   * Stop() ABANDONS: tasks not yet started are discarded and will never
//     run; tasks already running finish normally. After Stop() begins, no
//     new task starts and Submit() becomes a no-op. Stop() is terminal.
// Cooperative cancellation (base/governor.h) composes with both: a task
// that observes its CancellationToken and returns early counts as
// finished, so Wait() returns as soon as every in-flight task has exited
// — early or not — and abandoned tasks are not waited for.

#ifndef OMQC_BASE_THREAD_POOL_H_
#define OMQC_BASE_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace omqc {

/// A fixed pool of worker threads executing submitted tasks FIFO.
/// Thread-safe: Submit/Wait/Stop may be called from any thread (typically
/// one producer). The destructor drains the queue and joins all workers;
/// Stop() abandons queued tasks instead (see file comment).
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Completes all pending tasks (unless Stop() ran first), then joins
  /// the workers.
  ~ThreadPool();

  /// Enqueues a task. A task may Submit to its own pool (its own slot
  /// keeps Wait() from returning before the new task is counted) but
  /// must not Wait on it. No-op after Stop().
  void Submit(std::function<void()> task);

  /// Blocks until every task submitted so far has finished or been
  /// abandoned by Stop(). A task that exits early via a cooperative
  /// cancellation token counts as finished.
  void Wait();

  /// Abandons all queued-but-unstarted tasks and refuses new ones.
  /// Running tasks finish normally; workers then exit. Terminal: the pool
  /// cannot be restarted. Returns the number of abandoned tasks.
  size_t Stop();

  size_t num_threads() const { return workers_.size(); }

  /// std::thread::hardware_concurrency() with a floor of 1 (the standard
  /// allows it to return 0 when unknown).
  static size_t DefaultConcurrency();

  /// Test-only: a global hook invoked as hook(ctx, worker_index) right
  /// before each task runs, used by the fault-injection harness to stall
  /// a specific worker. Install before submitting work and clear (pass
  /// nullptr, nullptr) after Wait(); installation is not synchronized
  /// with in-flight tasks.
  using TaskHook = void (*)(void* ctx, size_t worker_index);
  static void SetTaskHookForTesting(TaskHook hook, void* ctx);

 private:
  void WorkerLoop(size_t worker_index);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_ready_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  size_t in_flight_ = 0;  // queued + currently running tasks
  bool shutdown_ = false;  // destructor: drain then exit
  bool stopped_ = false;   // Stop(): abandon queue, exit now
};

}  // namespace omqc

#endif  // OMQC_BASE_THREAD_POOL_H_
