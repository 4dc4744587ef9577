// A small fixed-size worker pool: the server's request executor, and the
// only concurrency in the system (src/server/server.cc). Every request
// runs serially on one worker; the pool parallelizes across requests.
// There is deliberately no future/packaged-task machinery — results are
// delivered by the tasks themselves, which keeps the pool dependency-free
// and the hot path allocation-light.
//
// ~ThreadPool() DRAINS: every task submitted before destruction runs to
// completion, then workers join. Cooperative cancellation
// (base/governor.h) composes with it: a task that observes its
// CancellationToken and returns early counts as finished, so Wait()
// returns as soon as every in-flight task has exited, early or not.

#ifndef OMQC_BASE_THREAD_POOL_H_
#define OMQC_BASE_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace omqc {

/// A fixed pool of worker threads executing submitted tasks FIFO.
/// Thread-safe: Submit/Wait may be called from any thread. The destructor
/// drains the queue and joins all workers.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Completes all pending tasks, then joins the workers.
  ~ThreadPool();

  /// Enqueues a task. A task may Submit to its own pool (its own slot
  /// keeps Wait() from returning before the new task is counted) but
  /// must not Wait on it.
  void Submit(std::function<void()> task);

  /// Blocks until every task submitted so far has finished. A task that
  /// exits early via a cooperative cancellation token counts as finished.
  void Wait();

  size_t num_threads() const { return workers_.size(); }

  /// std::thread::hardware_concurrency() with a floor of 1 (the standard
  /// allows it to return 0 when unknown).
  static size_t DefaultConcurrency();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_ready_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  size_t in_flight_ = 0;   // queued + currently running tasks
  bool shutdown_ = false;  // destructor: drain then exit
};

}  // namespace omqc

#endif  // OMQC_BASE_THREAD_POOL_H_
