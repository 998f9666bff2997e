// Fixed-size thread pool: the one parallel runtime. Stages drive it through
// ForEachSlice (util/parallel.h).

#ifndef CROSSMODAL_UTIL_THREAD_POOL_H_
#define CROSSMODAL_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace crossmodal {

/// A fixed pool of worker threads executing submitted closures FIFO.
///
/// Thread-safe. Destruction drains the queue (all submitted work completes)
/// before joining workers.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (minimum 1).
  explicit ThreadPool(size_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool();

  /// Enqueues a task. May be called from worker threads. Tasks must not
  /// throw: an exception escaping a bare Submit task terminates the process
  /// (it would otherwise unwind a worker thread). Use ParallelFor for work
  /// that may throw.
  void Submit(std::function<void()> task) CM_LOCKS_EXCLUDED(mu_);

  /// Blocks until every task submitted so far (including tasks they spawn)
  /// has completed. Must not be called from a worker thread (it would wait
  /// for its own task to finish).
  void Wait() CM_LOCKS_EXCLUDED(mu_);

  size_t num_threads() const { return threads_.size(); }

  /// Convenience: runs fn(i) for i in [0, n) across the pool and waits.
  /// Work is chunked to limit scheduling overhead.
  ///
  /// Nesting: called from any pool's worker thread (e.g. from inside
  /// another ParallelFor body), the loop runs inline on the calling worker
  /// — submitting and waiting there could deadlock on its own task.
  ///
  /// Exceptions: if any fn(i) throws, every remaining index still runs
  /// (other chunks are not cancelled), and the exception thrown from the
  /// lowest-indexed chunk is rethrown here after all work has drained, so
  /// the surfaced error does not depend on thread timing.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn)
      CM_LOCKS_EXCLUDED(mu_);

 private:
  void WorkerLoop() CM_LOCKS_EXCLUDED(mu_);

  std::vector<std::thread> threads_;
  Mutex mu_{"thread_pool"};
  std::deque<std::function<void()>> queue_ CM_GUARDED_BY(mu_);
  // condition_variable_any waits directly on MutexLock (see util/mutex.h),
  // keeping the annotated capability in view of the analysis.
  std::condition_variable_any work_available_;
  std::condition_variable_any idle_;
  size_t in_flight_ CM_GUARDED_BY(mu_) = 0;  // queued + running tasks
  bool shutting_down_ CM_GUARDED_BY(mu_) = false;
};

}  // namespace crossmodal

#endif  // CROSSMODAL_UTIL_THREAD_POOL_H_
