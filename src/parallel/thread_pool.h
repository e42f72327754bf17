#ifndef PREFDB_PARALLEL_THREAD_POOL_H_
#define PREFDB_PARALLEL_THREAD_POOL_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "parallel/parallel_context.h"

namespace prefdb {

/// A consistent snapshot of a pool's lifetime telemetry (all counters taken
/// under one lock). `queue_wait_micros` is the summed submit-to-dequeue
/// latency over all executed tasks — queue pressure in aggregate.
/// `helper_claims` counts the ParallelInvoke functions run by the pool's
/// helper tasks, not by their callers (0 while the pool is saturated).
/// `steals` and `help_drains` always read 0: the one-queue pool neither
/// steals nor runs tasks on a joining thread. They are kept because the
/// benchmark still reports them.
struct ThreadPoolTelemetry {
  uint64_t tasks_executed = 0;
  uint64_t steals = 0;
  uint64_t help_drains = 0;
  uint64_t helper_claims = 0;
  double queue_wait_micros = 0.0;

  std::string ToString() const;
};

/// A fixed-size thread pool over one FIFO queue: tasks start in submission
/// order on whichever worker is free. The destructor drains every queued
/// task before joining the workers. Tasks must not throw across the pool
/// boundary; ParallelInvoke (below) captures its functions' exceptions.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to at least 1).
  explicit ThreadPool(size_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains every queued task, then joins the workers.
  ~ThreadPool();

  size_t num_threads() const { return workers_.size(); }

  /// Enqueues `task` for execution on some worker. Must not be called
  /// after destruction has begun.
  void Submit(std::function<void()> task);

  /// Full lifetime telemetry snapshot (tasks, aggregate queue-wait time).
  ThreadPoolTelemetry telemetry() const;

  /// Counts one function a ParallelInvoke helper task claimed.
  void NoteHelperClaim();

  /// Tasks currently queued (instantaneous; the source for the
  /// pref.pool.queue_depth telemetry gauge).
  size_t queue_depth() const;

  /// The process-wide pool, created on first use and sized to the hardware
  /// concurrency. ParallelInvoke caps its concurrency with
  /// ParallelContext::threads, so a single shared pool serves every
  /// session without oversubscribing the machine.
  static ThreadPool& Shared();

 private:
  /// A queued task plus its submission time, so dequeue can attribute the
  /// time the task spent waiting for a worker.
  struct QueuedTask {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point submitted;
  };

  void WorkerLoop();

  mutable Mutex mu_;
  CondVar cv_;
  std::deque<QueuedTask> queue_ PREFDB_GUARDED_BY(mu_);
  std::vector<std::thread> workers_;  // Const after construction.
  uint64_t tasks_executed_ PREFDB_GUARDED_BY(mu_) = 0;
  uint64_t helper_claims_ PREFDB_GUARDED_BY(mu_) = 0;
  double queue_wait_micros_ PREFDB_GUARDED_BY(mu_) = 0.0;
  bool shutting_down_ PREFDB_GUARDED_BY(mu_) = false;
};

/// Runs every function in `fns` exactly once, with up to `ctx.threads`
/// concurrent workers: the plug-in strategies' batches of independent
/// delegated queries.
///
/// A serial context, or fewer than two functions, runs everything in index
/// order on the calling thread. Otherwise `workers - 1` helper tasks go to
/// the shared pool and the calling thread works too; every worker claims
/// function indices from the batch's shared cursor. The caller drains the
/// batch itself and then waits only for helpers that claimed a function, so
/// it never waits on a task that has not started: a saturated pool or a
/// nested call completes on the caller alone. Functions must be safe to run
/// concurrently with each other and must communicate results through their
/// own slots (e.g. a pre-sized vector of optionals). A function that throws
/// does not stop the others: once all have finished, the exception of the
/// lowest-indexed function that threw is rethrown here.
void ParallelInvoke(const ParallelContext& ctx,
                    const std::vector<std::function<void()>>& fns);

}  // namespace prefdb

#endif  // PREFDB_PARALLEL_THREAD_POOL_H_
