#ifndef PREFDB_PARALLEL_THREAD_POOL_H_
#define PREFDB_PARALLEL_THREAD_POOL_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
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
/// latency over all executed tasks — queue pressure in aggregate;
/// `help_drains` counts tasks a joining thread ran itself instead of
/// sleeping (TaskGroup::Wait's helping protocol).
struct ThreadPoolTelemetry {
  uint64_t tasks_executed = 0;
  uint64_t steals = 0;
  uint64_t help_drains = 0;
  double queue_wait_micros = 0.0;

  std::string ToString() const;
};

/// A fixed-size work-stealing thread pool.
///
/// Each worker owns a deque of tasks; Submit() distributes tasks over the
/// worker deques round-robin. A worker pops from the front of its own deque
/// (FIFO: tasks submitted first run first) and, when its deque is empty,
/// steals from the back of a sibling's deque — so a worker stuck on a long
/// task cannot strand the tasks queued behind it. The destructor drains all
/// queued tasks before joining the workers.
///
/// Tasks must not throw across the pool boundary; use TaskGroup (below) to
/// run a batch of fallible tasks and rethrow the first failure at the join
/// point.
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

  /// Number of tasks executed by a worker other than the one they were
  /// queued on (telemetry; exercised by the skew tests).
  size_t steal_count() const;

  /// Full lifetime telemetry snapshot (tasks, steals, helping drains,
  /// aggregate queue-wait time).
  ThreadPoolTelemetry telemetry() const;

  /// Total tasks currently queued across all worker deques (instantaneous;
  /// the source for the pref.pool.queue_depth telemetry gauge).
  size_t queue_depth() const;

  /// Pops one queued task (any queue) and runs it on the calling thread.
  /// Returns false without blocking when every queue is empty. This is the
  /// "helping" half of TaskGroup::Wait: a thread blocked on a join drains
  /// queued work instead of sleeping, so nested fork/join regions (a task
  /// that itself spawns and joins a group) cannot deadlock even when every
  /// pool worker is parked in a Wait of its own. Not counted as a steal.
  bool TryRunOneTask();

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

  void WorkerLoop(size_t worker_index);
  /// Pops the next task for `worker_index` (own queue first, then steal).
  /// Returns false if no task is available.
  bool NextTask(size_t worker_index, std::function<void()>* task)
      PREFDB_REQUIRES(mu_);
  /// Records the dequeue of `task` into the telemetry counters.
  void NoteDequeued(const QueuedTask& task) PREFDB_REQUIRES(mu_);

  mutable Mutex mu_;
  CondVar cv_;
  // One queue per worker.
  std::vector<std::deque<QueuedTask>> queues_ PREFDB_GUARDED_BY(mu_);
  std::vector<std::thread> workers_;  // Const after construction.
  size_t next_queue_ PREFDB_GUARDED_BY(mu_) = 0;  // Round-robin cursor.
  size_t steal_count_ PREFDB_GUARDED_BY(mu_) = 0;
  uint64_t tasks_executed_ PREFDB_GUARDED_BY(mu_) = 0;
  uint64_t help_drains_ PREFDB_GUARDED_BY(mu_) = 0;
  double queue_wait_micros_ PREFDB_GUARDED_BY(mu_) = 0.0;
  bool shutting_down_ PREFDB_GUARDED_BY(mu_) = false;
};

/// A batch of tasks submitted to a pool and joined together. Exceptions
/// thrown by tasks are captured; Wait() rethrows the first one after every
/// task of the group has finished (the rest of the batch still runs — the
/// caller's partial results stay consistent).
///
/// Wait() is a *helping* join: while tasks of this group are still queued
/// or running, the waiter executes queued pool tasks (its own group's or
/// any other's) instead of sleeping, and only blocks once every queue is
/// empty — at which point all remaining pending tasks are actively running
/// on other threads. Since a group's tasks are enqueued only by its owner
/// before it joins, wait-for edges follow the spawn tree and the leaf-most
/// running tasks always make progress, so nested fork/join regions (a task
/// that spawns and joins a group of its own) are deadlock-free at any pool
/// size.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool* pool) : pool_(pool) {}

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Joins without rethrowing if the caller forgot to Wait().
  ~TaskGroup() { WaitNoThrow(); }

  /// Schedules `fn` on the pool as part of this group.
  void Run(std::function<void()> fn);

  /// Blocks until every task scheduled so far has finished; rethrows the
  /// first captured exception, if any.
  void Wait();

 private:
  void WaitNoThrow();
  /// Helps the pool until this group's pending count reaches zero.
  void HelpUntilDone();

  ThreadPool* pool_;
  Mutex mu_;
  CondVar cv_;
  size_t pending_ PREFDB_GUARDED_BY(mu_) = 0;
  std::exception_ptr error_ PREFDB_GUARDED_BY(mu_);
};

/// Runs every function in `fns` exactly once, with up to
/// `ctx.ResolvedThreads()` concurrent workers: the plug-in strategies'
/// batches of independent delegated queries.
///
/// A serial context, or fewer than two functions, runs everything in index
/// order on the calling thread. Otherwise `workers - 1` tasks go to the
/// shared pool and the calling thread works too; all workers claim function
/// indices from a shared atomic cursor, so the caller alone can drain the
/// batch if the pool is saturated. Functions must be safe to run
/// concurrently with each other and must communicate results through their
/// own slots (e.g. a pre-sized vector of optionals). A function that throws
/// does not stop the others: once all have finished, the exception of the
/// lowest-indexed function that threw is rethrown here.
void ParallelInvoke(const ParallelContext& ctx,
                    const std::vector<std::function<void()>>& fns);

}  // namespace prefdb

#endif  // PREFDB_PARALLEL_THREAD_POOL_H_
