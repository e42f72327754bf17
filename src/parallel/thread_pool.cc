#include "parallel/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "common/string_util.h"

namespace prefdb {

std::string ThreadPoolTelemetry::ToString() const {
  return StrFormat(
      "tasks_executed=%llu steals=%llu help_drains=%llu "
      "queue_wait_micros=%.1f",
      static_cast<unsigned long long>(tasks_executed),
      static_cast<unsigned long long>(steals),
      static_cast<unsigned long long>(help_drains), queue_wait_micros);
}

ThreadPool::ThreadPool(size_t num_threads) {
  size_t n = std::max<size_t>(1, num_threads);
  queues_.resize(n);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    shutting_down_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(&mu_);
    queues_[next_queue_].push_back(
        {std::move(task), std::chrono::steady_clock::now()});
    next_queue_ = (next_queue_ + 1) % queues_.size();
  }
  cv_.NotifyOne();
}

size_t ThreadPool::steal_count() const {
  MutexLock lock(&mu_);
  return steal_count_;
}

size_t ThreadPool::queue_depth() const {
  MutexLock lock(&mu_);
  size_t depth = 0;
  for (const auto& queue : queues_) depth += queue.size();
  return depth;
}

ThreadPoolTelemetry ThreadPool::telemetry() const {
  MutexLock lock(&mu_);
  ThreadPoolTelemetry t;
  t.tasks_executed = tasks_executed_;
  t.steals = steal_count_;
  t.help_drains = help_drains_;
  t.queue_wait_micros = queue_wait_micros_;
  return t;
}

void ThreadPool::NoteDequeued(const QueuedTask& task) {
  ++tasks_executed_;
  queue_wait_micros_ +=
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - task.submitted)
          .count();
}

bool ThreadPool::NextTask(size_t worker_index, std::function<void()>* task) {
  std::deque<QueuedTask>& own = queues_[worker_index];
  if (!own.empty()) {
    NoteDequeued(own.front());
    *task = std::move(own.front().fn);
    own.pop_front();
    return true;
  }
  // Steal from the back of a sibling's deque, scanning round-robin from the
  // next worker so no single victim is preferred.
  for (size_t off = 1; off < queues_.size(); ++off) {
    std::deque<QueuedTask>& victim =
        queues_[(worker_index + off) % queues_.size()];
    if (!victim.empty()) {
      NoteDequeued(victim.back());
      *task = std::move(victim.back().fn);
      victim.pop_back();
      ++steal_count_;
      return true;
    }
  }
  return false;
}

bool ThreadPool::TryRunOneTask() {
  std::function<void()> task;
  {
    MutexLock lock(&mu_);
    for (std::deque<QueuedTask>& queue : queues_) {
      if (!queue.empty()) {
        NoteDequeued(queue.front());
        ++help_drains_;
        task = std::move(queue.front().fn);
        queue.pop_front();
        break;
      }
    }
  }
  if (!task) return false;
  task();
  return true;
}

void ThreadPool::WorkerLoop(size_t worker_index) {
  mu_.Lock();
  for (;;) {
    std::function<void()> task;
    if (NextTask(worker_index, &task)) {
      mu_.Unlock();
      task();
      task = nullptr;  // Release captures before re-locking.
      mu_.Lock();
      continue;
    }
    if (shutting_down_) break;  // All queues drained.
    cv_.Wait(&mu_);
  }
  mu_.Unlock();
}

ThreadPool& ThreadPool::Shared() {
  // Leaked intentionally: worker threads must not be joined during static
  // destruction (tasks submitted from other static objects could deadlock).
  static ThreadPool* pool =
      new ThreadPool(std::max(1u, std::thread::hardware_concurrency()));
  return *pool;
}

void TaskGroup::Run(std::function<void()> fn) {
  {
    MutexLock lock(&mu_);
    ++pending_;
  }
  pool_->Submit([this, fn = std::move(fn)] {
    std::exception_ptr err;
    try {
      fn();
    } catch (...) {
      err = std::current_exception();
    }
    // The decrement, the error publication and the notify happen under the
    // lock: once Wait() observes pending_ == 0 the group may be destroyed,
    // so this task must be done touching members before releasing it.
    MutexLock lock(&mu_);
    if (err && !error_) error_ = err;
    --pending_;
    cv_.NotifyAll();
  });
}

void TaskGroup::HelpUntilDone() {
  for (;;) {
    {
      MutexLock lock(&mu_);
      if (pending_ == 0) return;
    }
    // Run queued work (any group's) rather than sleeping: this is what
    // keeps nested joins deadlock-free when every pool worker is itself
    // blocked in a Wait.
    if (pool_->TryRunOneTask()) continue;
    // Every queue was empty, so all of this group's pending tasks are
    // running on other threads (tasks are enqueued only by the owner, who
    // is here). Their completion decrements pending_ and notifies under
    // mu_, so blocking cannot miss the wakeup.
    MutexLock lock(&mu_);
    while (pending_ != 0) cv_.Wait(&mu_);
    return;
  }
}

void TaskGroup::Wait() {
  HelpUntilDone();
  MutexLock lock(&mu_);
  if (error_) {
    std::exception_ptr error = std::exchange(error_, nullptr);
    std::rethrow_exception(error);
  }
}

void TaskGroup::WaitNoThrow() { HelpUntilDone(); }

void ParallelInvoke(const ParallelContext& ctx,
                    const std::vector<std::function<void()>>& fns) {
  // Each function's exception lands in its own slot, so a failure neither
  // stops the batch nor races another one.
  std::vector<std::exception_ptr> errors(fns.size());
  std::atomic<size_t> cursor{0};
  auto drain = [&fns, &errors, &cursor] {
    size_t i;
    while ((i = cursor.fetch_add(1, std::memory_order_relaxed)) < fns.size()) {
      try {
        fns[i]();
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  const size_t workers = std::min(ctx.ResolvedThreads(), fns.size());
  if (workers <= 1) {
    drain();
  } else {
    TaskGroup group(&ThreadPool::Shared());
    for (size_t w = 1; w < workers; ++w) group.Run(drain);
    drain();  // The caller works too.
    group.Wait();
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace prefdb
