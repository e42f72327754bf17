#include "parallel/thread_pool.h"

#include <algorithm>
#include <exception>
#include <memory>
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
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
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
    queue_.push_back({std::move(task), std::chrono::steady_clock::now()});
  }
  cv_.NotifyOne();
}

size_t ThreadPool::queue_depth() const {
  MutexLock lock(&mu_);
  return queue_.size();
}

ThreadPoolTelemetry ThreadPool::telemetry() const {
  MutexLock lock(&mu_);
  ThreadPoolTelemetry t;
  t.tasks_executed = tasks_executed_;
  t.queue_wait_micros = queue_wait_micros_;
  return t;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(&mu_);
      while (queue_.empty() && !shutting_down_) cv_.Wait(&mu_);
      if (queue_.empty()) return;  // Shutting down, and the queue is drained.
      ++tasks_executed_;
      queue_wait_micros_ += std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() -
                                queue_.front().submitted)
                                .count();
      task = std::move(queue_.front().fn);
      queue_.pop_front();
    }
    task();  // Its captures are released before the lock is taken again.
  }
}

ThreadPool& ThreadPool::Shared() {
  // Leaked intentionally: worker threads must not be joined during static
  // destruction (tasks submitted from other static objects could deadlock).
  static ThreadPool* pool =
      new ThreadPool(std::max(1u, std::thread::hardware_concurrency()));
  return *pool;
}

namespace {

// The state of one ParallelInvoke batch, shared by the caller and its
// helper tasks. A helper may start after the caller has returned, so it
// owns the batch too; it reads the caller's `fns` and `errors` only after
// claiming an index, and the caller waits for every helper that did.
struct Batch {
  Batch(const std::vector<std::function<void()>>* fns,
        std::vector<std::exception_ptr>* errors)
      : fns(fns), errors(errors), size(fns->size()) {}

  const std::vector<std::function<void()>>* fns;  // The caller's.
  // The caller's too, so every exception is released on the caller's
  // thread. Each function's exception lands in its own slot, written by
  // the one thread that claimed it and read by the caller after the join.
  std::vector<std::exception_ptr>* errors;
  const size_t size;
  Mutex mu;
  CondVar idle;
  size_t next PREFDB_GUARDED_BY(mu) = 0;     // The claim cursor.
  size_t running PREFDB_GUARDED_BY(mu) = 0;  // Threads inside a function.
};

// Claims and runs functions until the cursor is exhausted.
void Drain(Batch* batch) {
  batch->mu.Lock();
  while (batch->next < batch->size) {
    const size_t i = batch->next++;
    ++batch->running;
    batch->mu.Unlock();
    try {
      (*batch->fns)[i]();
    } catch (...) {
      (*batch->errors)[i] = std::current_exception();
    }
    batch->mu.Lock();
    --batch->running;
  }
  if (batch->running == 0) batch->idle.NotifyAll();
  batch->mu.Unlock();
}

}  // namespace

void ParallelInvoke(const ParallelContext& ctx,
                    const std::vector<std::function<void()>>& fns) {
  std::vector<std::exception_ptr> errors(fns.size());
  auto batch = std::make_shared<Batch>(&fns, &errors);
  const size_t workers = std::min(ctx.threads, fns.size());
  std::exception_ptr submit_error;
  try {
    for (size_t w = 1; w < workers; ++w) {
      ThreadPool::Shared().Submit([batch] { Drain(batch.get()); });
    }
  } catch (...) {
    // Fewer helpers than asked: the batch still runs, and the helpers
    // already queued are joined below before anything is rethrown.
    submit_error = std::current_exception();
  }
  Drain(batch.get());  // The caller works too, and alone if no helper starts.
  {
    MutexLock lock(&batch->mu);
    while (batch->running != 0) batch->idle.Wait(&batch->mu);
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  if (submit_error) std::rethrow_exception(submit_error);
}

}  // namespace prefdb
