// Tests for the parallel execution substrate: the one-queue ThreadPool
// (every task runs, shutdown drains the queue) and ParallelInvoke, the
// plug-ins' fan-out of delegated queries (every function once, inline when
// serial, errors after the join, cancellation joined, and completion on the
// caller alone when nested or when every pool worker is busy).

#include "parallel/thread_pool.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/governor.h"
#include "gtest/gtest.h"

namespace prefdb {
namespace {

TEST(ThreadPoolTest, ConstructsAndJoinsIdle) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  // Destructor joins without any task submitted.
}

TEST(ThreadPoolTest, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, ExecutesEveryTask) {
  constexpr int kTasks = 1000;
  ThreadPool pool(4);
  std::mutex mu;
  std::condition_variable cv;
  int done = 0;
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&] {
      std::lock_guard<std::mutex> lock(mu);
      if (++done == kTasks) cv.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                            [&] { return done == kTasks; }));
  }
  ThreadPoolTelemetry telemetry = pool.telemetry();
  EXPECT_EQ(telemetry.tasks_executed, static_cast<uint64_t>(kTasks));
  EXPECT_EQ(telemetry.steals, 0u);
  EXPECT_EQ(telemetry.help_drains, 0u);
  EXPECT_EQ(telemetry.helper_claims, 0u);  // No ParallelInvoke ran on it.
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(ThreadPoolTest, ShutdownDrainsQueuedTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    // Destructor must run all 200 queued tasks before joining.
  }
  EXPECT_EQ(counter.load(), 200);
}

// Occupies every worker of the shared pool until destroyed: exactly
// num_threads() blocking tasks, no more. The constructor returns once all
// of them are running, so every task queued before them has finished.
class SharedPoolBlocker {
 public:
  SharedPoolBlocker() : workers_(ThreadPool::Shared().num_threads()) {
    for (size_t i = 0; i < workers_; ++i) {
      ThreadPool::Shared().Submit([this] {
        std::unique_lock<std::mutex> lock(mu_);
        ++started_;
        cv_.notify_all();
        cv_.wait(lock, [this] { return released_; });
        ++finished_;
        cv_.notify_all();
      });
    }
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return started_ == workers_; });
  }

  SharedPoolBlocker(const SharedPoolBlocker&) = delete;
  SharedPoolBlocker& operator=(const SharedPoolBlocker&) = delete;

  ~SharedPoolBlocker() {
    std::unique_lock<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return finished_ == workers_; });
  }

 private:
  const size_t workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  size_t started_ = 0;
  size_t finished_ = 0;
  bool released_ = false;
};

ParallelContext Threads(size_t threads) {
  ParallelContext ctx;
  ctx.threads = threads;
  return ctx;
}

TEST(ParallelInvokeTest, RunsEveryFunctionExactlyOnce) {
  constexpr size_t kFunctions = 64;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    std::vector<std::atomic<int>> runs(kFunctions);
    std::vector<std::function<void()>> fns;
    for (size_t i = 0; i < kFunctions; ++i) {
      fns.push_back([&runs, i] { runs[i].fetch_add(1); });
    }
    ParallelInvoke(Threads(threads), fns);
    for (size_t i = 0; i < kFunctions; ++i) {
      EXPECT_EQ(runs[i].load(), 1) << "function " << i << " threads=" << threads;
    }
  }
}

TEST(ParallelInvokeTest, SerialContextAndSingleFunctionRunInlineInOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  // A serial context with many functions, and a wide context with one.
  for (auto [threads, count] : {std::pair<size_t, size_t>{1, 16}, {8, 1}}) {
    std::vector<size_t> order;
    std::vector<std::function<void()>> fns;
    for (size_t i = 0; i < count; ++i) {
      fns.push_back([&order, caller, i] {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);  // Unsynchronized: inline runs only.
      });
    }
    ParallelInvoke(Threads(threads), fns);
    ASSERT_EQ(order.size(), count) << "threads=" << threads;
    for (size_t i = 0; i < count; ++i) EXPECT_EQ(order[i], i);
  }
}

TEST(ParallelInvokeTest, RethrowsFirstErrorAfterEveryFunctionFinished) {
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    constexpr size_t kFunctions = 16;
    std::atomic<size_t> finished{0};
    std::vector<std::function<void()>> fns;
    for (size_t i = 0; i < kFunctions; ++i) {
      fns.push_back([&finished, i] {
        if (i == 1) throw std::runtime_error("first");
        if (i == 9) throw std::runtime_error("second");
        // Slow siblings: the rethrow must wait for them.
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        finished.fetch_add(1);
      });
    }
    try {
      ParallelInvoke(Threads(threads), fns);
      ADD_FAILURE() << "no exception at threads=" << threads;
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "first") << "threads=" << threads;
    }
    // Every function that did not throw ran to completion before the
    // rethrow.
    EXPECT_EQ(finished.load(), kFunctions - 2) << "threads=" << threads;
  }
}

// Governor cancellation racing normal completion: some functions finish
// before the trip, some hit a tripped checkpoint and unwind. ParallelInvoke
// must join every function that started (none still in flight once it
// throws) and rethrow a QueryAbortedException with the trip's code.
TEST(ParallelInvokeTest, JoinsEveryStartedFunctionWhenCancellationRacesCompletion) {
  constexpr int kFunctions = 64;
  for (int round = 0; round < 20; ++round) {
    QueryGovernor governor;
    std::atomic<int> started{0};
    std::atomic<int> completed{0};
    std::atomic<int> in_flight{0};
    std::vector<std::function<void()>> fns;
    for (int i = 0; i < kFunctions; ++i) {
      fns.push_back([&] {
        in_flight.fetch_add(1);
        struct Leave {
          std::atomic<int>* in_flight;
          ~Leave() { in_flight->fetch_sub(1); }
        } leave{&in_flight};
        // Exactly one function, the 32nd to start, trips the governor
        // mid-batch; earlier finishers race past, later ones unwind.
        if (started.fetch_add(1) + 1 == kFunctions / 2) governor.Cancel();
        GovernorCheckpoint(&governor);
        completed.fetch_add(1);
      });
    }
    bool threw = false;
    try {
      ParallelInvoke(Threads(8), fns);
    } catch (const QueryAbortedException& aborted) {
      threw = true;
      EXPECT_EQ(aborted.status().code(), StatusCode::kCancelled);
      EXPECT_EQ(in_flight.load(), 0) << "round " << round;
    }
    ASSERT_TRUE(threw) << "round " << round;
    EXPECT_EQ(started.load(), kFunctions) << "round " << round;
    EXPECT_LT(completed.load(), kFunctions) << "round " << round;
  }
}

// Functions that themselves call ParallelInvoke, while every shared-pool
// worker is busy: no helper of either level can start, so the callers run
// both levels alone. Then the same with the workers free, where the nested
// calls also run on pool workers.
TEST(ParallelInvokeTest, NestedCallsCompleteWhileEveryPoolWorkerIsBusy) {
  for (bool blocked : {true, false}) {
    std::atomic<int> inner_ran{0};
    std::vector<std::function<void()>> outer;
    for (int i = 0; i < 4; ++i) {
      outer.push_back([&inner_ran] {
        std::vector<std::function<void()>> inner;
        for (int j = 0; j < 8; ++j) {
          inner.push_back([&inner_ran] { inner_ran.fetch_add(1); });
        }
        ParallelInvoke(Threads(4), inner);
      });
    }
    {
      std::optional<SharedPoolBlocker> blocker;
      if (blocked) blocker.emplace();
      ParallelInvoke(Threads(4), outer);
    }
    EXPECT_EQ(inner_ran.load(), 32) << "blocked=" << blocked;
  }
}

// With every shared-pool worker blocked, a two-thread ParallelInvoke
// returns once the caller has run every function itself; its helper is
// still queued. When the workers are freed the helper starts after the
// batch is over and returns without reading the caller's functions, which
// are freed by then (a read would be a heap-use-after-free under ASan).
uint64_t SharedHelperClaims() {
  return ThreadPool::Shared().telemetry().helper_claims;
}

TEST(ParallelInvokeTest, CallerRunsEveryFunctionWhenThePoolIsSaturated) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(6);
  const uint64_t claims_before = SharedHelperClaims();
  {
    SharedPoolBlocker blocker;
    auto fns = std::make_unique<std::vector<std::function<void()>>>();
    for (size_t i = 0; i < ran_on.size(); ++i) {
      fns->push_back([&ran_on, i] { ran_on[i] = std::this_thread::get_id(); });
    }
    ParallelInvoke(Threads(2), *fns);
    fns.reset();
    EXPECT_EQ(ThreadPool::Shared().queue_depth(), 1u);  // The helper.
  }
  for (size_t i = 0; i < ran_on.size(); ++i) {
    EXPECT_EQ(ran_on[i], caller) << "function " << i;
  }
  // A second blocker starts only once every task queued before it,
  // the helper included, has finished.
  SharedPoolBlocker drained;
  // The late helper found the batch drained: it claimed nothing.
  EXPECT_EQ(SharedHelperClaims(), claims_before);
}

// With free workers, a helper claims the function the caller cannot reach:
// each of the two functions waits until both have started, so the batch
// completes early only if a helper ran one of them. The wait is bounded; a
// batch the caller ran alone leaves the claim count unchanged and fails.
TEST(ParallelInvokeTest, HelpersClaimFunctionsWhenWorkersAreFree) {
  const uint64_t claims_before = SharedHelperClaims();
  std::mutex mu;
  std::condition_variable cv;
  int started = 0;
  std::vector<std::function<void()>> fns;
  for (int i = 0; i < 2; ++i) {
    fns.push_back([&] {
      std::unique_lock<std::mutex> lock(mu);
      ++started;
      cv.notify_all();
      cv.wait_for(lock, std::chrono::seconds(30), [&] { return started == 2; });
    });
  }
  ParallelInvoke(Threads(2), fns);
  EXPECT_GE(SharedHelperClaims() - claims_before, 1u);
}

}  // namespace
}  // namespace prefdb
