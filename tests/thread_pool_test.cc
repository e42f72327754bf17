// Tests for the parallel execution substrate: the work-stealing ThreadPool
// and TaskGroup (shutdown, exception propagation, stealing under skew) and
// ParallelInvoke, the plug-ins' fan-out of delegated queries (every function
// once, inline when serial, errors after the join).

#include "parallel/thread_pool.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <set>
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
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 1000; ++i) {
    group.Run([&counter] { counter.fetch_add(1); });
  }
  group.Wait();
  EXPECT_EQ(counter.load(), 1000);
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

TEST(ThreadPoolTest, WaitHelpsRunQueuedTasks) {
  // The helping join: a thread blocked in Wait() drains queued pool tasks
  // instead of sleeping, so group tasks may legitimately run on the waiting
  // thread as well as on pool threads. Every task still runs exactly once.
  ThreadPool pool(2);
  std::set<std::thread::id> ids;
  std::mutex mu;
  std::atomic<int> ran{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 64; ++i) {
    group.Run([&] {
      {
        std::lock_guard<std::mutex> lock(mu);
        ids.insert(std::this_thread::get_id());
      }
      ran.fetch_add(1);
    });
  }
  group.Wait();
  EXPECT_EQ(ran.load(), 64);
  EXPECT_GE(ids.size(), 1u);
}

TEST(ThreadPoolTest, NestedForkJoinDoesNotDeadlock) {
  // With a single worker, outer tasks blocked in an inner Wait() would
  // starve their queued inner tasks forever if waiting threads only
  // slept — the helping join is what lets nested fork/join (BU subtree
  // evaluation spawning morsel loops) complete.
  ThreadPool pool(1);
  std::atomic<int> inner_ran{0};
  TaskGroup outer(&pool);
  for (int i = 0; i < 4; ++i) {
    outer.Run([&] {
      TaskGroup inner(&pool);
      for (int j = 0; j < 8; ++j) {
        inner.Run([&] { inner_ran.fetch_add(1); });
      }
      inner.Wait();
    });
  }
  outer.Wait();
  EXPECT_EQ(inner_ran.load(), 32);
}

TEST(ThreadPoolTest, ExceptionPropagatesThroughTaskGroup) {
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 10; ++i) {
    group.Run([&completed, i] {
      if (i == 3) throw std::runtime_error("task 3 failed");
      completed.fetch_add(1);
    });
  }
  EXPECT_THROW(group.Wait(), std::runtime_error);
  // The failure does not cancel the rest of the batch.
  EXPECT_EQ(completed.load(), 9);
}

TEST(ThreadPoolTest, WaitRethrowsFirstExceptionOnly) {
  ThreadPool pool(4);
  TaskGroup group(&pool);
  for (int i = 0; i < 8; ++i) {
    group.Run([] { throw std::runtime_error("boom"); });
  }
  EXPECT_THROW(group.Wait(), std::runtime_error);
  // A second Wait() returns cleanly: the error was consumed.
  group.Wait();
}

// Governor cancellation racing normal completion: some tasks finish before
// the trip, some hit a tripped checkpoint and unwind. Wait() must join
// every sibling (no task still touching `completed` after it returns) and
// rethrow the first captured QueryAbortedException with the trip's code.
TEST(ThreadPoolTest, WaitJoinsAllSiblingsWhenCancellationRacesCompletion) {
  for (int round = 0; round < 20; ++round) {
    ThreadPool pool(8);
    QueryGovernor governor;
    std::atomic<int> completed{0};
    std::atomic<int> started{0};
    TaskGroup group(&pool);
    for (int i = 0; i < 64; ++i) {
      group.Run([&] {
        // Exactly one task — the 32nd to start — trips the governor
        // mid-batch; earlier finishers race past, later ones unwind.
        if (started.fetch_add(1, std::memory_order_relaxed) + 1 == 32) {
          governor.Cancel();
        }
        GovernorCheckpoint(&governor);
        completed.fetch_add(1, std::memory_order_relaxed);
      });
    }
    bool threw = false;
    try {
      group.Wait();
    } catch (const QueryAbortedException& aborted) {
      threw = true;
      EXPECT_EQ(aborted.status().code(), StatusCode::kCancelled);
    }
    ASSERT_TRUE(threw) << "round " << round;
    // Every task either completed or unwound; none is still in flight.
    EXPECT_EQ(started.load(), 64) << "round " << round;
    EXPECT_LT(completed.load(), 64) << "round " << round;
  }
}

// Stealing under skew: one task blocks a worker until every short task has
// run. Round-robin submission parks half the short tasks behind the blocked
// worker, so the test can only terminate if the other worker steals them —
// completion itself proves stealing, and the counter confirms it. The test
// thread waits for the short tasks before joining: TaskGroup::Wait is a
// helping join, and draining the parked tasks itself would leave no task for
// the free worker to steal.
TEST(ThreadPoolTest, StealsQueuedTasksFromBusyWorker) {
  ThreadPool pool(2);
  constexpr int kShortTasks = 32;
  std::mutex mu;
  std::condition_variable cv;
  int done = 0;

  pool.Submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    bool all_done = cv.wait_for(lock, std::chrono::seconds(30),
                                [&] { return done == kShortTasks; });
    EXPECT_TRUE(all_done) << "short tasks were not stolen from the blocked "
                             "worker's queue";
  });
  TaskGroup group(&pool);
  for (int i = 0; i < kShortTasks; ++i) {
    group.Run([&] {
      {
        std::lock_guard<std::mutex> lock(mu);
        ++done;
      }
      cv.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    bool all_done = cv.wait_for(lock, std::chrono::seconds(30),
                                [&] { return done == kShortTasks; });
    EXPECT_TRUE(all_done) << "short tasks did not finish on the pool";
  }
  group.Wait();
  EXPECT_GE(pool.steal_count(), 1u);
}

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

}  // namespace
}  // namespace prefdb
