// Tests for the parallel execution substrate: the work-stealing ThreadPool
// and TaskGroup (shutdown, exception propagation, stealing under skew) and
// the Morsel/ParallelFor layer (partitioning, determinism, caller
// participation, error paths).

#include "parallel/thread_pool.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/governor.h"
#include "gtest/gtest.h"
#include "parallel/morsel.h"

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

TEST(MorselPlanTest, EmptyInputHasNoMorsels) {
  ParallelContext ctx = ParallelContext::Hardware();
  MorselPlan plan = MorselPlan::Make(0, ctx);
  EXPECT_TRUE(plan.serial());
  EXPECT_EQ(plan.morsel_count(), 0u);
}

TEST(MorselPlanTest, SmallInputFallsBackToSerial) {
  ParallelContext ctx;
  ctx.threads = 8;
  ctx.morsel_size = 16;
  ctx.min_parallel_rows = 1000;
  MorselPlan plan = MorselPlan::Make(999, ctx);
  EXPECT_TRUE(plan.serial());
  ASSERT_EQ(plan.morsel_count(), 1u);
  EXPECT_EQ(plan.morsel(0).begin, 0u);
  EXPECT_EQ(plan.morsel(0).end, 999u);
}

TEST(MorselPlanTest, SerialContextAlwaysSerial) {
  MorselPlan plan = MorselPlan::Make(1 << 20, ParallelContext::Serial());
  EXPECT_TRUE(plan.serial());
}

TEST(MorselPlanTest, PartitionsCoverInputExactly) {
  ParallelContext ctx;
  ctx.threads = 4;
  ctx.morsel_size = 100;
  ctx.min_parallel_rows = 0;
  MorselPlan plan = MorselPlan::Make(1050, ctx);
  EXPECT_FALSE(plan.serial());
  EXPECT_EQ(plan.morsel_count(), 11u);
  EXPECT_EQ(plan.slots(), 4u);
  size_t expected_begin = 0;
  for (size_t i = 0; i < plan.morsel_count(); ++i) {
    EXPECT_EQ(plan.morsel(i).begin, expected_begin);
    EXPECT_EQ(plan.morsel(i).index, i);
    expected_begin = plan.morsel(i).end;
  }
  EXPECT_EQ(expected_begin, 1050u);
  EXPECT_EQ(plan.morsel(10).size(), 50u);  // Trailing partial morsel.
}

TEST(MorselPlanTest, SlotsCappedByThreadBudget) {
  ParallelContext ctx;
  ctx.threads = 2;
  ctx.morsel_size = 10;
  ctx.min_parallel_rows = 0;
  EXPECT_EQ(MorselPlan::Make(1000, ctx).slots(), 2u);
  ctx.threads = 64;
  EXPECT_EQ(MorselPlan::Make(30, ctx).slots(), 3u);  // Capped by morsels.
}

TEST(ParallelForTest, VisitsEveryRowExactlyOnce) {
  ParallelContext ctx;
  ctx.threads = 8;
  ctx.morsel_size = 64;
  ctx.min_parallel_rows = 0;
  constexpr size_t kRows = 10'000;
  MorselPlan plan = MorselPlan::Make(kRows, ctx);
  std::vector<std::atomic<int>> visits(kRows);
  ParallelFor(plan, [&](size_t slot, const Morsel& m) {
    EXPECT_LT(slot, plan.slots());
    for (size_t i = m.begin; i < m.end; ++i) visits[i].fetch_add(1);
  });
  for (size_t i = 0; i < kRows; ++i) {
    ASSERT_EQ(visits[i].load(), 1) << "row " << i;
  }
}

TEST(ParallelForTest, PropagatesWorkerException) {
  ParallelContext ctx;
  ctx.threads = 4;
  ctx.morsel_size = 8;
  ctx.min_parallel_rows = 0;
  MorselPlan plan = MorselPlan::Make(1000, ctx);
  EXPECT_THROW(ParallelFor(plan,
                           [&](size_t, const Morsel& m) {
                             if (m.index == 5) {
                               throw std::runtime_error("morsel failed");
                             }
                           }),
               std::runtime_error);
}

TEST(ParallelForTest, SerialPlanRunsInlineOnCaller) {
  MorselPlan plan = MorselPlan::Make(100, ParallelContext::Serial());
  std::thread::id caller = std::this_thread::get_id();
  size_t rows_seen = 0;
  ParallelFor(plan, [&](size_t slot, const Morsel& m) {
    EXPECT_EQ(slot, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    rows_seen += m.size();
  });
  EXPECT_EQ(rows_seen, 100u);
}

}  // namespace
}  // namespace prefdb
