#include "common/thread_pool.h"

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <vector>

#include "gtest/gtest.h"

namespace gks {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  std::atomic<int> count{0};
  std::mutex mu;
  std::condition_variable cv;
  // Declared last so it is destroyed first: its join waits out the task
  // that may still be notifying after the waiter below has returned.
  ThreadPool pool(4);
  constexpr int kTasks = 100;
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&] {
      if (count.fetch_add(1) + 1 == kTasks) {
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
      }
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return count.load() == kTasks; });
  EXPECT_EQ(count.load(), kTasks);
}

TEST(ThreadPoolTest, DestructorDrainsAcceptedTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&] { count.fetch_add(1); });
    }
  }  // join must run every accepted task
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, InWorkerIsVisibleInsideTasks) {
  EXPECT_FALSE(ThreadPool::InWorker());
  std::atomic<bool> inside{false};
  std::atomic<bool> done{false};
  std::mutex mu;
  std::condition_variable cv;
  ThreadPool pool(1);  // last, as in RunsSubmittedTasks
  pool.Submit([&] {
    inside = ThreadPool::InWorker();
    std::lock_guard<std::mutex> lock(mu);
    done = true;
    cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done.load(); });
  EXPECT_TRUE(inside.load());
  EXPECT_FALSE(ThreadPool::InWorker());
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  ParallelFor(&pool, kN, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, NullPoolRunsInlineInOrder) {
  std::vector<size_t> order;
  ParallelFor(nullptr, 5, [&](size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelForTest, ZeroAndOneIterations) {
  ThreadPool pool(2);
  int calls = 0;
  ParallelFor(&pool, 0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  ParallelFor(&pool, 1, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForTest, NestedCallsRunInlineWithoutDeadlock) {
  // A worker that itself calls ParallelFor must not wait on helper tasks
  // queued behind its own task — on a 1-thread pool that would deadlock.
  ThreadPool pool(1);
  std::atomic<size_t> total{0};
  ParallelFor(&pool, 4, [&](size_t) {
    ParallelFor(&pool, 8, [&](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 32u);
}

TEST(ParallelForTest, ParallelSumMatchesSequential) {
  ThreadPool pool(3);
  std::vector<uint64_t> values(4096);
  std::iota(values.begin(), values.end(), 1);
  std::vector<uint64_t> squares(values.size());
  ParallelFor(&pool, values.size(),
              [&](size_t i) { squares[i] = values[i] * values[i]; });
  uint64_t expected = 0;
  for (uint64_t v : values) expected += v * v;
  uint64_t got = std::accumulate(squares.begin(), squares.end(), uint64_t{0});
  EXPECT_EQ(got, expected);
}

}  // namespace
}  // namespace gks
