// Thread pool and TaskGroup tests: task ordering, nested submission, work
// stealing, concurrent submit, drain on destruction, and the per-group
// completion and exception scoping several groups on one pool rely on.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "support/thread_pool.hpp"

namespace mfla {
namespace {

TEST(ThreadPool, ReportsThreadCount) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
  ThreadPool defaulted;
  EXPECT_GE(defaulted.thread_count(), 1u);
}

TEST(ThreadPool, SingleThreadPreservesSubmissionOrder) {
  ThreadPool pool(1);
  TaskGroup group(pool);
  std::vector<int> order;
  std::mutex mtx;
  for (int i = 0; i < 100; ++i) {
    group.submit([&order, &mtx, i] {
      std::lock_guard<std::mutex> lk(mtx);
      order.push_back(i);
    });
  }
  group.wait();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ThreadPool, ConcurrentSubmitRunsEveryTaskOnce) {
  ThreadPool pool(4);
  TaskGroup group(pool);
  std::atomic<int> counter{0};
  std::vector<std::thread> submitters;
  submitters.reserve(8);
  for (int t = 0; t < 8; ++t) {
    submitters.emplace_back([&group, &counter] {
      for (int i = 0; i < 250; ++i) {
        group.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
      }
    });
  }
  for (auto& t : submitters) t.join();
  group.wait();
  EXPECT_EQ(counter.load(), 2000);
}

TEST(ThreadPool, NestedSubmissionCompletesBeforeWaitIdle) {
  ThreadPool pool(2);
  TaskGroup group(pool);
  std::atomic<int> counter{0};
  group.submit([&group, &counter] {
    for (int i = 0; i < 10; ++i) {
      group.submit([&group, &counter] {
        counter.fetch_add(1, std::memory_order_relaxed);
        group.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
      });
    }
  });
  group.wait();
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPool, IdleWorkersStealNestedWork) {
  // All four inner tasks are submitted from one worker, so they land on its
  // own deque; they rendezvous on a barrier that only clears once all four
  // run concurrently — which requires the other three workers to steal.
  // If stealing were broken this would hang (and trip the test timeout).
  ThreadPool pool(4);
  TaskGroup group(pool);
  std::mutex mtx;
  std::condition_variable cv;
  int arrived = 0;
  group.submit([&] {
    for (int i = 0; i < 4; ++i) {
      group.submit([&] {
        std::unique_lock<std::mutex> lk(mtx);
        ++arrived;
        cv.notify_all();
        cv.wait(lk, [&] { return arrived == 4; });
      });
    }
  });
  group.wait();
  EXPECT_EQ(arrived, 4);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
    }
    // No wait: the destructor must finish the queue before joining.
  }
  EXPECT_EQ(counter.load(), 200);
}

TEST(TaskGroup, WaitReturnsWhileAnotherGroupsTaskIsBlocked) {
  ThreadPool pool(2);
  std::mutex mtx;
  std::condition_variable cv;
  bool started = false;
  bool released = false;
  TaskGroup blocked(pool);
  blocked.submit([&] {
    std::unique_lock<std::mutex> lk(mtx);
    started = true;
    cv.notify_all();
    cv.wait(lk, [&] { return released; });
  });
  {
    std::unique_lock<std::mutex> lk(mtx);
    cv.wait(lk, [&] { return started; });
  }

  // The other worker serves this group; its wait() must not depend on the
  // blocked task, which is still parked on `released`.
  TaskGroup quick(pool);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i)
    quick.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  quick.wait();
  EXPECT_EQ(counter.load(), 50);
  {
    std::lock_guard<std::mutex> lk(mtx);
    EXPECT_FALSE(released);
    released = true;
  }
  cv.notify_all();
  blocked.wait();
}

TEST(TaskGroup, EachGroupRethrowsOnlyItsOwnFirstException) {
  // One worker runs the tasks in submission order, so "first" is defined.
  ThreadPool pool(1);
  TaskGroup a(pool), b(pool), clean(pool);
  std::atomic<int> counter{0};
  a.submit([] { throw std::logic_error("a first"); });
  b.submit([] { throw std::runtime_error("b first"); });
  a.submit([] { throw std::runtime_error("a second"); });
  for (int i = 0; i < 10; ++i)
    clean.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });

  EXPECT_NO_THROW(clean.wait());
  EXPECT_EQ(counter.load(), 10);  // other groups' failures cancel nothing
  try {
    a.wait();
    ADD_FAILURE() << "group a did not rethrow";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "a first");
  }
  try {
    b.wait();
    ADD_FAILURE() << "group b did not rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "b first");
  }
  // The error slot is cleared: each group stays usable.
  a.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_NO_THROW(a.wait());
  EXPECT_NO_THROW(b.wait());
  EXPECT_EQ(counter.load(), 11);
}

TEST(TaskGroup, NestedSubmissionsAreCounted) {
  // Each task spawns its children before returning, so wait() may only
  // return once the whole tree (1 + 4 + 16 + 64 tasks) has run.
  ThreadPool pool(3);
  TaskGroup group(pool);
  std::atomic<int> ran{0};
  std::function<void(int)> spawn = [&](int depth) {
    ran.fetch_add(1, std::memory_order_relaxed);
    if (depth == 0) return;
    for (int i = 0; i < 4; ++i) group.submit([&spawn, depth] { spawn(depth - 1); });
  };
  group.submit([&spawn] { spawn(3); });
  group.wait();
  EXPECT_EQ(ran.load(), 1 + 4 + 16 + 64);
}

}  // namespace
}  // namespace mfla
