// Work-stealing thread pool used by the sweep engine (api/sweep.cpp), the
// serving daemon and the benches, plus TaskGroup, the only way to wait on
// pool work.
//
// Each worker owns a deque: it pops its own tasks from the front (so a
// single-threaded pool executes external submissions in submission order)
// and steals from the back of other workers' deques when its own runs dry.
// External submissions are distributed round-robin; submissions made from
// inside a worker land on that worker's own deque (the common case for
// dependent tasks, e.g. the per-format runs spawned once a reference solve
// completes — they stay local unless another worker is idle and steals).
//
// Completion and errors belong to TaskGroup: submit work through a group,
// wait() on it, and get the group's first task exception rethrown there.
// A task handed to ThreadPool::submit directly must not throw — nothing
// catches it, so an escaping exception terminates the process. The
// destructor drains every queued task before joining.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace mfla {

class ThreadPool {
 public:
  /// threads == 0 selects std::thread::hardware_concurrency() (at least 1).
  explicit ThreadPool(std::size_t threads = 0) {
    if (threads == 0) threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
    queues_.resize(threads);
    for (std::size_t i = 0; i < threads; ++i) queues_[i] = std::make_unique<Queue>();
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
      workers_.emplace_back([this, i] { worker_loop(i); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains all queued tasks (including tasks submitted by running tasks),
  /// then joins the workers.
  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lk(signal_mtx_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  [[nodiscard]] std::size_t thread_count() const noexcept { return workers_.size(); }

  /// Enqueue a task. Safe to call concurrently and from inside tasks. The
  /// task must not throw; use TaskGroup::submit for work that may.
  void submit(std::function<void()> task) {
    const std::size_t target = this_pool_ == this
                                   ? this_worker_
                                   : next_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
    {
      // Increment queued_ under the same queue mutex that guards the push:
      // a pop of this task (which decrements) must acquire this mutex first,
      // so the counter can never underflow.
      std::lock_guard<std::mutex> lk(queues_[target]->mtx);
      queued_.fetch_add(1, std::memory_order_release);
      queues_[target]->tasks.push_back(std::move(task));
    }
    // Fence against a worker that checked the wait predicate before the
    // increment and has not started waiting yet (lost-wakeup race).
    {
      std::lock_guard<std::mutex> lk(signal_mtx_);
    }
    work_cv_.notify_one();
  }

 private:
  struct Queue {
    std::mutex mtx;
    std::deque<std::function<void()>> tasks;
  };

  // Which pool (if any) owns the current thread, and its worker index there.
  static thread_local const ThreadPool* this_pool_;
  static thread_local std::size_t this_worker_;

  bool try_pop(std::size_t index, bool own, std::function<void()>& out) {
    Queue& q = *queues_[index];
    std::lock_guard<std::mutex> lk(q.mtx);
    if (q.tasks.empty()) return false;
    if (own) {  // owner: FIFO from the front
      out = std::move(q.tasks.front());
      q.tasks.pop_front();
    } else {  // thief: steal from the back
      out = std::move(q.tasks.back());
      q.tasks.pop_back();
    }
    queued_.fetch_sub(1, std::memory_order_release);
    return true;
  }

  bool find_task(std::size_t self, std::function<void()>& out) {
    if (try_pop(self, true, out)) return true;
    for (std::size_t k = 1; k < queues_.size(); ++k) {
      if (try_pop((self + k) % queues_.size(), false, out)) return true;
    }
    return false;
  }

  void worker_loop(std::size_t self) {
    this_pool_ = this;
    this_worker_ = self;
    std::function<void()> task;
    while (true) {
      if (find_task(self, task)) {
        task();
        task = nullptr;  // release captures before looking for more work
        continue;
      }
      std::unique_lock<std::mutex> lk(signal_mtx_);
      work_cv_.wait(lk, [this] {
        return stop_ || queued_.load(std::memory_order_acquire) > 0;
      });
      if (stop_ && queued_.load(std::memory_order_acquire) == 0) return;
    }
  }

  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> workers_;
  std::mutex signal_mtx_;
  std::condition_variable work_cv_;
  std::atomic<std::size_t> queued_{0};  // sitting in a deque
  std::atomic<std::size_t> next_{0};    // round-robin cursor for external submits
  bool stop_ = false;
};

inline thread_local const ThreadPool* ThreadPool::this_pool_ = nullptr;
inline thread_local std::size_t ThreadPool::this_worker_ = 0;

/// A completion scope over a (possibly shared) ThreadPool.
///
/// A TaskGroup counts only its own submissions: wait() returns when every
/// task submitted through THIS group has finished, regardless of what else
/// is running on the pool (several sweeps share one pool in the serving
/// daemon), and rethrows only this group's first exception.
///
/// Nested submissions (a group task submitting more group tasks) are safe
/// as long as they happen before the submitting task returns — the parent
/// task is still counted as pending, so the group cannot appear idle in
/// between.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool) : pool_(pool) {}

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Blocks until all tasks have finished; never throws (a pending error
  /// that was never wait()ed for is dropped).
  ~TaskGroup() {
    std::unique_lock<std::mutex> lk(mtx_);
    cv_.wait(lk, [this] { return pending_.load(std::memory_order_acquire) == 0; });
  }

  /// Enqueue a task on the underlying pool, counted against this group.
  void submit(std::function<void()> task) {
    pending_.fetch_add(1, std::memory_order_relaxed);
    pool_.submit([this, t = std::move(task)] {
      std::exception_ptr err;
      try {
        t();
      } catch (...) {
        err = std::current_exception();
      }
      // The decrement and notify happen under mtx_: a waiter can only see
      // pending_ == 0 (and destroy the group) once this task has released
      // the lock and stopped touching *this.
      std::lock_guard<std::mutex> lk(mtx_);
      if (err && !first_error_) first_error_ = err;
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) cv_.notify_all();
    });
  }

  /// Block until every task submitted through this group (including nested
  /// submissions) has finished. Rethrows the group's first task exception.
  void wait() {
    std::unique_lock<std::mutex> lk(mtx_);
    cv_.wait(lk, [this] { return pending_.load(std::memory_order_acquire) == 0; });
    if (first_error_) {
      std::exception_ptr err;
      std::swap(err, first_error_);
      lk.unlock();
      std::rethrow_exception(err);
    }
  }

 private:
  ThreadPool& pool_;
  std::mutex mtx_;
  std::condition_variable cv_;
  std::exception_ptr first_error_;
  std::atomic<std::size_t> pending_{0};
};

}  // namespace mfla
