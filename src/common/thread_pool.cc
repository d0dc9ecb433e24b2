#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <iostream>
#include <memory>
#include <utility>

#include "common/failpoint.h"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace eve {

namespace {

// Applies "<prefix>-<index>" as the calling thread's kernel name. Linux
// caps thread names at 15 characters + NUL; the index digits are the
// discriminating part, so the prefix is what gets truncated.
void NameCurrentThread(const std::string& prefix, size_t index) {
#if defined(__linux__)
  const std::string digits = std::to_string(index);
  constexpr size_t kMax = 15;
  std::string name;
  if (prefix.size() + 1 + digits.size() <= kMax) {
    name = prefix + "-" + digits;
  } else if (digits.size() + 1 < kMax) {
    name = prefix.substr(0, kMax - digits.size() - 1) + "-" + digits;
  } else {
    name = digits.substr(0, kMax);
  }
  pthread_setname_np(pthread_self(), name.c_str());
#else
  (void)prefix;
  (void)index;
#endif
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads, std::string name_prefix) {
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  for (size_t i = 0; i < num_threads; ++i) {
    workers_[i]->thread = std::thread([this, i, name_prefix] {
      NameCurrentThread(name_prefix, i);
      WorkerLoop(i);
    });
  }
}

ThreadPool::~ThreadPool() { Shutdown(/*drain=*/false); }

void ThreadPool::Submit(std::function<void()> task, std::string label) {
  Worker* wake = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      // Late submission against a stopping pool: never run, count it as
      // discarded rather than dropping it silently.
      ++discarded_;
      return;
    }
    tasks_.push(Task{std::move(task), std::move(label)});
    if (!idle_.empty()) {
      wake = workers_[idle_.back()].get();
      idle_.pop_back();
      wake->woken = true;
    }
  }
  // With no worker parked every one is running, and each takes the queue's
  // front before it parks again.
  if (wake != nullptr) wake->wake.notify_one();
}

size_t ThreadPool::Shutdown(bool drain) {
  size_t discarded = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!shutdown_) {
      shutdown_ = true;
      drain_on_shutdown_ = drain;
    }
    if (!drain_on_shutdown_) {
      discarded = tasks_.size();
      discarded_ += discarded;
      while (!tasks_.empty()) tasks_.pop();
    }
  }
  for (const std::unique_ptr<Worker>& worker : workers_) {
    worker->wake.notify_all();
  }
  for (const std::unique_ptr<Worker>& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  return discarded;
}

size_t ThreadPool::discarded_tasks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return discarded_;
}

void ThreadPool::RunTask(Task task) {
  try {
    task.fn();
  } catch (const SimulatedCrash& crash) {
    std::cerr << "ThreadPool task "
              << (task.label.empty() ? "<unlabeled>" : task.label)
              << " escaped a SimulatedCrash at failpoint " << crash.site()
              << "; tasks must park injected crashes, not rethrow them"
              << std::endl;
    throw;  // escapes the worker thread: std::terminate
  } catch (const std::exception& e) {
    std::cerr << "ThreadPool task "
              << (task.label.empty() ? "<unlabeled>" : task.label)
              << " terminated with uncaught exception: " << e.what()
              << std::endl;
    throw;
  } catch (...) {
    std::cerr << "ThreadPool task "
              << (task.label.empty() ? "<unlabeled>" : task.label)
              << " terminated with an uncaught non-std exception"
              << std::endl;
    throw;
  }
}

size_t ThreadPool::idle_workers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return idle_.size();
}

void ThreadPool::WorkerLoop(size_t index) {
  Worker& self = *workers_[index];
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    if (!tasks_.empty()) {
      Task task = std::move(tasks_.front());
      tasks_.pop();
      lock.unlock();
      RunTask(std::move(task));
      lock.lock();
      continue;
    }
    // On drain shutdown the queue empties by execution; on discard
    // shutdown it was cleared under the lock, so both modes exit here.
    if (shutdown_) return;
    self.woken = false;
    idle_.push_back(index);
    self.wake.wait(lock, [&] { return self.woken || shutdown_; });
  }
}

void ParallelFor(ThreadPool* pool, size_t n, std::function<void(size_t)> fn) {
  if (n == 0) return;
  if (pool == nullptr || pool->num_threads() == 0 || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Per-call state: workers may still be draining (and finding the range
  // exhausted) after the caller returns, so everything they touch —
  // including the callable — lives behind a shared_ptr.
  struct State {
    State(size_t total, std::function<void(size_t)> fn)
        : total(total), fn(std::move(fn)) {}
    const size_t total;
    const std::function<void(size_t)> fn;
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    std::mutex mu;
    std::condition_variable cv;
  };
  auto state = std::make_shared<State>(n, std::move(fn));

  const auto drain = [](const std::shared_ptr<State>& s) {
    while (true) {
      const size_t i = s->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= s->total) return;
      s->fn(i);
      if (s->done.fetch_add(1, std::memory_order_acq_rel) + 1 == s->total) {
        std::lock_guard<std::mutex> lock(s->mu);
        s->cv.notify_all();
      }
    }
  };

  const size_t helpers = std::min(pool->num_threads(), n - 1);
  for (size_t i = 0; i < helpers; ++i) {
    pool->Submit([state, drain] { drain(state); }, "parallel_for");
  }
  drain(state);

  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&] {
    return state->done.load(std::memory_order_acquire) == state->total;
  });
}

size_t AvailableCpus() {
#if defined(__linux__)
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    const int count = CPU_COUNT(&mask);
    if (count > 0) return static_cast<size_t>(count);
  }
#endif
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

}  // namespace eve
