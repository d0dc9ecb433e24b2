// A fixed-size worker pool plus a caller-participating ParallelFor. Built
// for the EVE synchronization fan-out: one capability change yields N
// independent per-view synchronizations that share read-only state (the
// SyncContext) and write disjoint result slots.

#ifndef EVE_COMMON_THREAD_POOL_H_
#define EVE_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <vector>

namespace eve {

// Fixed set of worker threads running tasks in submission order (one FIFO
// queue). Submit wakes the worker that went idle last: idle workers wait
// on a stack, each on its own condition variable, so a sequential stream
// (submit, wait for the result, submit again) stays on one warm thread
// instead of waking a different sleeping CPU for every task. Tasks must
// not throw: an exception escaping a task is a bug, and the pool reports
// the task's provenance label on stderr before the process terminates, so
// the crash is attributable instead of an anonymous std::terminate.
//
// Shutdown semantics are explicit: Shutdown(/*drain=*/true) finishes every
// queued task first; Shutdown(false) discards tasks that have not started
// (the running ones always complete) and counts them. Destruction is
// Shutdown(false) — callers that need completion must track it themselves
// (ParallelFor below does).
class ThreadPool {
 public:
  // Workers are named "<name_prefix>-<i>" via pthread_setname_np (e.g.
  // "eve-wrk-3"), so TSan reports, perf profiles and gdb thread listings
  // attribute a stack to its pool instead of an anonymous "eve_cvs"
  // thread. Kernel thread names cap at 15 characters; longer prefixes are
  // truncated from the left of the index, never dropped entirely.
  explicit ThreadPool(size_t num_threads,
                      std::string name_prefix = "eve-wrk");
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  // `label` names the task in the escaped-exception report; keep it short
  // and stable (e.g. the submitting subsystem).
  void Submit(std::function<void()> task, std::string label = std::string());

  // Stops the pool and joins every worker. With drain=true the queue is
  // emptied by execution; with drain=false unstarted tasks are discarded.
  // Returns the number of tasks discarded by THIS call; idempotent (a
  // second call returns 0 and the first call's mode wins).
  size_t Shutdown(bool drain);

  // Total tasks discarded without running, over the pool's lifetime.
  size_t discarded_tasks() const;

  // Workers parked waiting for a task.
  size_t idle_workers() const;

 private:
  struct Task {
    std::function<void()> fn;
    std::string label;
  };
  // One worker thread and the condition variable it parks on while its
  // index is on idle_.
  struct Worker {
    std::thread thread;
    std::condition_variable wake;
    bool woken = false;  // guarded by mu_: Submit popped it off idle_
  };

  void WorkerLoop(size_t index);
  // Runs `task`, reporting its label before rethrowing any escaping
  // exception (which then terminates the process).
  static void RunTask(Task task);

  mutable std::mutex mu_;
  std::queue<Task> tasks_;
  // Indices of the parked workers; the back went idle last and is the
  // next one Submit wakes.
  std::vector<size_t> idle_;
  bool shutdown_ = false;
  bool drain_on_shutdown_ = false;
  size_t discarded_ = 0;
  // Built whole before any thread starts, never resized after.
  std::vector<std::unique_ptr<Worker>> workers_;
};

// Runs fn(0), ..., fn(n-1), distributing indices over the pool's workers
// with the calling thread participating, and returns once every call has
// finished. Safe for concurrent callers on one pool: each invocation owns
// its completion state. With a null pool (or n <= 1) it degenerates to a
// plain sequential loop on the calling thread — callers need no special
// single-threaded path. `fn` must not throw.
void ParallelFor(ThreadPool* pool, size_t n,
                 std::function<void(size_t)> fn);

// The number of CPUs the calling process may run on: its scheduler
// affinity mask, or std::thread::hardware_concurrency() where the mask is
// unavailable. Never 0.
size_t AvailableCpus();

}  // namespace eve

#endif  // EVE_COMMON_THREAD_POOL_H_
