#ifndef DAAKG_COMMON_THREAD_POOL_H_
#define DAAKG_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace daakg {

// Optional instrumentation hooks for every ThreadPool in the process.
// `common/` cannot depend on `obs/`, so the observability layer installs a
// table of plain function pointers instead of calling it directly
// (`obs/trace.cc` does so from a static initializer).
//
// Contract: all pointers must be non-null; the table must outlive every
// pool (install a static). on_enqueue/on_dequeue run under the pool mutex
// and must not touch the pool. capture_context runs on the submitting
// thread, outside the pool mutex; its return value is handed to task_begin
// on the executing thread just before the task body runs, and task_end runs
// right after — these bracket every task and may keep thread-local state.
struct ThreadPoolObserver {
  // Captures an opaque submit-side context (e.g. the current trace span id).
  uint64_t (*capture_context)();
  // Brackets task execution on the running thread.
  void (*task_begin)(uint64_t context);
  void (*task_end)();
  // Queue-depth samples, taken under the pool mutex right after a push/pop.
  void (*on_enqueue)(size_t queue_depth);
  void (*on_dequeue)(size_t queue_depth);
  // A thread that would otherwise block in Wait()/ParallelForShards ran a
  // queued task instead.
  void (*on_help_drain)();
};

// Installs the process-wide observer (nullptr uninstalls). Not synchronized
// with in-flight tasks: install once at startup, before pools run work.
void SetThreadPoolObserver(const ThreadPoolObserver* observer);

// Fixed-size worker pool for data-parallel loops. Tasks are plain
// std::function<void()>; Wait() blocks until the queue drains and all
// in-flight tasks finish.
//
// Thread-safe for concurrent Submit from multiple producers. ParallelFor /
// ParallelForShards may be nested: each call tracks its own shards through a
// per-call completion group, and a thread that waits (Wait() or the tail of
// a ParallelForShards) help-drains queued tasks instead of parking, so
// waiting from inside a pool task can neither deadlock nor block on
// unrelated work submitted by other callers.
class ThreadPool {
 public:
  // Creates `num_threads` workers (>= 1). Pass 0 to use the hardware
  // concurrency.
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  // Enqueues a task for execution.
  void Submit(std::function<void()> task);

  // Blocks until every submitted task has completed, executing queued tasks
  // on the calling thread while it waits.
  void Wait();

  // Runs fn(i) for i in [0, n), partitioned into contiguous shards across
  // the pool, and blocks until done. fn must be safe to call concurrently
  // for distinct i. The calling thread also participates.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  // Like ParallelFor but hands each worker a contiguous [begin, end) range,
  // letting callers hoist per-shard state. shard_fn(shard_index, begin, end).
  void ParallelForShards(
      size_t n,
      const std::function<void(size_t, size_t, size_t)>& shard_fn);

 private:
  // Completion state of one ParallelForShards call: the number of its
  // shards still queued or running. Guarded by mutex_; shared_ptr so a
  // shard finishing after the call returns (impossible today, but cheap to
  // make safe) cannot dangle.
  struct Group {
    size_t remaining = 0;
  };

  // One queued task plus the observer context captured at Submit time.
  struct Task {
    std::function<void()> fn;
    uint64_t context = 0;
  };

  void WorkerLoop();
  // Runs one queued task (any task, not necessarily the caller's) with
  // in-flight bookkeeping. Returns false if the queue was empty.
  // `from_wait` marks help-draining callers (Wait / ParallelForShards tails)
  // as opposed to dedicated workers, for the observer only.
  bool TryRunOneTask(bool from_wait);

  std::vector<std::thread> workers_;
  std::queue<Task> tasks_;
  std::mutex mutex_;
  // Single condition variable for every wake-up source: task submission,
  // task completion, group completion, and shutdown. Waiters re-check their
  // own predicate, so sharing one cv trades a few spurious wake-ups for the
  // impossibility of a lost wake-up across the three waiter kinds (workers,
  // Wait(), group waits).
  std::condition_variable cv_;
  size_t in_flight_ = 0;
  bool shutting_down_ = false;
};

// Largest worker count ParseThreadCount accepts.
inline constexpr size_t kMaxPoolThreads = 256;

// Parses a DAAKG_THREADS value: a decimal integer in [1, kMaxPoolThreads]
// yields that count; anything else (null, empty, signs, trailing text,
// zero, too large) yields 0.
size_t ParseThreadCount(const char* value);

// Returns a lazily constructed process-wide pool. Its size is read once, at
// first use, from DAAKG_THREADS (see ParseThreadCount); when that is unset
// or invalid (invalid values log a warning) the pool is sized to the
// hardware concurrency.
ThreadPool& GlobalThreadPool();

}  // namespace daakg

#endif  // DAAKG_COMMON_THREAD_POOL_H_
