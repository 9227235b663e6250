#ifndef DAAKG_COMMON_THREAD_POOL_H_
#define DAAKG_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
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
// pool (install a static). capture_context runs on the enqueuing thread,
// outside the pool mutex; its return value is handed to task_begin on the
// executing thread just before the task body runs, and task_end runs right
// after — these bracket every task and may keep thread-local state.
struct ThreadPoolObserver {
  // Captures an opaque enqueue-side context (e.g. the current trace span
  // id).
  uint64_t (*capture_context)();
  // Brackets task execution on the running thread.
  void (*task_begin)(uint64_t context);
  void (*task_end)();
};

// Installs the process-wide observer (nullptr uninstalls). Not synchronized
// with in-flight tasks: install once at startup, before pools run work.
void SetThreadPoolObserver(const ThreadPoolObserver* observer);

// Fixed-size fork-join worker pool for data-parallel loops.
//
// ParallelFor / ParallelForShards may be called concurrently and may be
// nested: each call counts its own queued shards, and the calling thread,
// once its own shard is done, help-drains queued tasks instead of parking,
// so waiting from inside a pool task can neither deadlock nor block on
// unrelated work of other callers.
class ThreadPool {
 public:
  // Creates `num_threads` workers (>= 1). Pass 0 to use the hardware
  // concurrency.
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  // Runs fn(i) for i in [0, n), partitioned into contiguous shards across
  // the pool, and blocks until done. fn must be safe to call concurrently
  // for distinct i. The calling thread also participates.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  // Like ParallelFor but hands each worker a contiguous [begin, end) range,
  // letting callers hoist per-shard state. shard_fn(shard_index, begin, end).
  // Shard 0 runs on the calling thread; the others are queued tasks.
  void ParallelForShards(
      size_t n,
      const std::function<void(size_t, size_t, size_t)>& shard_fn);

 private:
  // One queued shard: its body, the count of its ParallelForShards call's
  // shards still queued or running (on that call's stack, guarded by
  // mutex_), and the observer context captured at Enqueue time.
  struct Task {
    std::function<void()> fn;
    size_t* remaining = nullptr;
    uint64_t context = 0;
  };

  void Enqueue(std::function<void()> fn, size_t* remaining);
  void WorkerLoop();
  // Runs one queued task (any task, not necessarily the caller's). Returns
  // false if the queue was empty.
  bool TryRunOneTask();

  std::vector<std::thread> workers_;
  std::queue<Task> tasks_;
  std::mutex mutex_;
  // Single condition variable for every wake-up source: task enqueue,
  // group completion, and shutdown. Waiters re-check their own predicate,
  // so sharing one cv trades a few spurious wake-ups for the impossibility
  // of a lost wake-up across the two waiter kinds (workers, group waits).
  std::condition_variable cv_;
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
