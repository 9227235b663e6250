#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <utility>

#include "common/logging.h"

namespace daakg {

namespace {

// Relaxed is enough: the contract requires installation before pools run
// work, so there is no concurrent install/use ordering to enforce.
std::atomic<const ThreadPoolObserver*> g_pool_observer{nullptr};

const ThreadPoolObserver* PoolObserver() {
  return g_pool_observer.load(std::memory_order_relaxed);
}

}  // namespace

void SetThreadPoolObserver(const ThreadPoolObserver* observer) {
  g_pool_observer.store(observer, std::memory_order_relaxed);
}

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Enqueue(std::function<void()> fn, size_t* remaining) {
  const ThreadPoolObserver* obs = PoolObserver();
  // Capture outside the lock: the hook may read thread-local trace state.
  const uint64_t context = obs != nullptr ? obs->capture_context() : 0;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    DAAKG_CHECK(!shutting_down_);
    tasks_.push(Task{std::move(fn), remaining, context});
  }
  cv_.notify_all();
}

bool ThreadPool::TryRunOneTask() {
  const ThreadPoolObserver* obs = PoolObserver();
  Task task;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (tasks_.empty()) return false;
    task = std::move(tasks_.front());
    tasks_.pop();
  }
  if (obs != nullptr) obs->task_begin(task.context);
  task.fn();
  if (obs != nullptr) obs->task_end();
  // The task's last touch of its call's state: once the count reaches 0
  // the call may return.
  {
    std::unique_lock<std::mutex> lock(mutex_);
    --*task.remaining;
  }
  cv_.notify_all();
  return true;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return shutting_down_ || !tasks_.empty(); });
      if (tasks_.empty() && shutting_down_) return;
    }
    TryRunOneTask();
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  ParallelForShards(n, [&fn](size_t /*shard*/, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) fn(i);
  });
}

void ThreadPool::ParallelForShards(
    size_t n, const std::function<void(size_t, size_t, size_t)>& shard_fn) {
  if (n == 0) return;
  const size_t shards = std::min(n, num_threads());
  if (shards <= 1) {
    shard_fn(0, 0, n);
    return;
  }
  const size_t chunk = (n + shards - 1) / shards;

  // Each call counts its own queued shards so the tail wait below tracks
  // exactly them: waiting on all queued work would over-wait on unrelated
  // calls (and deadlock when every worker waits).
  size_t queued = 0;
  for (size_t s = 1; s < shards && s * chunk < n; ++s) ++queued;
  size_t remaining = queued;
  for (size_t s = 1; s <= queued; ++s) {
    const size_t begin = s * chunk;
    const size_t end = std::min(n, begin + chunk);
    // &shard_fn stays valid: this call does not return before every shard
    // has run.
    Enqueue([&shard_fn, s, begin, end] { shard_fn(s, begin, end); },
            &remaining);
  }
  // The calling thread runs shard 0 itself, then help-drains queued tasks
  // (this call's shards or anyone else's) until its own shards are done.
  shard_fn(0, 0, std::min(chunk, n));
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (remaining == 0) return;
      if (tasks_.empty()) {
        cv_.wait(lock, [this, &remaining] {
          return remaining == 0 || !tasks_.empty();
        });
        continue;
      }
    }
    TryRunOneTask();
  }
}

size_t ParseThreadCount(const char* value) {
  if (value == nullptr || value[0] < '0' || value[0] > '9') return 0;
  char* end = nullptr;
  errno = 0;
  const unsigned long long n = std::strtoull(value, &end, 10);
  if (errno != 0 || *end != '\0' || n == 0 || n > kMaxPoolThreads) return 0;
  return static_cast<size_t>(n);
}

ThreadPool& GlobalThreadPool() {
  static ThreadPool* pool = [] {
    const char* env = std::getenv("DAAKG_THREADS");
    const size_t threads = ParseThreadCount(env);
    if (threads == 0 && env != nullptr) {
      LOG_WARNING << "Unrecognized DAAKG_THREADS value '" << env
                  << "' (expected an integer in [1, " << kMaxPoolThreads
                  << "]); using the hardware concurrency";
    }
    return new ThreadPool(threads);
  }();
  return *pool;
}

}  // namespace daakg

