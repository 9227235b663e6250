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

void ThreadPool::Submit(std::function<void()> task) {
  const ThreadPoolObserver* obs = PoolObserver();
  // Capture outside the lock: the hook may read thread-local trace state.
  const uint64_t context = obs != nullptr ? obs->capture_context() : 0;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    DAAKG_CHECK(!shutting_down_);
    tasks_.push(Task{std::move(task), context});
    ++in_flight_;
    if (obs != nullptr) obs->on_enqueue(tasks_.size());
  }
  cv_.notify_all();
}

bool ThreadPool::TryRunOneTask(bool from_wait) {
  const ThreadPoolObserver* obs = PoolObserver();
  Task task;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (tasks_.empty()) return false;
    task = std::move(tasks_.front());
    tasks_.pop();
    if (obs != nullptr) obs->on_dequeue(tasks_.size());
  }
  if (obs != nullptr) {
    if (from_wait) obs->on_help_drain();
    obs->task_begin(task.context);
  }
  task.fn();
  if (obs != nullptr) obs->task_end();
  {
    std::unique_lock<std::mutex> lock(mutex_);
    --in_flight_;
  }
  cv_.notify_all();
  return true;
}

void ThreadPool::Wait() {
  for (;;) {
    if (TryRunOneTask(/*from_wait=*/true)) continue;
    std::unique_lock<std::mutex> lock(mutex_);
    if (in_flight_ == 0) return;
    if (!tasks_.empty()) continue;
    cv_.wait(lock, [this] { return in_flight_ == 0 || !tasks_.empty(); });
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return shutting_down_ || !tasks_.empty(); });
      if (tasks_.empty() && shutting_down_) return;
    }
    TryRunOneTask(/*from_wait=*/false);
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

  // Each call gets its own completion group so the tail wait below tracks
  // exactly this call's shards: waiting on the global in-flight count would
  // over-wait on unrelated work (and deadlock when every worker waits).
  auto group = std::make_shared<Group>();
  size_t submitted = 0;
  for (size_t s = 1; s < shards; ++s) {
    size_t begin = s * chunk;
    size_t end = std::min(n, begin + chunk);
    if (begin >= end) break;
    ++submitted;
  }
  group->remaining = submitted;
  for (size_t s = 1; s <= submitted; ++s) {
    size_t begin = s * chunk;
    size_t end = std::min(n, begin + chunk);
    // &shard_fn stays valid: this call does not return before the group
    // completes, and the decrement runs after shard_fn.
    Submit([this, &shard_fn, group, s, begin, end] {
      shard_fn(s, begin, end);
      {
        std::unique_lock<std::mutex> lock(mutex_);
        --group->remaining;
      }
      cv_.notify_all();
    });
  }
  // The calling thread runs shard 0 itself, then help-drains queued tasks
  // (this call's shards or anyone else's) until its own group completes.
  shard_fn(0, 0, std::min(chunk, n));
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (group->remaining == 0) return;
      if (tasks_.empty()) {
        cv_.wait(lock, [this, &group] {
          return group->remaining == 0 || !tasks_.empty();
        });
        continue;
      }
    }
    TryRunOneTask(/*from_wait=*/true);
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

