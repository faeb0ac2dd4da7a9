#include "exec/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "common/clock.hpp"
#include "common/error.hpp"
#include "obs/run_trace.hpp"

namespace occm::exec {

int resolveWorkerCount(int requested) {
  if (requested > 0) {
    return requested;
  }
  if (const char* env = std::getenv("OCCM_SWEEP_WORKERS")) {
    char* end = nullptr;
    const long value = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && value > 0 && value <= 4096) {
      return static_cast<int>(value);
    }
  }
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : static_cast<int>(hardware);
}

ThreadPool::ThreadPool(ThreadPoolConfig config) {
  const int workerCount = resolveWorkerCount(config.workers);
  // Slots must exist before the first worker can touch them.
  for (int i = 0; i < workerCount; ++i) {
    slots_.emplace_back();
  }
  workers_.reserve(static_cast<std::size_t>(workerCount));
  for (int i = 0; i < workerCount; ++i) {
    workers_.emplace_back(
        [this, i] { workerLoop(static_cast<std::size_t>(i)); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  notEmpty_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  OCCM_REQUIRE_MSG(task != nullptr, "null task");
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> future = packaged.get_future();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    Entry entry{std::move(packaged), 0};
    if constexpr (obs::kCompiledIn) {
      entry.enqueueNs = steadyNowNs();
      ++submitted_;
    }
    queue_.push_back(std::move(entry));
    if constexpr (obs::kCompiledIn) {
      maxQueueDepth_ = std::max<std::uint64_t>(maxQueueDepth_, queue_.size());
    }
  }
  notEmpty_.notify_one();
  return future;
}

ThreadPoolStats ThreadPool::stats() const {
  ThreadPoolStats out;
  if constexpr (!obs::kCompiledIn) {
    return out;  // nothing was recorded; keep the documented empty shape
  }
  out.workers.reserve(slots_.size());
  for (const WorkerSlot& slot : slots_) {
    out.workers.push_back(
        {slot.tasks.load(std::memory_order_relaxed),
         slot.busyNs.load(std::memory_order_relaxed),
         slot.queueWaitNs.load(std::memory_order_relaxed)});
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  out.submitted = submitted_;
  out.maxQueueDepth = maxQueueDepth_;
  return out;
}

void ThreadPool::workerLoop(std::size_t slot) {
  while (true) {
    Entry entry;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      notEmpty_.wait(lock, [this] { return !queue_.empty() || stopping_; });
      if (queue_.empty()) {
        return;  // stopping and drained
      }
      entry = std::move(queue_.front());
      queue_.pop_front();
    }
    if constexpr (obs::kCompiledIn) {
      WorkerSlot& mine = slots_[slot];
      const std::uint64_t startNs = steadyNowNs();
      mine.queueWaitNs.fetch_add(startNs - entry.enqueueNs,
                                 std::memory_order_relaxed);
      mine.tasks.fetch_add(1, std::memory_order_relaxed);
      entry.task();  // packaged_task captures anything the task throws
      mine.busyNs.fetch_add(steadyNowNs() - startNs,
                            std::memory_order_relaxed);
    } else {
      entry.task();  // packaged_task captures anything the task throws
    }
  }
}

}  // namespace occm::exec
