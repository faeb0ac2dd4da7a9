// Executor unit tests: lifecycle edge cases, per-task exception capture,
// drain-on-destroy and a multi-producer stress run.

#include "exec/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace occm::exec {
namespace {

TEST(ThreadPool, ZeroTasksConstructsAndDestructsCleanly) {
  ThreadPool pool({.workers = 4});
  EXPECT_EQ(pool.workers(), 4);
  // Destructor joins idle workers without a task ever being submitted.
}

TEST(ThreadPool, SingleWorkerRunsEveryTaskInSubmissionOrder) {
  ThreadPool pool({.workers = 1});
  std::vector<int> order;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 16; ++i) {
    // One worker => tasks serialize; `order` needs no synchronization
    // beyond the future joins below.
    futures.push_back(pool.submit([&order, i] { order.push_back(i); }));
  }
  for (auto& f : futures) {
    f.get();
  }
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(ThreadPool, TaskExceptionPropagatesThroughFuture) {
  ThreadPool pool({.workers = 2});
  std::future<void> bad =
      pool.submit([] { throw std::runtime_error("task boom"); });
  std::future<void> good = pool.submit([] {});
  try {
    bad.get();
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task boom");
  }
  // A throwing task must not take its worker down with it.
  EXPECT_NO_THROW(good.get());
  EXPECT_NO_THROW(pool.submit([] {}).get());
}

TEST(ThreadPool, MultiProducerStressRunsEveryTaskExactlyOnce) {
  constexpr int kProducers = 4;
  constexpr int kTasksPerProducer = 500;
  ThreadPool pool({.workers = 3});
  std::atomic<int> ran{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&pool, &ran] {
      std::vector<std::future<void>> futures;
      futures.reserve(kTasksPerProducer);
      for (int i = 0; i < kTasksPerProducer; ++i) {
        futures.push_back(pool.submit(
            [&ran] { ran.fetch_add(1, std::memory_order_relaxed); }));
      }
      for (auto& f : futures) {
        f.get();
      }
    });
  }
  for (std::thread& producer : producers) {
    producer.join();
  }
  EXPECT_EQ(ran.load(), kProducers * kTasksPerProducer);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futures;
  {
    ThreadPool pool({.workers = 1});
    for (int i = 0; i < 64; ++i) {
      futures.push_back(pool.submit(
          [&ran] { ran.fetch_add(1, std::memory_order_relaxed); }));
    }
    // Destroyed with most tasks still queued: every one must still run.
  }
  EXPECT_EQ(ran.load(), 64);
  for (auto& f : futures) {
    EXPECT_NO_THROW(f.get());
  }
}

TEST(ThreadPool, NullTaskIsAContractViolation) {
  ThreadPool pool({.workers = 1});
  EXPECT_THROW((void)pool.submit(nullptr), ContractViolation);
}

TEST(ResolveWorkerCount, PositiveRequestPassesThrough) {
  EXPECT_EQ(resolveWorkerCount(3), 3);
  EXPECT_EQ(resolveWorkerCount(1), 1);
}

TEST(ResolveWorkerCount, ZeroFallsBackToEnvThenHardware) {
  const char* saved = std::getenv("OCCM_SWEEP_WORKERS");
  const std::string savedValue = saved != nullptr ? saved : "";

  ::setenv("OCCM_SWEEP_WORKERS", "5", 1);
  EXPECT_EQ(resolveWorkerCount(0), 5);
  EXPECT_EQ(resolveWorkerCount(-1), 5);
  EXPECT_EQ(resolveWorkerCount(2), 2);  // explicit request still wins

  // Garbage and out-of-range values are ignored.
  ::setenv("OCCM_SWEEP_WORKERS", "banana", 1);
  EXPECT_GE(resolveWorkerCount(0), 1);
  ::setenv("OCCM_SWEEP_WORKERS", "0", 1);
  EXPECT_GE(resolveWorkerCount(0), 1);
  ::setenv("OCCM_SWEEP_WORKERS", "-4", 1);
  EXPECT_GE(resolveWorkerCount(0), 1);

  ::unsetenv("OCCM_SWEEP_WORKERS");
  EXPECT_GE(resolveWorkerCount(0), 1);  // hardware concurrency, min 1

  if (saved != nullptr) {
    ::setenv("OCCM_SWEEP_WORKERS", savedValue.c_str(), 1);
  }
}

}  // namespace
}  // namespace occm::exec
