// Telemetry that is not simulated output: the event loop's hot-path
// counters on perf::RunProfile and the sweep pool's per-worker stats.
// Suite names avoid the "Obs" prefix, so the obs-disabled CI leg
// (ctest -E "ChromeTrace|Obs|...") runs them in both configurations, and
// ThreadPoolContention matches the tsan leg's ThreadPool filter.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "analysis/experiment.hpp"
#include "exec/thread_pool.hpp"
#include "obs/run_trace.hpp"
#include "topology/presets.hpp"

namespace occm::obs {
namespace {

analysis::SweepConfig smallSweep() {
  analysis::SweepConfig config;
  config.machine = topology::testUma4();
  config.workload.program = workloads::Program::kEP;
  config.workload.problemClass = workloads::ProblemClass::kS;
  config.coreCounts = {1, 2, 4};
  config.parallel.workers = 1;
  return config;
}

TEST(HotPathStats, AccountsForTheEventLoop) {
  const perf::RunProfile profile =
      analysis::runOnce(topology::testUma4(),
                        {workloads::Program::kIS,
                         workloads::ProblemClass::kS},
                        2);
  const perf::HotPathStats& hot = profile.hotPath;
  // Every pushed event is popped (the loop drains), every pop is exactly
  // one advance or issue turn, and the queue held at least the initial
  // per-core events.
  EXPECT_GT(hot.eventsPopped, 0u);
  EXPECT_EQ(hot.eventsPopped, hot.eventsPushed);
  EXPECT_EQ(hot.eventsPopped, hot.advanceTurns + hot.issueTurns);
  EXPECT_GE(hot.maxEventQueueDepth, 2u);
  EXPECT_GT(hot.issueTurns, 0u);
  // Each off-chip issue reserves at least one memory-system resource.
  EXPECT_GE(hot.controllerTicks, hot.issueTurns);
}

TEST(HotPathStats, DeterministicAcrossRuns) {
  const auto run = [] {
    return analysis::runOnce(topology::testNuma4(),
                             {workloads::Program::kCG,
                              workloads::ProblemClass::kS},
                             4);
  };
  const perf::RunProfile a = run();
  const perf::RunProfile b = run();
  EXPECT_EQ(a.hotPath.eventsPopped, b.hotPath.eventsPopped);
  EXPECT_EQ(a.hotPath.eventsPushed, b.hotPath.eventsPushed);
  EXPECT_EQ(a.hotPath.maxEventQueueDepth, b.hotPath.maxEventQueueDepth);
  EXPECT_EQ(a.hotPath.advanceTurns, b.hotPath.advanceTurns);
  EXPECT_EQ(a.hotPath.issueTurns, b.hotPath.issueTurns);
  EXPECT_EQ(a.hotPath.controllerTicks, b.hotPath.controllerTicks);
}

TEST(PoolTelemetry, SweepReportsPoolStats) {
  analysis::SweepConfig config = smallSweep();
  config.parallel.workers = 2;
  const analysis::SweepResult sweep = analysis::runSweep(config);
  ASSERT_EQ(sweep.profiles.size(), 3u);
  if constexpr (kCompiledIn) {
    ASSERT_EQ(sweep.poolStats.workers.size(), 2u);
    EXPECT_EQ(sweep.poolStats.submitted, 3u);
    EXPECT_EQ(sweep.poolStats.totalTasks(), 3u);
    EXPECT_GE(sweep.poolStats.maxQueueDepth, 1u);
    // The diagnostics line surfaces the pool without a Chrome trace.
    EXPECT_NE(sweep.diagnostics().find("pool: 3 task(s) over 2 worker(s)"),
              std::string::npos);
  } else {
    // Obs compiled out: the pool takes no clock reads and ships no stats.
    EXPECT_TRUE(sweep.poolStats.workers.empty());
  }
  // Serial sweeps never carry pool telemetry, obs on or off.
  const analysis::SweepResult serial = analysis::runSweep(smallSweep());
  EXPECT_TRUE(serial.poolStats.workers.empty());
}

TEST(PoolTelemetry, SweepStartsNoMoreWorkersThanCoreCounts) {
  // A pool larger than the pending core counts would only start idle
  // threads; the requested size still labels the sweep and its records.
  analysis::SweepConfig config = smallSweep();
  config.parallel.workers = 8;
  const analysis::SweepResult sweep = analysis::runSweep(config);
  ASSERT_EQ(sweep.profiles.size(), 3u);
  EXPECT_EQ(sweep.requestedWorkers, 8);
  if constexpr (kCompiledIn) {
    EXPECT_EQ(sweep.poolStats.workers.size(), 3u);
    EXPECT_EQ(sweep.poolStats.totalTasks(), 3u);
  }
}

TEST(PoolTelemetry, ThreadPoolStatsCountWork) {
  exec::ThreadPool pool({.workers = 2});
  for (int i = 0; i < 8; ++i) {
    pool.submit([] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }).wait();
  }
  const exec::ThreadPoolStats stats = pool.stats();
  if constexpr (kCompiledIn) {
    ASSERT_EQ(stats.workers.size(), 2u);
    EXPECT_EQ(stats.submitted, 8u);
    EXPECT_EQ(stats.totalTasks(), 8u);
    std::uint64_t busy = 0;
    for (const exec::WorkerStats& w : stats.workers) {
      busy += w.busyNs;
    }
    EXPECT_GT(busy, 0u);
    EXPECT_GE(stats.maxQueueDepth, 1u);
  } else {
    // Obs compiled out: stats() keeps the documented empty shape.
    EXPECT_TRUE(stats.workers.empty());
    EXPECT_EQ(stats.submitted, 0u);
    EXPECT_EQ(stats.totalTasks(), 0u);
  }
}

TEST(ThreadPoolContention, WorkerSlotCountsAreExactAcrossTwoWorkers) {
  // Two workers each bump their own (padded) telemetry slot per task
  // while the main thread polls stats() concurrently. Total task counts
  // must come out exact; the concurrent reads must be race-free (tsan).
  constexpr int kTasks = 2'000;
  exec::ThreadPool pool({.workers = 2});
  std::atomic<std::uint64_t> ran{0};
  std::vector<std::future<void>> futures;
  futures.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    futures.push_back(pool.submit(
        [&ran] { ran.fetch_add(1, std::memory_order_relaxed); }));
    if (i % 256 == 0) {
      // Concurrent reader: totals are allowed to lag, never to exceed.
      EXPECT_LE(pool.stats().totalTasks(), static_cast<std::uint64_t>(i) + 1);
    }
  }
  for (auto& f : futures) {
    f.get();
  }
  EXPECT_EQ(ran.load(), static_cast<std::uint64_t>(kTasks));

  const exec::ThreadPoolStats stats = pool.stats();
  if constexpr (obs::kCompiledIn) {
    EXPECT_EQ(stats.totalTasks(), static_cast<std::uint64_t>(kTasks));
    ASSERT_EQ(stats.workers.size(), 2u);
    // Both workers must have participated under sustained load — the
    // queue kept refilling, so a worker only idles if pickup is broken.
    EXPECT_EQ(stats.workers[0].tasks + stats.workers[1].tasks,
              static_cast<std::uint64_t>(kTasks));
  } else {
    EXPECT_EQ(stats.totalTasks(), 0u);  // telemetry compiled out
  }
}

}  // namespace
}  // namespace occm::obs
