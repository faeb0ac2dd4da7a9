// Crash-containment tests for the process isolation runner: runInChild
// ships a fully populated RunProfile back through the fork bit-exactly
// and decodes every way a child can end — clean profile, exception,
// abort, signal death (SIGKILL / SIGSEGV / abort), RLIMIT_AS exhaustion,
// a clean exit without a result frame, supervisor kill — into the same
// dist::TaskResult a fleet worker sends, without ever crashing the
// parent. The frame and message codecs themselves are covered by
// test_frame_transport and test_wire_protocol.
//
// Sanitizers change crash signatures (asan intercepts SIGSEGV and turns
// it into a nonzero exit; RLIMIT_AS fights the shadow mappings), so
// exact-signal assertions relax and the OOM test skips under them.

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.hpp"
#include "exec/process_runner.hpp"
#include "fault/crash_injection.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define OCCM_UNDER_SANITIZER 1
#endif
#if !defined(OCCM_UNDER_SANITIZER) && defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define OCCM_UNDER_SANITIZER 1
#endif
#endif
#ifndef OCCM_UNDER_SANITIZER
#define OCCM_UNDER_SANITIZER 0
#endif

namespace occm::exec {
namespace {

/// A profile with every serialized field populated with a distinctive
/// value, so a codec that drops or reorders a field cannot round-trip.
perf::RunProfile sampleProfile() {
  perf::RunProfile p;
  p.program = "CG.S";
  p.machine = "test-numa-4 \"quoted\"\n";
  p.threads = 4;
  p.activeCores = 3;
  p.counters = {101, 17, 4242, 99};
  p.perCore.push_back({11, 3, 40, 5});
  p.perCore.push_back({0, 0, 0, 0});
  p.perCore.push_back({90, 14, 4202, 94});
  p.coherenceMisses = 7;
  p.writebacks = 13;
  p.contextSwitches = 2;
  p.makespan = 98;
  mem::ControllerStats stats;
  stats.requests = 1;
  stats.writebacks = 2;
  stats.remoteRequests = 3;
  stats.rowHits = 4;
  stats.rowMisses = 5;
  stats.busyCycles = 6;
  stats.totalWait = 7;
  stats.totalService = 8;
  stats.reroutedAway = 9;
  stats.absorbed = 10;
  stats.retryAttempts = 11;
  stats.eccRetries = 12;
  stats.background = 13;
  p.controllerStats.push_back(stats);
  p.channelsPerController = 2;
  p.missWindows = {5, 0, 12};
  p.samplerWindowCycles = 13'350;
  p.faultEpochs.push_back({"controller-outage", 1, 20'000, 60'000, 1.0});
  p.faultEpochs.push_back({"ecc-spike", 0, 70'000, 90'000, 0.05});
  p.reroutedRequests = 21;
  p.faultRetries = 22;
  p.backgroundRequests = 23;
  p.throttledCycles = 24;
  return p;
}

void expectCountersEq(const perf::CounterSet& a, const perf::CounterSet& b) {
  EXPECT_EQ(a.totalCycles, b.totalCycles);
  EXPECT_EQ(a.stallCycles, b.stallCycles);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.llcMisses, b.llcMisses);
}

void expectProfilesEq(const perf::RunProfile& a, const perf::RunProfile& b) {
  EXPECT_EQ(a.program, b.program);
  EXPECT_EQ(a.machine, b.machine);
  EXPECT_EQ(a.threads, b.threads);
  EXPECT_EQ(a.activeCores, b.activeCores);
  expectCountersEq(a.counters, b.counters);
  ASSERT_EQ(a.perCore.size(), b.perCore.size());
  for (std::size_t i = 0; i < a.perCore.size(); ++i) {
    expectCountersEq(a.perCore[i], b.perCore[i]);
  }
  EXPECT_EQ(a.coherenceMisses, b.coherenceMisses);
  EXPECT_EQ(a.writebacks, b.writebacks);
  EXPECT_EQ(a.contextSwitches, b.contextSwitches);
  EXPECT_EQ(a.makespan, b.makespan);
  ASSERT_EQ(a.controllerStats.size(), b.controllerStats.size());
  for (std::size_t i = 0; i < a.controllerStats.size(); ++i) {
    const mem::ControllerStats& x = a.controllerStats[i];
    const mem::ControllerStats& y = b.controllerStats[i];
    EXPECT_EQ(x.requests, y.requests);
    EXPECT_EQ(x.writebacks, y.writebacks);
    EXPECT_EQ(x.remoteRequests, y.remoteRequests);
    EXPECT_EQ(x.rowHits, y.rowHits);
    EXPECT_EQ(x.rowMisses, y.rowMisses);
    EXPECT_EQ(x.busyCycles, y.busyCycles);
    EXPECT_EQ(x.totalWait, y.totalWait);
    EXPECT_EQ(x.totalService, y.totalService);
    EXPECT_EQ(x.reroutedAway, y.reroutedAway);
    EXPECT_EQ(x.absorbed, y.absorbed);
    EXPECT_EQ(x.retryAttempts, y.retryAttempts);
    EXPECT_EQ(x.eccRetries, y.eccRetries);
    EXPECT_EQ(x.background, y.background);
  }
  EXPECT_EQ(a.channelsPerController, b.channelsPerController);
  EXPECT_EQ(a.missWindows, b.missWindows);
  EXPECT_EQ(a.samplerWindowCycles, b.samplerWindowCycles);
  ASSERT_EQ(a.faultEpochs.size(), b.faultEpochs.size());
  for (std::size_t i = 0; i < a.faultEpochs.size(); ++i) {
    EXPECT_EQ(a.faultEpochs[i].kind, b.faultEpochs[i].kind);
    EXPECT_EQ(a.faultEpochs[i].target, b.faultEpochs[i].target);
    EXPECT_EQ(a.faultEpochs[i].start, b.faultEpochs[i].start);
    EXPECT_EQ(a.faultEpochs[i].end, b.faultEpochs[i].end);
    EXPECT_EQ(a.faultEpochs[i].magnitude, b.faultEpochs[i].magnitude);
  }
  EXPECT_EQ(a.reroutedRequests, b.reroutedRequests);
  EXPECT_EQ(a.faultRetries, b.faultRetries);
  EXPECT_EQ(a.backgroundRequests, b.backgroundRequests);
  EXPECT_EQ(a.throttledCycles, b.throttledCycles);
}

TEST(ProcessRunner, IsolationIsSupportedOnThisPlatform) {
  // The whole suite targets POSIX; if this fails, every skip below is
  // hiding a porting problem, so fail loudly instead.
  EXPECT_TRUE(processIsolationSupported());
}

TEST(ProcessRunner, ShipsProfileBackBitExact) {
  const dist::TaskResult result =
      runInChild([] { return sampleProfile(); });
  ASSERT_TRUE(result.profile.has_value())
      << result.failure.value_or(RunFailure{}).error;
  EXPECT_FALSE(result.failure.has_value());
  expectProfilesEq(*result.profile, sampleProfile());
}

TEST(ProcessRunner, PropagatesExceptionsAsData) {
  const dist::TaskResult result = runInChild([]() -> perf::RunProfile {
    throw std::runtime_error("boom in the child");
  });
  ASSERT_TRUE(result.failure.has_value());
  EXPECT_FALSE(result.profile.has_value());
  EXPECT_EQ(result.failure->kind, RunFailureKind::kException);
  EXPECT_NE(result.failure->error.find("boom in the child"),
            std::string::npos);
}

TEST(ProcessRunner, PropagatesRunAbortedAsData) {
  // A cycle-budget abort is the run overrunning its limit: kTimeout. Any
  // other abort is a cancellation.
  dist::TaskResult result = runInChild([]() -> perf::RunProfile {
    throw RunAborted(AbortReason::kCycleBudget, 4242, "over budget");
  });
  ASSERT_TRUE(result.failure.has_value());
  EXPECT_EQ(result.failure->kind, RunFailureKind::kTimeout);
  EXPECT_NE(result.failure->error.find("over budget"), std::string::npos);

  result = runInChild([]() -> perf::RunProfile {
    throw RunAborted(AbortReason::kCancelled, 7, "stop requested");
  });
  ASSERT_TRUE(result.failure.has_value());
  EXPECT_EQ(result.failure->kind, RunFailureKind::kCancelled);
  EXPECT_NE(result.failure->error.find("stop requested"), std::string::npos);
}

TEST(ProcessRunner, ReportsSigkillDeath) {
  // SIGKILL cannot be caught by any runtime (sanitizers included), so the
  // expectation holds everywhere.
  const dist::TaskResult result = runInChild([]() -> perf::RunProfile {
    std::raise(SIGKILL);
    return {};
  });
  ASSERT_TRUE(result.failure.has_value());
  EXPECT_EQ(result.failure->kind, RunFailureKind::kCrash);
  EXPECT_EQ(result.failure->signal, SIGKILL);
  EXPECT_TRUE(result.failure->rlimit.empty()) << result.failure->rlimit;
  EXPECT_NE(result.failure->error.find("SIGKILL"), std::string::npos)
      << result.failure->error;
}

TEST(ProcessRunner, ReportsSegfaultDeath) {
  const dist::TaskResult result = runInChild([]() -> perf::RunProfile {
    // Through a volatile so no compiler proves (and rejects) the trap.
    volatile int* target = nullptr;
    *target = 42;
    return {};
  });
  ASSERT_TRUE(result.failure.has_value());
  EXPECT_EQ(result.failure->kind, RunFailureKind::kCrash)
      << result.failure->error;
#if !OCCM_UNDER_SANITIZER
  EXPECT_EQ(result.failure->signal, SIGSEGV) << result.failure->error;
#endif
}

TEST(ProcessRunner, ReportsAbortDeath) {
  const dist::TaskResult result = runInChild([]() -> perf::RunProfile {
    std::fprintf(stderr, "dying on purpose\n");
    std::abort();
  });
  ASSERT_TRUE(result.failure.has_value());
  EXPECT_EQ(result.failure->kind, RunFailureKind::kCrash);
#if !OCCM_UNDER_SANITIZER
  EXPECT_EQ(result.failure->signal, SIGABRT) << result.failure->error;
#endif
  // abort() without the OOM marker must not read as a memory-budget kill.
  EXPECT_TRUE(result.failure->rlimit.empty()) << result.failure->rlimit;
  EXPECT_NE(result.failure->stderrTail.find("dying on purpose"),
            std::string::npos)
      << result.failure->stderrTail;
}

TEST(ProcessRunner, FramelessCleanExitIsACrash) {
  // A child that exits 0 without writing its result frame lies about
  // success: the supervisor must report a crash, never trust the exit.
  const dist::TaskResult result = runInChild([]() -> perf::RunProfile {
    std::fprintf(stderr, "leaving without a word\n");
    std::fflush(stderr);
    ::_exit(0);
  });
  ASSERT_TRUE(result.failure.has_value());
  EXPECT_FALSE(result.profile.has_value());
  EXPECT_EQ(result.failure->kind, RunFailureKind::kCrash)
      << result.failure->error;
  EXPECT_EQ(result.failure->signal, 0);
  EXPECT_NE(result.failure->error.find("exited cleanly"), std::string::npos)
      << result.failure->error;
  EXPECT_NE(result.failure->stderrTail.find("leaving without a word"),
            std::string::npos)
      << result.failure->stderrTail;
}

TEST(ProcessRunner, MemoryBudgetDeathIsClassifiedAsAddressSpace) {
#if OCCM_UNDER_SANITIZER
  GTEST_SKIP() << "RLIMIT_AS fights sanitizer shadow mappings";
#else
  ProcessRunnerConfig config;
  config.limits.memoryBytes = std::uint64_t{256} << 20;
  const dist::TaskResult result = runInChild(
      []() -> perf::RunProfile {
        // Touch every allocation so the address space genuinely fills.
        std::vector<char*> hoard;
        for (;;) {
          char* block = new char[8 << 20];
          std::memset(block, 0x5A, 8 << 20);
          hoard.push_back(block);
        }
      },
      config);
  ASSERT_TRUE(result.failure.has_value());
  EXPECT_EQ(result.failure->kind, RunFailureKind::kCrash)
      << result.failure->error;
  EXPECT_EQ(result.failure->rlimit, "address-space") << result.failure->error;
  EXPECT_NE(result.failure->stderrTail.find(fault::kOutOfMemoryMarker),
            std::string::npos)
      << result.failure->stderrTail;
#endif
}

TEST(ProcessRunner, StderrTailKeepsLastBytesSanitized) {
  ProcessRunnerConfig config;
  config.stderrTailBytes = 64;
  const dist::TaskResult result = runInChild(
      []() -> perf::RunProfile {
        for (int i = 0; i < 1000; ++i) {
          std::fprintf(stderr, "line %04d\n", i);
        }
        std::fprintf(stderr, "\x01\x02 the final words");
        std::fflush(stderr);
        std::abort();
      },
      config);
  ASSERT_TRUE(result.failure.has_value());
  EXPECT_EQ(result.failure->kind, RunFailureKind::kCrash);
  const std::string& tail = result.failure->stderrTail;
  EXPECT_LE(tail.size(), 64u);
  // The tail keeps the *last* bytes written...
  EXPECT_NE(tail.find("the final words"), std::string::npos) << tail;
  // ...not the first, and control bytes arrive sanitized to '.'.
  EXPECT_EQ(tail.find("line 0000"), std::string::npos);
  EXPECT_EQ(tail.find('\x01'), std::string::npos);
  EXPECT_NE(tail.find(". the final words"), std::string::npos) << tail;
}

TEST(ProcessRunner, SupervisorKillsChildWhenTokenFires) {
  CancellationSource stop;
  ProcessRunnerConfig config;
  config.cancel = stop.token();
  std::thread trigger([&stop] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    stop.requestStop();
  });
  const dist::TaskResult result = runInChild(
      []() -> perf::RunProfile {
        // Without the supervisor's SIGKILL this child would outlive any
        // reasonable test timeout.
        std::this_thread::sleep_for(std::chrono::seconds(300));
        return {};
      },
      config);
  trigger.join();
  ASSERT_TRUE(result.failure.has_value());
  // The supervisor's own kill is a cancellation, not a crash: the caller
  // decides whether a deadline made it a timeout, and a cancellation
  // carries no crash evidence.
  EXPECT_EQ(result.failure->kind, RunFailureKind::kCancelled)
      << result.failure->error;
  EXPECT_EQ(result.failure->signal, 0);
  EXPECT_TRUE(result.failure->stderrTail.empty());
}

}  // namespace
}  // namespace occm::exec
