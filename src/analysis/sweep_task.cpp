#include "analysis/sweep_task.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "exec/process_runner.hpp"

namespace occm::analysis {

namespace {

namespace dist = exec::dist;

/// Disarms the slot's deadline on every exit path of one attempt.
class ArmedDeadline {
 public:
  ArmedDeadline(Watchdog& watchdog, std::size_t slot)
      : watchdog_(watchdog), slot_(slot) {
    watchdog_.arm(slot_);
  }
  ~ArmedDeadline() { watchdog_.disarm(slot_); }
  ArmedDeadline(const ArmedDeadline&) = delete;
  ArmedDeadline& operator=(const ArmedDeadline&) = delete;

 private:
  Watchdog& watchdog_;
  std::size_t slot_;
};

/// Runs one attempt, in-process or in a forked child, and reports it the
/// way a fleet worker would: the profile, or the failure it ended in.
dist::TaskResult runAttempt(const RunTaskContext& context, int cores,
                            int attempt, Watchdog& watchdog,
                            std::size_t slot) {
  try {
    // The deadline covers the whole attempt, beforeRun included — a
    // hook that hangs is exactly the overrun the watchdog exists for.
    const ArmedDeadline deadline(watchdog, slot);
    if (context.beforeRun) {
      context.beforeRun(cores, attempt);
    }
    sim::SimConfig simConfig = *context.sim;
    // Retry under a perturbed seed: if the failure was input-shaped
    // (a pathological arrival pattern), a different deterministic
    // stream can clear it; attempt 0 keeps the configured seed.
    constexpr std::uint64_t kSeedStep = 0x9E3779B97F4A7C15ULL;
    simConfig.seed =
        context.sim->seed + static_cast<std::uint64_t>(attempt) * kSeedStep;
    simConfig.cycleBudget = context.cycleBudget;
    // A fresh instance per attempt (not a shared reset one): building
    // from the same spec seed yields bit-identical streams, and private
    // streams are what lets tasks run concurrently at all.
    auto simulate = [&context, &simConfig, cores] {
      workloads::WorkloadInstance instance =
          workloads::makeWorkload(*context.workload);
      sim::MachineSim simulator(*context.machine, simConfig);
      return simulator.run(instance.threads, cores, instance.name);
    };
    if (context.isolation.enabled) {
      // Isolated attempt: the child rebuilds the workload and simulator
      // from the same seeds (bit-identical inputs, bit-identical
      // profile); the parent-side token cannot cross the fork, so the
      // supervisor polls it and SIGKILLs the child instead of the
      // simulator unwinding cooperatively. The deterministic cycle
      // budget still aborts inside the child.
      exec::ProcessRunnerConfig runnerConfig;
      runnerConfig.limits.memoryBytes = context.isolation.memoryBytes;
      runnerConfig.limits.cpuSeconds = context.isolation.cpuSeconds;
      runnerConfig.stderrTailBytes = context.isolation.stderrTailBytes;
      if (watchdog.active()) {
        runnerConfig.cancel = watchdog.tokenFor(slot);
      }
      return exec::runInChild(simulate, runnerConfig);
    }
    if (watchdog.active()) {
      simConfig.cancel = watchdog.tokenFor(slot);
    }
    dist::TaskResult result;
    result.profile = simulate();
    return result;
  } catch (...) {
    dist::TaskResult result;
    result.failure = exec::failureFromException(std::current_exception());
    return result;
  }
}

/// Applies the retry policy to one failed attempt's record. Crashes and
/// exceptions are retried under the next seed; timeouts and cancellations
/// end the task (a timed-out run would time out again, and a cancelled
/// sweep wants to wind down). A cycle budget and a fired wall deadline
/// are both "overran its limits"; everything else a cancellation carried
/// is the sweep-wide stop. Crash evidence (signal, rlimit, stderr tail)
/// survives only on a crash record. Returns true when the task ends.
bool settleFailure(RunFailure& failure, bool timedOut) {
  if (failure.kind != RunFailureKind::kCrash) {
    failure.signal = 0;
    failure.rlimit.clear();
    failure.stderrTail.clear();
  }
  if (failure.kind == RunFailureKind::kCrash ||
      failure.kind == RunFailureKind::kException) {
    return false;
  }
  failure.kind = failure.kind == RunFailureKind::kTimeout || timedOut
                     ? RunFailureKind::kTimeout
                     : RunFailureKind::kCancelled;
  return true;
}

}  // namespace

Watchdog::Watchdog(double wallSeconds, CancellationToken sweepToken,
                   std::size_t slotCount)
    : wallSeconds_(wallSeconds), sweepToken_(std::move(sweepToken)),
      slots_(slotCount),
      active_(wallSeconds > 0.0 || sweepToken_.valid()) {
  if (active_) {
    thread_ = std::thread([this] { loop(); });
  }
}

Watchdog::~Watchdog() {
  if (thread_.joinable()) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
}

void Watchdog::arm(std::size_t slot) {
  if (wallSeconds_ <= 0.0) {
    return;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  slots_[slot].deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(wallSeconds_));
}

void Watchdog::disarm(std::size_t slot) {
  if (wallSeconds_ <= 0.0) {
    return;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  slots_[slot].deadline.reset();
}

void Watchdog::loop() {
  // Poll fast enough to bound deadline overshoot to a fraction of the
  // deadline itself, but never busier than 1 kHz.
  using std::chrono::milliseconds;
  const auto poll =
      wallSeconds_ > 0.0
          ? std::clamp(milliseconds(static_cast<long>(
                           wallSeconds_ * 1000.0 / 4.0)),
                       milliseconds(1), milliseconds(20))
          : milliseconds(5);
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_) {
    cv_.wait_for(lock, poll, [this] { return stop_; });
    if (stop_) {
      return;
    }
    const bool sweepStop = sweepToken_.stopRequested();
    const auto now = std::chrono::steady_clock::now();
    for (Slot& slot : slots_) {
      if (sweepStop) {
        slot.source.requestStop();
      }
      if (slot.deadline.has_value() && now >= *slot.deadline) {
        slot.timedOut.store(true, std::memory_order_relaxed);
        slot.source.requestStop();
        slot.deadline.reset();
      }
    }
  }
}

RunRecord makeRunRecord(const perf::RunProfile& profile, int cores) {
  return RunRecord{cores,
                   profile.totalCyclesD(),
                   static_cast<double>(profile.counters.stallCycles),
                   static_cast<double>(profile.makespan),
                   static_cast<double>(profile.counters.llcMisses),
                   static_cast<double>(profile.coherenceMisses),
                   static_cast<double>(profile.writebacks),
                   static_cast<double>(profile.reroutedRequests),
                   static_cast<double>(profile.faultRetries),
                   static_cast<double>(profile.backgroundRequests),
                   static_cast<double>(profile.throttledCycles)};
}

std::optional<TaskOutcome> restoredOutcome(const SweepCheckpoint& restoredState,
                                           int cores) {
  const RunRecord* record = restoredState.find(cores);
  if (record == nullptr) {
    return std::nullopt;
  }
  // Restored run: everything the CSV exporter and the determinism
  // fingerprint read, so a resumed sweep is byte-identical to an
  // uninterrupted one.
  TaskOutcome outcome;
  perf::RunProfile profile;
  profile.program = restoredState.program;
  profile.machine = restoredState.machine;
  profile.threads = restoredState.threads;
  profile.activeCores = cores;
  profile.counters.totalCycles = static_cast<Cycles>(record->totalCycles);
  profile.counters.stallCycles = static_cast<Cycles>(record->stallCycles);
  profile.counters.llcMisses = static_cast<std::uint64_t>(record->llcMisses);
  profile.coherenceMisses =
      static_cast<std::uint64_t>(record->coherenceMisses);
  profile.writebacks = static_cast<std::uint64_t>(record->writebacks);
  profile.reroutedRequests =
      static_cast<std::uint64_t>(record->reroutedRequests);
  profile.faultRetries = static_cast<std::uint64_t>(record->faultRetries);
  profile.backgroundRequests =
      static_cast<std::uint64_t>(record->backgroundRequests);
  profile.throttledCycles = static_cast<Cycles>(record->throttledCycles);
  profile.makespan = static_cast<Cycles>(record->makespan);
  outcome.profile = std::move(profile);
  outcome.restored = true;
  return outcome;
}

TaskOutcome runCoreCountTask(const RunTaskContext& context, int cores,
                             Watchdog& watchdog, std::size_t slot) {
  TaskOutcome outcome;
  if (context.sweepCancel.stopRequested()) {
    // Graceful stop before the first attempt: stay pending (a resume
    // re-attempts this core count), record nothing.
    outcome.skipped = true;
    return outcome;
  }
  std::optional<RunFailure>& failure = outcome.failure;
  int attempts = 0;
  while (attempts < context.maxAttempts) {
    dist::TaskResult result =
        runAttempt(context, cores, attempts++, watchdog, slot);
    if (result.profile.has_value()) {
      outcome.profile = std::move(result.profile);
      if (failure.has_value()) {
        failure->recovered = true;
      }
      break;
    }
    failure = std::move(result.failure);
    bool ended = settleFailure(*failure, watchdog.timedOut(slot));
    if (!ended && context.sweepCancel.stopRequested()) {
      // Stop requested between attempts: don't burn retries on a sweep
      // that is winding down.
      failure->kind = RunFailureKind::kCancelled;
      ended = settleFailure(*failure, watchdog.timedOut(slot));
    }
    if (ended) {
      break;
    }
  }
  if (failure.has_value()) {
    failure->cores = cores;
    failure->attempts = attempts;
    failure->poolSize = context.poolSize;
  }
  return outcome;
}

}  // namespace occm::analysis
