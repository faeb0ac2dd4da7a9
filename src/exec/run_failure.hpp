#pragma once

// The one outcome record of a failed sweep attempt, however it ran: in
// the sweep's own thread, in a forked isolated child, or on a fleet
// worker. The forked child and the worker put it on the wire inside
// dist::TaskResult (exec/distributed/protocol), the coordinator files its
// fleet incidents as one, and analysis merges, prints and checkpoints the
// same struct.

#include <cstdint>
#include <exception>
#include <string>

#include "common/cancellation.hpp"

namespace occm::exec {

/// How a sweep run came to fail. The first four are outcomes of the run
/// itself and the only kinds the wire codec accepts (their values are the
/// wire bytes 0-3); the last three are coordinator-local evidence about
/// the *fleet* — recorded for diagnosis, always considered recovered once
/// another dispatch of the same task settles it.
enum class RunFailureKind : std::uint8_t {
  kException,     ///< the run (or a beforeRun hook) threw
  kTimeout,       ///< per-run deadline or cycle budget fired
  kCancelled,     ///< whole-sweep cancellation observed mid-run
  kCrash,         ///< isolated child died hard: signal, rlimit, bad frame
  kWorkerLost,    ///< distributed: lease lost (death, eviction, expiry)
  kHandshake,     ///< distributed: worker failed the versioned handshake
  kFrameCorrupt,  ///< distributed: stream failed frame/message validation
};

[[nodiscard]] constexpr const char* toString(RunFailureKind kind) noexcept {
  switch (kind) {
    case RunFailureKind::kException: return "exception";
    case RunFailureKind::kTimeout: return "timeout";
    case RunFailureKind::kCancelled: return "cancelled";
    case RunFailureKind::kCrash: return "crash";
    case RunFailureKind::kWorkerLost: return "worker-lost";
    case RunFailureKind::kHandshake: return "handshake";
    case RunFailureKind::kFrameCorrupt: return "frame-corrupt";
  }
  return "unknown";
}

/// One core count that misbehaved during a sweep: either it eventually
/// recovered on a seed-perturbed retry, or it exhausted its attempts and
/// is absent from the results. The wire carries kind, attempts,
/// recovered, error and the crash evidence; cores, poolSize and worker
/// are filled in by the side that knows them.
struct RunFailure {
  int cores = 0;
  int attempts = 0;        ///< total attempts made (1 = failed first try)
  std::string error;       ///< what() of the last exception
  bool recovered = false;  ///< a retry eventually produced a profile
  /// Resolved sweep pool size when the failure was recorded (1 = serial);
  /// lets a partially-merged parallel sweep be diagnosed from its records.
  int poolSize = 1;
  /// Timeouts and cancellations are lifecycle outcomes, not retried, and
  /// never persisted to the checkpoint (a resume should re-attempt them).
  /// Crashes behave like exceptions: retried, and persisted so a resumed
  /// sweep keeps the evidence.
  RunFailureKind kind = RunFailureKind::kException;
  /// kCrash only: signal that terminated the isolated child (0 = the
  /// child exited with a nonzero status instead).
  int signal = 0;
  /// kCrash only: resource limit that explains the death —
  /// "address-space" (RLIMIT_AS) or "cpu" (RLIMIT_CPU) — or empty.
  std::string rlimit;
  /// kCrash only: bounded, printable-ASCII tail of the child's stderr.
  std::string stderrTail;
  /// Distributed kinds only: id of the worker the incident names (or
  /// "peer fd N" for a pre-handshake connection); empty otherwise.
  std::string worker;
};

/// The failure a caught exception stands for: RunAborted on the cycle
/// budget is kTimeout, any other RunAborted kCancelled, and everything
/// else kException with what(). Shared by the in-process attempt loop,
/// the forked child and the fleet worker's task thread, so all three
/// classify a throw identically.
[[nodiscard]] inline RunFailure failureFromException(std::exception_ptr error) {
  RunFailure failure;
  try {
    std::rethrow_exception(error);
  } catch (const RunAborted& aborted) {
    failure.kind = aborted.reason() == AbortReason::kCycleBudget
                       ? RunFailureKind::kTimeout
                       : RunFailureKind::kCancelled;
    failure.error = aborted.what();
  } catch (const std::exception& e) {
    failure.error = e.what();
  } catch (...) {
    failure.error = "unknown exception escaped the run";
  }
  return failure;
}

}  // namespace occm::exec
