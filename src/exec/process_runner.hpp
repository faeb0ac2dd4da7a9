#pragma once

// Process isolation for one unit of work: fork a child, run the work
// function there under optional resource limits, and report whatever
// happened as the same dist::TaskResult a fleet worker sends — a profile,
// a caught failure, or a hard death (signal, rlimit, nonzero exit) — so
// the caller records it without ever crashing itself.
//
// Contract highlights (DESIGN.md §11):
//  - The child runs the work exactly as the calling process would and
//    writes one WireMessage{kResult} frame (exec/frame_transport,
//    exec/distributed/protocol) to the result pipe: identical inputs
//    produce a bit-identical RunProfile — isolation changes failure
//    behavior, never results.
//  - The supervisor never blocks on a dead pipe: it polls both the result
//    and stderr pipes to EOF, feeds the result bytes to a
//    FrameReassembler, keeps a bounded stderr tail, and reaps the child
//    with waitpid. A clean exit is trusted only with exactly one valid
//    kResult frame and no leftover bytes; anything else is kCrash.
//  - A cancellation token is parent-side: tokens do not propagate across
//    fork, so the supervisor polls it and SIGKILLs the child (reported as
//    kCancelled, for the caller's timeout/cancel classification).
//  - RLIMIT_AS failures are deterministic: the child installs a
//    new-handler that writes fault::kOutOfMemoryMarker to stderr and
//    aborts, so the parent can report "address-space" instead of a bare
//    SIGABRT.

#include <cstdint>
#include <functional>
#include <string>

#include "common/cancellation.hpp"
#include "exec/distributed/protocol.hpp"
#include "perf/run_profile.hpp"

namespace occm::exec {

/// Limits applied inside the forked child before the work runs; 0 means
/// "inherit" (no limit set).
struct ResourceLimits {
  std::uint64_t memoryBytes = 0;  ///< RLIMIT_AS address-space budget
  std::uint64_t cpuSeconds = 0;   ///< RLIMIT_CPU (SIGXCPU on overrun)
};

struct ProcessRunnerConfig {
  ResourceLimits limits;
  /// Bytes of the child's stderr kept (the *tail* — the last bytes
  /// written are the ones that explain a death).
  std::size_t stderrTailBytes = 4096;
  /// Parent-side kill switch: when the token fires, the supervisor
  /// SIGKILLs the child and reports kCancelled.
  CancellationToken cancel;
};

/// True when this platform supports fork-based isolation (POSIX).
[[nodiscard]] bool processIsolationSupported() noexcept;

/// Runs `work` in a forked child under `config` and returns its result:
/// the profile, or a failure — what the child caught
/// (failureFromException), kCrash for a death (signal, rlimit and stderr
/// tail filled in) or for a child that broke the frame protocol, and
/// kCancelled when the supervisor killed it on `config.cancel`.
/// taskId and the failure's attempts/recovered are left for the caller.
/// The only throws are parent-side setup contract violations (pipe/fork
/// failure, unsupported platform).
///
/// The caller must treat `work` as running in a separate address space:
/// side effects on parent memory do not happen, and the observability
/// trace (RunProfile::trace) is not shipped back.
[[nodiscard]] dist::TaskResult runInChild(
    const std::function<perf::RunProfile()>& work,
    const ProcessRunnerConfig& config = {});

}  // namespace occm::exec
