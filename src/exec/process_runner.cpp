#include "exec/process_runner.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define OCCM_HAS_FORK 1
#else
#define OCCM_HAS_FORK 0
#endif

#if OCCM_HAS_FORK
#include <poll.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <new>
#include <optional>
#include <thread>

#include "common/error.hpp"
#include "common/expected.hpp"
#include "exec/frame_transport.hpp"
#include "fault/crash_injection.hpp"

namespace occm::exec {

bool processIsolationSupported() noexcept { return OCCM_HAS_FORK != 0; }

#if OCCM_HAS_FORK

namespace {

/// Supervisor poll cadence while the child runs. Bounds how stale the
/// cancellation token can get before the SIGKILL lands.
constexpr int kPollMillis = 20;

/// new-handler installed in the child under a memory budget: allocation
/// failure must read as "the budget killed it", not as a generic
/// exception a retry might clear. Async-signal-shaped on purpose — plain
/// write(2) then abort; allocation has already failed, so nothing here
/// may allocate.
void oomAbortHandler() {
  const char prefix[] = "occm: allocation failed: ";
  // Failed writes change nothing about the abort; the marker is
  // best-effort diagnosis.
  ssize_t ignored = ::write(STDERR_FILENO, prefix, sizeof prefix - 1);
  ignored = ::write(STDERR_FILENO, fault::kOutOfMemoryMarker,
                    std::strlen(fault::kOutOfMemoryMarker));
  ignored = ::write(STDERR_FILENO, "\n", 1);
  static_cast<void>(ignored);
  std::abort();
}

void applyLimit(int resource, std::uint64_t value) {
  if (value == 0) {
    return;
  }
  struct rlimit limit;
  limit.rlim_cur = static_cast<rlim_t>(value);
  limit.rlim_max = static_cast<rlim_t>(value);
  // Best-effort: a host that refuses the limit still runs the work, just
  // unbudgeted (the supervisor's classification only triggers on death).
  ::setrlimit(resource, &limit);
}

/// Child side: apply limits, run the work, frame the result, _exit.
/// Never returns to the caller's stack; _exit (not exit) skips atexit
/// handlers and parent-inherited stdio flushes.
[[noreturn]] void childMain(int resultFd,
                            const std::function<perf::RunProfile()>& work,
                            const ResourceLimits& limits) {
  applyLimit(RLIMIT_AS, limits.memoryBytes);
  applyLimit(RLIMIT_CPU, limits.cpuSeconds);
  if (limits.memoryBytes > 0) {
    std::set_new_handler(oomAbortHandler);
  }
  dist::WireMessage message;
  message.kind = dist::WireMessage::Kind::kResult;
  try {
    message.result.profile = work();
  } catch (...) {
    message.result.failure = failureFromException(std::current_exception());
  }
  // A failed write leaves a clean exit without a frame, which the
  // supervisor reports as a crash; there is nothing else to do here.
  static_cast<void>(sendAllBytes(
      resultFd, encodeFrame(dist::encodeMessage(message)), /*isSocket=*/false));
  ::close(resultFd);
  ::_exit(0);
}

/// Non-printable bytes in a crash tail (sanitizer hex dumps, torn UTF-8)
/// become '.' so the tail embeds safely in JSON checkpoints and CSV.
std::string sanitizeTail(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '\n' || c == '\t' || (byte >= 0x20 && byte < 0x7F)) {
      out.push_back(c);
    } else {
      out.push_back('.');
    }
  }
  return out;
}

const char* signalName(int sig) {
  switch (sig) {
    case SIGABRT: return "SIGABRT";
    case SIGSEGV: return "SIGSEGV";
    case SIGBUS: return "SIGBUS";
    case SIGKILL: return "SIGKILL";
    case SIGTERM: return "SIGTERM";
    case SIGINT: return "SIGINT";
    case SIGXCPU: return "SIGXCPU";
    case SIGFPE: return "SIGFPE";
    case SIGILL: return "SIGILL";
    default: return "signal";
  }
}

/// The result a cleanly exited child framed: exactly one valid kResult
/// frame holding a profile or a failure, and nothing after it. The error
/// says how the child broke that protocol.
Expected<dist::TaskResult, std::string> framedResult(
    const FrameReassembler& reassembler,
    const std::optional<std::string>& payload, bool extraFrame) {
  if (reassembler.corrupt()) {
    return makeUnexpected("its result frame is invalid: " +
                          reassembler.error().message());
  }
  if (!payload.has_value()) {
    return makeUnexpected(std::string(reassembler.buffered() == 0
                                          ? "it wrote no result frame"
                                          : "its result frame is truncated"));
  }
  if (extraFrame || reassembler.buffered() != 0) {
    return makeUnexpected(
        std::string("it wrote bytes after its result frame"));
  }
  auto message = dist::decodeMessage(*payload);
  if (!message) {
    return makeUnexpected("its result message is invalid: " +
                          message.error().message());
  }
  if (message->kind != dist::WireMessage::Kind::kResult ||
      message->result.profile.has_value() ==
          message->result.failure.has_value()) {
    return makeUnexpected(
        std::string("its frame is not a profile-or-failure result"));
  }
  return std::move(message->result);
}

}  // namespace

dist::TaskResult runInChild(const std::function<perf::RunProfile()>& work,
                            const ProcessRunnerConfig& config) {
  OCCM_REQUIRE_MSG(static_cast<bool>(work),
                   "runInChild needs a work function");
  int resultPipe[2];
  int errPipe[2];
  OCCM_REQUIRE_MSG(::pipe(resultPipe) == 0,
                   "pipe() failed for the isolation result channel");
  if (::pipe(errPipe) != 0) {
    ::close(resultPipe[0]);
    ::close(resultPipe[1]);
    throw ContractViolation("pipe() failed for the isolation stderr channel");
  }
  // fork() duplicates only the calling thread. The child runs the work
  // single-threaded and _exits, so inherited locks and pool state in
  // other threads never matter; glibc's atfork handlers keep malloc
  // usable in the child.
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(resultPipe[0]);
    ::close(resultPipe[1]);
    ::close(errPipe[0]);
    ::close(errPipe[1]);
    throw ContractViolation("fork() failed for the isolated attempt");
  }
  if (pid == 0) {
    ::close(resultPipe[0]);
    ::close(errPipe[0]);
    // The child's stderr *is* the capture channel; whatever the run (or
    // its death throes — sanitizer reports, abort messages) writes lands
    // in the supervisor's bounded tail.
    ::dup2(errPipe[1], STDERR_FILENO);
    ::close(errPipe[1]);
    childMain(resultPipe[1], work, config.limits);
  }

  ::close(resultPipe[1]);
  ::close(errPipe[1]);

  // The result pipe carries one frame. Bytes keep draining to EOF even
  // after the reassembler poisons or a second frame shows up, so the child
  // never blocks on a full pipe; they are simply no longer buffered.
  FrameReassembler reassembler;
  std::optional<std::string> payload;
  bool extraFrame = false;
  std::string tail;
  bool killedByUs = false;
  bool resultOpen = true;
  bool errOpen = true;

  auto killChild = [&] {
    if (!killedByUs) {
      ::kill(pid, SIGKILL);
      killedByUs = true;
    }
  };

  char buffer[4096];
  while (resultOpen || errOpen) {
    if (config.cancel.stopRequested()) {
      killChild();
    }
    struct pollfd fds[2];
    nfds_t count = 0;
    int resultIndex = -1;
    int errIndex = -1;
    if (resultOpen) {
      fds[count].fd = resultPipe[0];
      fds[count].events = POLLIN;
      fds[count].revents = 0;
      resultIndex = static_cast<int>(count++);
    }
    if (errOpen) {
      fds[count].fd = errPipe[0];
      fds[count].events = POLLIN;
      fds[count].revents = 0;
      errIndex = static_cast<int>(count++);
    }
    const int ready = ::poll(fds, count, kPollMillis);
    if (ready < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;
    }
    if (ready == 0) {
      continue;
    }
    auto drain = [&](int index, bool* open, bool isResult) {
      if (index < 0 ||
          (fds[index].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        return;
      }
      const int fd = fds[index].fd;
      const ssize_t n = ::read(fd, buffer, sizeof buffer);
      if (n > 0) {
        const auto got = static_cast<std::size_t>(n);
        if (isResult) {
          if (!extraFrame &&
              reassembler.feed(std::string_view(buffer, got))) {
            while (std::optional<std::string> frame = reassembler.next()) {
              if (payload.has_value()) {
                extraFrame = true;
              } else {
                payload = std::move(frame);
              }
            }
          }
        } else {
          tail.append(buffer, got);
          if (tail.size() > config.stderrTailBytes) {
            tail.erase(0, tail.size() - config.stderrTailBytes);
          }
        }
        return;
      }
      if (n == 0 || errno != EINTR) {
        *open = false;
      }
    };
    drain(resultIndex, &resultOpen, /*isResult=*/true);
    drain(errIndex, &errOpen, /*isResult=*/false);
  }
  ::close(resultPipe[0]);
  ::close(errPipe[0]);

  // Both pipes are at EOF, so the child is exiting (or already dead);
  // WNOHANG keeps the supervisor responsive to a late cancellation in
  // the window where a pathological child closed its fds but lingers.
  int status = 0;
  for (;;) {
    const pid_t reaped = ::waitpid(pid, &status, WNOHANG);
    if (reaped == pid) {
      break;
    }
    if (reaped < 0 && errno != EINTR) {
      break;  // nothing left to reap (ECHILD); decode what we have
    }
    if (config.cancel.stopRequested()) {
      killChild();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(kPollMillis));
  }

  dist::TaskResult result;
  RunFailure& failure = result.failure.emplace();
  const bool exited = WIFEXITED(status);
  const bool signalled = WIFSIGNALED(status);
  const int exitCode = exited ? WEXITSTATUS(status) : -1;
  const int deathSignal = signalled ? WTERMSIG(status) : 0;

  if (exited && exitCode == 0) {
    // Clean exit: the frame is authoritative — if the child kept the
    // protocol. A child that lies about success is a crash, never trusted.
    auto framed = framedResult(reassembler, payload, extraFrame);
    if (framed) {
      return std::move(*framed);
    }
    failure.kind = RunFailureKind::kCrash;
    failure.stderrTail = sanitizeTail(tail);
    failure.error = "child exited cleanly but " + framed.error();
    return result;
  }

  if (killedByUs) {
    failure.kind = RunFailureKind::kCancelled;
    failure.error = "isolated run killed by the supervisor "
                    "(cancellation or deadline)";
    return result;
  }

  failure.kind = RunFailureKind::kCrash;
  failure.signal = deathSignal;
  failure.stderrTail = sanitizeTail(tail);
  if (deathSignal == SIGXCPU) {
    failure.rlimit = "cpu";
  } else if (failure.stderrTail.find(fault::kOutOfMemoryMarker) !=
             std::string::npos) {
    failure.rlimit = "address-space";
  }
  if (signalled) {
    failure.error = "child terminated by signal " +
                    std::to_string(deathSignal) + " (" +
                    signalName(deathSignal) + ")";
  } else {
    failure.error = "child exited with status " + std::to_string(exitCode);
  }
  if (!failure.rlimit.empty()) {
    failure.error += " after exceeding its " + failure.rlimit + " limit";
  }
  return result;
}

#else  // !OCCM_HAS_FORK

dist::TaskResult runInChild(
    const std::function<perf::RunProfile()>& /*work*/,
    const ProcessRunnerConfig& /*config*/) {
  throw ContractViolation(
      "process isolation (fork) is not supported on this platform");
}

#endif

}  // namespace occm::exec
