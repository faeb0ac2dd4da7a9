#include "exec/distributed/coordinator.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>

#include "common/clock.hpp"
#include "common/error.hpp"
#include "exec/frame_transport.hpp"

namespace occm::exec::dist {

namespace {

/// One connected peer, wrapped in its framed transport (the injection
/// point for the chaos layer). Sends are small (the largest frame is one
/// kAssign) and pushed through a bounded retry loop, so the loop never
/// parks on a single slow peer for long.
struct Connection {
  int fd = -1;  ///< poll handle; owned by the transport
  std::unique_ptr<FrameTransport> transport;
  std::string workerId;       ///< empty until the handshake completes
  bool handshaken = false;
  std::uint64_t connectedAtMs = 0;
  std::uint64_t lastPingSentMs = 0;
  std::uint64_t pingId = 0;
  /// Tasks currently assigned on this connection (a worker runs one task
  /// at a time; duplicates via speculation go to *other* workers).
  std::vector<std::uint64_t> assigned;
  bool dead = false;  ///< marked for teardown at the end of the iteration
};

bool sendMessage(Connection& conn, const WireMessage& message) {
  if (conn.dead) {
    return false;
  }
  if (!conn.transport->sendFrame(encodeMessage(message))) {
    conn.dead = true;
    return false;
  }
  return true;
}

}  // namespace

CoordinatorReport runCoordinator(const CoordinatorConfig& config,
                                 const std::vector<JobSpec>& jobs) {
  OCCM_REQUIRE_MSG(static_cast<bool>(config.onResult),
                   "coordinator needs an onResult sink");
  CoordinatorReport report;
  int boundPort = 0;
  auto listened = listenTcp(config.host, config.port, &boundPort);
  if (!listened) {
    report.error = listened.error();
    report.degradedToLocal = true;
    return report;
  }
  const int listenFd = *listened;
  // Non-blocking accepts: the drain loop below must stop at EAGAIN, not
  // park the whole event loop inside accept(2).
  const int listenFlags = ::fcntl(listenFd, F_GETFL, 0);
  ::fcntl(listenFd, F_SETFL, listenFlags | O_NONBLOCK);
  if (config.onListening) {
    config.onListening(boundPort);
  }

  const auto start = std::chrono::steady_clock::now();
  auto nowMs = [&start]() -> std::uint64_t {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  };

  LeaseTable leases(config.lease, jobs.size());
  std::map<int, std::unique_ptr<Connection>> conns;  // by fd
  std::vector<bool> settled(jobs.size(), false);
  std::uint64_t nextConnectionId = 0;

  obs::TimeSeries* aliveGauge = nullptr;
  obs::TimeSeries* expiredGauge = nullptr;
  obs::TimeSeries* redispatchGauge = nullptr;
  obs::TimeSeries* rttGauge = nullptr;
  if (config.metrics != nullptr) {
    aliveGauge = &config.metrics->gauge("dist.workers.alive", "workers");
    expiredGauge = &config.metrics->gauge("dist.leases.expired", "leases");
    redispatchGauge = &config.metrics->gauge("dist.redispatches", "tasks");
    rttGauge = &config.metrics->gauge("dist.heartbeat.rtt_ms", "ms");
  }
  auto recordGauges = [&](std::uint64_t at) {
    if (aliveGauge != nullptr) {
      aliveGauge->record(at, static_cast<double>(leases.aliveWorkers()));
      expiredGauge->record(at,
                           static_cast<double>(leases.stats().leasesExpired));
      redispatchGauge->record(
          at, static_cast<double>(leases.stats().redispatches));
    }
  };

  auto addIncident = [&report](RunFailureKind kind, const std::string& worker,
                               const std::string& detail,
                               std::optional<std::uint64_t> taskId) {
    WorkerIncident& incident = report.incidents.emplace_back();
    incident.failure.kind = kind;
    incident.failure.attempts = 1;
    incident.failure.error = detail;
    incident.failure.worker = worker;
    incident.taskId = taskId;
  };

  auto loseWorker = [&](Connection& conn, const std::string& detail,
                        RunFailureKind kind) {
    conn.dead = true;
    const std::string name = conn.handshaken
                                 ? conn.workerId
                                 : "peer fd " + std::to_string(conn.fd);
    const std::vector<std::uint64_t> torn =
        conn.handshaken ? leases.workerLeft(conn.workerId, nowMs())
                        : std::vector<std::uint64_t>{};
    for (std::uint64_t taskId : torn) {
      addIncident(kind, name, detail, taskId);
    }
    if (torn.empty()) {
      addIncident(kind, name, detail, std::nullopt);
    }
  };

  auto tryAssign = [&](Connection& conn) {
    // One outstanding task per worker: the worker runs tasks serially and
    // keeping its queue empty is what makes lease re-dispatch meaningful.
    if (conn.dead || !conn.handshaken || !conn.assigned.empty()) {
      return;
    }
    const std::optional<std::uint64_t> taskId =
        leases.nextAssignment(conn.workerId, nowMs());
    if (!taskId.has_value()) {
      return;
    }
    WireMessage assign;
    assign.kind = WireMessage::Kind::kAssign;
    assign.job = jobs[*taskId];
    if (sendMessage(conn, assign)) {
      conn.assigned.push_back(*taskId);
    } else {
      loseWorker(conn, "send failed: " + std::string("assign"),
                 RunFailureKind::kWorkerLost);
    }
  };

  auto handleMessage = [&](Connection& conn, const WireMessage& message) {
    if (!conn.handshaken) {
      if (message.kind != WireMessage::Kind::kHello ||
          message.protocolVersion != kProtocolVersion ||
          message.workerId.empty()) {
        WireMessage reject;
        reject.kind = WireMessage::Kind::kReject;
        reject.reason =
            message.kind != WireMessage::Kind::kHello
                ? "expected hello"
                : (message.workerId.empty()
                       ? "empty worker id"
                       : "protocol version " +
                             std::to_string(message.protocolVersion) +
                             " != " + std::to_string(kProtocolVersion));
        sendMessage(conn, reject);
        loseWorker(conn, reject.reason, RunFailureKind::kHandshake);
        return;
      }
      // A reconnecting worker supersedes its old connection: the stale fd
      // (if any) will EOF on its own; membership is keyed by worker id.
      conn.workerId = message.workerId;
      conn.handshaken = true;
      ++report.workersSeen;
      leases.workerJoined(conn.workerId, nowMs());
      recordGauges(nowMs());
      WireMessage welcome;
      welcome.kind = WireMessage::Kind::kWelcome;
      sendMessage(conn, welcome);
      tryAssign(conn);
      return;
    }
    leases.heartbeat(conn.workerId, nowMs());
    switch (message.kind) {
      case WireMessage::Kind::kResult: {
        const std::uint64_t taskId = message.result.taskId;
        if (taskId >= jobs.size()) {
          loseWorker(conn, "result for unknown task id " +
                               std::to_string(taskId),
                     RunFailureKind::kFrameCorrupt);
          return;
        }
        conn.assigned.erase(
            std::remove(conn.assigned.begin(), conn.assigned.end(), taskId),
            conn.assigned.end());
        if (leases.completeTask(taskId)) {
          settled[taskId] = true;
          config.onResult(message.result);
        }
        tryAssign(conn);
        break;
      }
      case WireMessage::Kind::kPong: {
        const std::uint64_t sentNs = message.pingSentNs;
        const std::uint64_t now = steadyNowNs();
        if (rttGauge != nullptr && now >= sentNs) {
          rttGauge->record(nowMs(),
                           static_cast<double>(now - sentNs) / 1'000'000.0);
        }
        break;
      }
      case WireMessage::Kind::kHello:
        // A second hello on a live session is a protocol violation.
        loseWorker(conn, "unexpected hello on an established session",
                   RunFailureKind::kHandshake);
        break;
      default:
        // Coordinator-bound kinds only; anything else is noise from a
        // confused peer. Drop it, keep the session.
        break;
    }
  };

  bool anyWorkerEver = false;
  std::uint64_t lastWorkerPresenceMs = 0;
  for (;;) {
    const std::uint64_t now = nowMs();
    if (config.cancel.valid() && config.cancel.stopRequested()) {
      report.cancelled = true;
      break;
    }
    if (leases.drained()) {
      break;
    }
    if (!conns.empty()) {
      lastWorkerPresenceMs = now;
    }
    // Degrade to local execution when no worker has shown up within the
    // grace window — or when the whole fleet died and stayed gone for a
    // full window (otherwise unfinished leases would spin forever).
    if ((!anyWorkerEver && now >= config.graceWindowMs) ||
        (anyWorkerEver && conns.empty() &&
         now >= lastWorkerPresenceMs + config.graceWindowMs)) {
      report.degradedToLocal = true;
      break;
    }

    // Ticks: expiries and evictions, surfaced as worker-lost incidents.
    const LeaseTable::TickEvents events = leases.tick(now);
    for (const auto& [taskId, worker] : events.expired) {
      addIncident(RunFailureKind::kWorkerLost, worker, "lease expired",
                  taskId);
      // Release the task from whichever connection still holds it. A
      // worker can be live and heartbeating while the assign (or its
      // result) was lost on the wire; without this, that connection
      // stays "busy" forever, the task never re-enters assignment, and
      // the fleet wedges with pending work it will never finish. The
      // worker itself stays: if a stale result does arrive later,
      // completeTask de-duplicates it.
      for (auto& [fd, conn] : conns) {
        conn->assigned.erase(
            std::remove(conn->assigned.begin(), conn->assigned.end(),
                        taskId),
            conn->assigned.end());
      }
    }
    for (const std::string& worker : events.evictedWorkers) {
      for (auto& [fd, conn] : conns) {
        if (conn->handshaken && conn->workerId == worker) {
          conn->dead = true;
        }
      }
      addIncident(RunFailureKind::kWorkerLost, worker,
                  "heartbeat timeout; worker evicted", std::nullopt);
    }
    if (!events.expired.empty() || !events.evictedWorkers.empty()) {
      recordGauges(now);
    }

    // Handshake deadline: a socket that connects and then never
    // completes the hello (half-open peer, partitioned worker, port
    // scanner) is torn down instead of occupying a slot forever.
    if (config.handshakeTimeoutMs != 0) {
      for (auto& [fd, conn] : conns) {
        if (!conn->dead && !conn->handshaken &&
            now >= conn->connectedAtMs + config.handshakeTimeoutMs) {
          loseWorker(*conn, "handshake timeout",
                     RunFailureKind::kHandshake);
        }
      }
    }

    // Heartbeats and (re-)assignment for idle workers.
    for (auto& [fd, conn] : conns) {
      if (conn->dead || !conn->handshaken) {
        continue;
      }
      if (config.heartbeatIntervalMs != 0 &&
          now >= conn->lastPingSentMs + config.heartbeatIntervalMs) {
        WireMessage ping;
        ping.kind = WireMessage::Kind::kPing;
        ping.pingId = ++conn->pingId;
        ping.pingSentNs = steadyNowNs();
        if (sendMessage(*conn, ping)) {
          conn->lastPingSentMs = now;
        } else {
          loseWorker(*conn, "send failed: ping",
                     RunFailureKind::kWorkerLost);
        }
      }
      tryAssign(*conn);
    }

    // Reap connections marked dead above (the transport closes the fd).
    for (auto it = conns.begin(); it != conns.end();) {
      if (it->second->dead) {
        it = conns.erase(it);
        recordGauges(now);
      } else {
        ++it;
      }
    }

    // Poll timeout: the nearest of heartbeat cadence, backoff expiry,
    // grace window and a 50 ms liveness floor for cancellation.
    std::uint64_t timeout = 50;
    if (const auto eligible = leases.nextEligibleMs();
        eligible.has_value() && *eligible > now) {
      timeout = std::min(timeout, *eligible - now);
    }
    std::vector<struct pollfd> fds;
    fds.reserve(conns.size() + 1);
    fds.push_back({listenFd, POLLIN, 0});
    for (auto& [fd, conn] : conns) {
      fds.push_back({fd, POLLIN, 0});
    }
    const int rc =
        ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
               static_cast<int>(std::min<std::uint64_t>(timeout, 1'000)));
    if (rc < 0 && errno != EINTR) {
      report.error = std::string("poll: ") + std::strerror(errno);
      break;
    }
    if (rc <= 0) {
      continue;
    }

    if ((fds[0].revents & POLLIN) != 0) {
      for (;;) {
        const int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0) {
          break;
        }
        if (conns.size() >= config.maxConnections) {
          // Admission control under a reconnect storm: refuse at the
          // door so live sessions keep their poll budget. The peer sees
          // an orderly close and backs off through its own policy.
          ::close(fd);
          ++report.connectionsRefused;
          continue;
        }
        const int flags = ::fcntl(fd, F_GETFL, 0);
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
        auto conn = std::make_unique<Connection>();
        conn->fd = fd;
        conn->transport = config.transportFactory
                              ? config.transportFactory(fd, nextConnectionId++)
                              : makeSocketTransport(fd);
        conn->connectedAtMs = nowMs();
        anyWorkerEver = true;  // someone is out there; keep waiting
        conns.emplace(fd, std::move(conn));
      }
    }

    for (std::size_t i = 1; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) {
        continue;
      }
      auto it = conns.find(fds[i].fd);
      if (it == conns.end()) {
        continue;
      }
      Connection& conn = *it->second;
      // Drain the transport without blocking: recvFrame with a zero
      // timeout pops buffered frames, then reads until the socket would
      // block, returning kTimeout once nothing more is ready.
      for (;;) {
        std::string payload;
        const auto status = conn.transport->recvFrame(payload, 0);
        if (status == FrameTransport::RecvStatus::kTimeout) {
          break;
        }
        if (status == FrameTransport::RecvStatus::kClosed) {
          loseWorker(conn, "connection closed",
                     RunFailureKind::kWorkerLost);
          break;
        }
        if (status == FrameTransport::RecvStatus::kCorrupt) {
          loseWorker(conn, conn.transport->lastError(),
                     RunFailureKind::kFrameCorrupt);
          break;
        }
        if (status == FrameTransport::RecvStatus::kError) {
          loseWorker(conn, conn.transport->lastError(),
                     RunFailureKind::kWorkerLost);
          break;
        }
        auto decoded = decodeMessage(payload);
        if (!decoded) {
          loseWorker(conn, decoded.error().message(),
                     RunFailureKind::kFrameCorrupt);
          break;
        }
        handleMessage(conn, *decoded);
        if (conn.dead) {
          break;
        }
      }
    }
  }

  // Drain: cancellation tears leases down; completion/degradation just
  // says goodbye. Workers treat kShutdown as "disconnect now".
  if (report.cancelled) {
    leases.cancelAll();
  }
  WireMessage shutdown;
  shutdown.kind = WireMessage::Kind::kShutdown;
  shutdown.reason = report.cancelled ? "cancelled" : "sweep complete";
  for (auto& [fd, conn] : conns) {
    if (conn->handshaken && !conn->dead) {
      sendMessage(*conn, shutdown);
    }
  }
  conns.clear();  // transports close their fds
  ::close(listenFd);

  recordGauges(nowMs());
  for (std::uint64_t id = 0; id < settled.size(); ++id) {
    if (settled[id]) {
      report.settledTasks.push_back(id);
    }
  }
  report.stats = leases.stats();
  return report;
}

}  // namespace occm::exec::dist
