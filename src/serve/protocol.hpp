#pragma once

// Wire protocol of the capacity-advisor service: the request/response
// pair clients and the advisor server exchange over framed TCP (the same
// length-prefixed CRC-32 frames as the distributed fleet, reassembled by
// exec/frame_transport; fixed-width little-endian fields through
// exec/wire_codec).
//
// The response carries the server's overload decisions as typed enums,
// never as prose: a shed names its reason (queue-full / deadline-
// infeasible / draining / bad-request), a degraded answer names what
// tripped the downgrade (queue depth, deadline slack, tier-1 latency
// EWMA, a deadline that expired mid-refinement). Clients that retry or
// back off branch on the enums; the strings are diagnostics only.
//
// Every decode is bounds-checked through exec::wire::Reader — arbitrary
// bytes produce a typed IpcError, never a throw — and accepted payloads
// are re-encode fixed points (fuzz/fuzz_serve_message.cpp).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/expected.hpp"
#include "exec/wire_codec.hpp"

namespace occm::serve {

/// Bumped on any incompatible message/codec change; the server rejects a
/// mismatched request version as kBadRequest before doing any work.
inline constexpr std::uint32_t kServeProtocolVersion = 1;

/// Client's tier preference. kAuto lets the server pick (and degrade);
/// kTier0 asks for the analytic answer only (never queued, never
/// degraded-flagged); kTier1 insists on simulator refinement — the server
/// still sheds or degrades it under overload, it just never *chooses*
/// tier 0 for headroom reasons when the ladder is healthy.
enum class TierPreference : std::uint8_t {
  kAuto = 0,
  kTier0 = 1,
  kTier1 = 2,
};

/// One capacity query: "how will workload W scale on topology T over
/// cores [coreMin, coreMax]?".
struct AdvisorRequest {
  std::uint32_t protocolVersion = kServeProtocolVersion;
  std::uint64_t requestId = 0;  ///< echoed verbatim; client's routing key
  std::string program;          ///< "SP", "CG", ... (workloads::Program)
  std::string problemClass;     ///< "S", "C", ... (workloads::ProblemClass)
  std::string machine;          ///< topology preset token ("intel-numa24")
  std::int32_t coreMin = 0;     ///< 0 = 1
  std::int32_t coreMax = 0;     ///< 0 = machine's total cores
  /// Per-request deadline in milliseconds; 0 = none. Carried into a
  /// cancellation token on the server: tier-1 work past the deadline is
  /// cancelled at the simulator's event-loop boundary, never abandoned.
  std::uint32_t deadlineMs = 0;
  TierPreference tier = TierPreference::kAuto;
  /// Efficiency threshold for the advice row (SpeedupAdvice).
  double efficiencyThreshold = 0.5;
};

/// How a request was ultimately answered.
enum class ResponseStatus : std::uint8_t {
  kOk = 0,    ///< rows + advice are valid
  kShed = 1,  ///< admission control refused it (see shedReason)
  kError = 2, ///< accepted but unanswerable (fit failure, ...); see error
};

/// Typed admission-control rejections (ResponseStatus::kShed).
enum class ShedReason : std::uint8_t {
  kNone = 0,
  kQueueFull = 1,           ///< admission queue at capacity
  kDeadlineInfeasible = 2,  ///< deadline expired/too tight to even start
  kDraining = 3,            ///< server is draining (SIGTERM)
  kBadRequest = 4,          ///< malformed: unknown workload/machine/range
};

/// Why an answer was served from tier 0 when tier 1 was wanted.
enum class DegradeReason : std::uint8_t {
  kNone = 0,
  kQueueDepth = 1,     ///< admission queue depth crossed the threshold
  kDeadlineSlack = 2,  ///< deadline slack below the tier-1 floor
  kTier1Latency = 3,   ///< tier-1 latency EWMA crossed the threshold
  kDeadlineMiss = 4,   ///< the tier-1 path (fit or refinement) missed the
                       ///< deadline mid-flight; tier-0 fallback answer
};

[[nodiscard]] constexpr const char* toString(ShedReason reason) noexcept {
  switch (reason) {
    case ShedReason::kNone: return "none";
    case ShedReason::kQueueFull: return "queue-full";
    case ShedReason::kDeadlineInfeasible: return "deadline-infeasible";
    case ShedReason::kDraining: return "draining";
    case ShedReason::kBadRequest: return "bad-request";
  }
  return "unknown";
}

[[nodiscard]] constexpr const char* toString(DegradeReason reason) noexcept {
  switch (reason) {
    case DegradeReason::kNone: return "none";
    case DegradeReason::kQueueDepth: return "queue-depth";
    case DegradeReason::kDeadlineSlack: return "deadline-slack";
    case DegradeReason::kTier1Latency: return "tier1-latency";
    case DegradeReason::kDeadlineMiss: return "deadline-miss";
  }
  return "unknown";
}

/// One per-core-count prediction row. Tier 0 rows are pure model
/// predictions; tier 1 rows carry measured cycles where the refinement
/// sweep completed that core count (measured == true).
struct AdvisorRow {
  std::int32_t cores = 0;
  double cycles = 0.0;      ///< C(n), predicted or measured
  double omega = 0.0;       ///< degree of contention vs C(1)
  double speedup = 0.0;
  double efficiency = 0.0;
  bool measured = false;    ///< tier-1 simulator ground truth
};

struct AdvisorResponse {
  std::uint64_t requestId = 0;
  ResponseStatus status = ResponseStatus::kOk;
  ShedReason shedReason = ShedReason::kNone;
  /// 0 = analytic (fitted model), 1 = simulator-refined.
  std::uint8_t tier = 0;
  /// True when the server answered below the client's preference; the
  /// reason names the threshold that tripped.
  bool degraded = false;
  DegradeReason degradeReason = DegradeReason::kNone;
  bool cacheHit = false;  ///< fitted model came from the warm LRU cache
  /// Admission-queue depth observed at admission (load feedback for
  /// client-side backoff).
  std::uint32_t queueDepth = 0;
  std::vector<AdvisorRow> rows;
  // SpeedupAdvice summary.
  std::int32_t bestCores = 1;
  double bestSpeedup = 1.0;
  std::int32_t efficientCores = 1;
  std::string error;  ///< kShed/kError diagnostics (human-readable)
};

/// A serve frame payload in either direction, tagged by kind.
struct ServeMessage {
  enum class Kind : std::uint8_t {
    kRequest = 1,
    kResponse = 2,
  };
  Kind kind = Kind::kRequest;
  AdvisorRequest request;    ///< kRequest
  AdvisorResponse response;  ///< kResponse
};

/// Serializes one message (frame payload only; the transport frames it).
[[nodiscard]] std::string encodeServeMessage(const ServeMessage& message);

/// Decodes what encodeServeMessage produced. Every field is bounds-checked
/// and every enum range-validated; arbitrary bytes yield a typed IpcError.
[[nodiscard]] Expected<ServeMessage, exec::IpcError> decodeServeMessage(
    std::string_view payload);

}  // namespace occm::serve
