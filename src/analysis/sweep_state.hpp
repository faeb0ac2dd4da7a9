#pragma once

// Failure isolation and resumability for sweep harnesses. A sweep over
// many core counts is the unit of work the whole methodology hangs on;
// one crashed or degenerate run must not throw away the survivors. This
// header holds the JSON checkpoint that lets an interrupted sweep resume
// without re-simulating completed core counts, together with the
// RunFailure records (exec/run_failure) it keeps as evidence.
//
// Checkpoint format v2 (this PR): a "version" header plus a CRC-32 per
// record, computed over a canonical field encoding, so bytes damaged at
// rest (bit rot, mid-write kill of a non-atomic copy, hand editing) are
// detected instead of silently skewing a resumed sweep. Loading is
// tolerant: truncated/garbage/version-skewed/CRC-failed files produce a
// typed CheckpointError naming the byte offset, and loadOrQuarantine
// renames the bad file to <path>.corrupt so a fresh start never fights
// the same bytes twice. Version-1 files (no header, no CRCs) still load.

#include <cstdint>
#include <string>
#include <vector>

#include "common/expected.hpp"
#include "exec/run_failure.hpp"

namespace occm::analysis {

// The failure record lives in the exec layer, below analysis, so every
// way of running an attempt fills the same struct.
using exec::RunFailure;
using exec::RunFailureKind;
using exec::toString;

/// Lightweight record of one completed run — exactly what the model fit
/// needs (cores, cycle totals), so resuming a sweep does not require the
/// full profile to have been persisted.
struct RunRecord {
  int cores = 0;
  double totalCycles = 0.0;
  double stallCycles = 0.0;
  double makespan = 0.0;
  // Everything a restored run needs to reproduce its CSV row and fault
  // counters byte-for-byte. Absent in v1 checkpoints (restored as 0).
  double llcMisses = 0.0;
  double coherenceMisses = 0.0;
  double writebacks = 0.0;
  double reroutedRequests = 0.0;
  double faultRetries = 0.0;
  double backgroundRequests = 0.0;
  double throttledCycles = 0.0;
};

/// Why a checkpoint failed to load.
enum class CheckpointErrorKind : std::uint8_t {
  kMissing,      ///< no file at the path — a fresh start, not corruption
  kIoError,      ///< the file exists but could not be read
  kTruncated,    ///< the bytes end mid-structure
  kSyntax,       ///< the bytes deviate from the format
  kVersionSkew,  ///< a format version this build does not understand
  kCrcMismatch,  ///< a record's CRC-32 does not match its fields
};

[[nodiscard]] constexpr const char* toString(CheckpointErrorKind kind) noexcept {
  switch (kind) {
    case CheckpointErrorKind::kMissing: return "missing";
    case CheckpointErrorKind::kIoError: return "io-error";
    case CheckpointErrorKind::kTruncated: return "truncated";
    case CheckpointErrorKind::kSyntax: return "syntax";
    case CheckpointErrorKind::kVersionSkew: return "version-skew";
    case CheckpointErrorKind::kCrcMismatch: return "crc-mismatch";
  }
  return "unknown";
}

/// Typed diagnosis of a checkpoint that could not be trusted.
struct CheckpointError {
  CheckpointErrorKind kind = CheckpointErrorKind::kSyntax;
  /// Byte offset of the first deviation (parse-shaped kinds only).
  std::size_t byteOffset = 0;
  std::string detail;
  /// Where loadOrQuarantine moved the bad file (empty if not quarantined).
  std::string quarantinedTo;

  /// "corrupt checkpoint (truncated) at byte 117: unexpected end ..."
  [[nodiscard]] std::string message() const;
};

/// On-disk sweep state: an identity header (so a checkpoint from a
/// different program/machine/seed is never silently reused) plus the
/// completed runs and recorded failures.
struct SweepCheckpoint {
  /// Newest format this build reads and the one it always writes.
  static constexpr int kFormatVersion = 2;

  std::string program;
  std::string machine;
  std::uint64_t seed = 0;
  int threads = 0;
  std::vector<RunRecord> runs;
  std::vector<RunFailure> failures;

  [[nodiscard]] bool matches(const std::string& programName,
                             const std::string& machineName,
                             std::uint64_t seedValue, int threadCount) const;
  /// Completed record for a core count, or nullptr.
  [[nodiscard]] const RunRecord* find(int cores) const;

  [[nodiscard]] std::string toJson() const;

  /// Parses what toJson produced (format v2, or legacy v1 without the
  /// version header and CRCs). Returns a typed error naming the byte
  /// offset of the first deviation; never throws, never UB on bad bytes.
  [[nodiscard]] static Expected<SweepCheckpoint, CheckpointError> parseChecked(
      const std::string& json);

  /// Atomic, durable write: temp file in the same directory, fsync,
  /// rename, then fsync of the containing directory — so a machine crash
  /// immediately after save() cannot roll the file back to the previous
  /// (or no) checkpoint. Returns false on I/O failure (checkpointing is
  /// best-effort; a sweep never aborts because its checkpoint could not
  /// be written).
  bool save(const std::string& path) const;

  /// Reads and parses `path` with a typed diagnosis: kMissing when the
  /// file is absent, kIoError when unreadable, parse kinds otherwise.
  [[nodiscard]] static Expected<SweepCheckpoint, CheckpointError> loadChecked(
      const std::string& path);
  /// loadChecked, plus quarantine: a file that exists but cannot be
  /// trusted (truncated/garbage/version-skew/CRC mismatch) is renamed to
  /// `path + ".corrupt"` (error.quarantinedTo names the destination) so
  /// the caller can fall back to a fresh start without re-tripping on —
  /// or silently overwriting — the evidence.
  [[nodiscard]] static Expected<SweepCheckpoint, CheckpointError>
  loadOrQuarantine(const std::string& path);
};

}  // namespace occm::analysis
