#pragma once

// Fixed-width little-endian wire codec shared by every exec serializer:
// the messages of the distributed coordinator/worker protocol
// (exec/distributed/protocol), which the isolation supervisor's forked
// children also speak, and the advisor service's messages. One
// implementation means one set of bounds-check semantics: every read is
// checked, counts and string lengths are capped, and the first deviation
// latches a typed IpcError naming the byte offset — never a throw, never
// UB on arbitrary bytes.

#include <cstdint>
#include <string>
#include <string_view>

#include "perf/run_profile.hpp"

namespace occm::exec {

/// Typed diagnosis of bytes that are not a valid frame or message.
struct IpcError {
  std::size_t byteOffset = 0;  ///< offset of the first deviation
  std::string detail;
  bool truncated = false;  ///< the bytes end mid-structure

  /// "corrupt ipc frame (truncated) at byte 12: ..."
  [[nodiscard]] std::string message() const;
};

}  // namespace occm::exec

namespace occm::exec::wire {

/// Caps on decoded sizes: a corrupt length must never drive a huge
/// allocation. Generous for real payloads (a 48-core machine ships a few
/// hundred counters), tight enough that a fuzzer can't balloon memory.
inline constexpr std::size_t kMaxString = std::size_t{1} << 20;
inline constexpr std::size_t kMaxCount = std::size_t{1} << 20;

void putU8(std::string& out, std::uint8_t value);
void putU32(std::string& out, std::uint32_t value);
void putU64(std::string& out, std::uint64_t value);
void putI32(std::string& out, std::int32_t value);
void putF64(std::string& out, double value);
void putString(std::string& out, const std::string& value);

/// Bounds-checked cursor over untrusted bytes. The first failed read
/// latches the error; subsequent reads return zeros so callers can decode
/// straight-line and check ok() once per structure.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] std::size_t offset() const noexcept { return pos_; }
  [[nodiscard]] IpcError error() const { return error_; }
  [[nodiscard]] bool atEnd() const noexcept { return pos_ == bytes_.size(); }

  void fail(const std::string& detail, bool truncated = false);

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32();
  double f64();
  std::string str();
  /// Element count for a vector; capped so corrupt bytes cannot reserve
  /// gigabytes.
  std::size_t count(const char* what);

 private:
  bool need(std::size_t n);

  std::string_view bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
  IpcError error_;
};

/// Serializes a full RunProfile in canonical field order. Everything but
/// RunProfile::trace: traces stay a single-process feature, so neither an
/// isolated child nor a fleet worker ships one back.
void putProfile(std::string& out, const perf::RunProfile& profile);
/// Decodes what putProfile produced; deviations latch into the Reader.
[[nodiscard]] perf::RunProfile readProfile(Reader& in);

}  // namespace occm::exec::wire
