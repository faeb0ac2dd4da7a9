#pragma once

// Test-side summary of a reference stream, used to characterise the
// workload generators: reference counts, working set (distinct cache
// lines), the most frequent address strides and the shared-data fraction.

#include <algorithm>
#include <cstdint>
#include <map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "trace/address_space.hpp"
#include "trace/ref_stream.hpp"

namespace occm::workloads {

struct StreamStats {
  std::uint64_t refs = 0;
  std::uint64_t writes = 0;
  std::uint64_t instructions = 0;
  Cycles workCycles = 0;
  std::uint64_t distinctLines = 0;  ///< 64-byte lines touched
  std::uint64_t sharedRefs = 0;     ///< refs into AddressSpace's shared area
  /// Successive-address deltas in bytes: the 32 most frequent, with counts.
  std::map<std::int64_t, std::uint64_t> strides;

  [[nodiscard]] Bytes workingSetBytes() const noexcept {
    return distinctLines * 64;
  }
  [[nodiscard]] double writeFraction() const noexcept {
    return refs == 0 ? 0.0 : static_cast<double>(writes) /
                                 static_cast<double>(refs);
  }
  [[nodiscard]] double sharedFraction() const noexcept {
    return refs == 0 ? 0.0 : static_cast<double>(sharedRefs) /
                                 static_cast<double>(refs);
  }
  /// Mean work cycles between consecutive memory references.
  [[nodiscard]] double workPerRef() const noexcept {
    return refs == 0 ? 0.0 : static_cast<double>(workCycles) /
                                 static_cast<double>(refs);
  }
};

/// Drains up to `maxRefs` operations from the stream and summarises them.
/// The stream is left wherever draining stopped (call reset() to reuse).
inline StreamStats streamStats(trace::RefStream& stream,
                               std::uint64_t maxRefs) {
  StreamStats stats;
  std::unordered_set<Addr> lines;
  std::map<std::int64_t, std::uint64_t> strides;
  trace::Op op;
  bool havePrev = false;
  Addr prev = 0;
  while (stats.refs < maxRefs && stream.next(op)) {
    ++stats.refs;
    stats.writes += op.write ? 1u : 0u;
    stats.instructions += op.instructions;
    stats.workCycles += op.work;
    stats.sharedRefs += trace::AddressSpace::isShared(op.addr) ? 1u : 0u;
    lines.insert(op.addr / 64);
    if (havePrev) {
      ++strides[static_cast<std::int64_t>(op.addr) -
                static_cast<std::int64_t>(prev)];
    }
    prev = op.addr;
    havePrev = true;
  }
  stats.distinctLines = lines.size();
  std::vector<std::pair<std::int64_t, std::uint64_t>> sorted(strides.begin(),
                                                             strides.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  sorted.resize(std::min<std::size_t>(sorted.size(), 32));
  stats.strides.insert(sorted.begin(), sorted.end());
  return stats;
}

}  // namespace occm::workloads
