#pragma once

// Host wall clock for telemetry and timeouts; never read by the simulated
// machine, whose time is Cycles.

#include <chrono>
#include <cstdint>

namespace occm {

/// Wall-clock nanoseconds since an arbitrary steady epoch.
[[nodiscard]] inline std::uint64_t steadyNowNs() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace occm
