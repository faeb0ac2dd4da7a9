#pragma once

// Cycle-level simulator of one multicore machine executing a pinned,
// possibly oversubscribed parallel program.
//
// Execution model (DESIGN.md, "Substitutions"):
//  - Each software thread is a trace::RefStream of operations (work cycles
//    followed by one memory access).
//  - Threads are pinned round-robin to the first n cores of the
//    fill-processor-first order and time-share a core with a quantum.
//  - Cache hits cost their level's hit latency (stall cycles); off-chip
//    misses become memory-system requests. A core blocks on a miss
//    (configurable miss-level parallelism divides the observed stall).
//  - Cores interact only through the cache/memory state, so the event loop
//    orders *memory* requests globally by time (which makes the FIFO
//    reservation model in mem:: exact) while each core's compute advances
//    asynchronously between its own misses.
//
// Counter semantics match the paper: total cycles per core = work cycles
// (operations retiring) + stall cycles (cache-hit latency, memory waits,
// context switches); idle cores accumulate nothing.
//
// Thread safety (audited for the parallel sweep engine, DESIGN.md §9):
// a MachineSim is NOT safe for concurrent run() calls — run() mutates the
// streams it is handed and builds its per-run state (cache hierarchy,
// memory system, fault engine, RNGs, observability sinks) as locals. But
// *distinct* instances share nothing: the class holds only value-typed
// configuration, the module has no static mutable state, and every RNG is
// derived from the config seed. One simulator + one workload instance per
// thread is therefore race-free and bit-deterministic.

#include <span>
#include <string>

#include "common/cancellation.hpp"
#include "common/types.hpp"
#include "fault/fault_plan.hpp"
#include "mem/memory_system.hpp"
#include "obs/run_trace.hpp"
#include "perf/run_profile.hpp"
#include "sched/affinity.hpp"
#include "topology/topology_map.hpp"
#include "trace/ref_stream.hpp"

namespace occm::sim {

struct SimConfig {
  sched::SchedConfig sched;
  mem::MemoryConfig memory;
  /// Record the 5 us LLC-miss sampler (Figure 4) into the profile.
  bool enableSampler = false;
  double samplerWindowNs = 5000.0;
  /// Observability: windowed metrics (controller utilization/queueing,
  /// per-core work/stall split, LLC-miss rate) and structured trace events
  /// (controller service spans, memory stalls, context switches), attached
  /// to the profile as `RunProfile::trace`. Off by default; when off the
  /// simulator pays one predicted branch per hook (OCCM_OBS_ENABLED=0
  /// compiles the hooks out entirely).
  obs::ObsConfig observability;
  /// Deterministic fault scenario scripted against simulated time:
  /// controller outages/degradation, core throttle windows, ECC-retry
  /// spikes and background traffic bursts (see fault::FaultPlan). The
  /// default empty plan costs one never-taken branch per event; scripted
  /// windows are recorded as RunProfile::faultEpochs and, with tracing
  /// on, as "fault"-category spans.
  fault::FaultPlan faultPlan;
  /// Maximum cycles a core may execute per event-loop turn. Cores only
  /// block on off-chip misses, so without this bound a core that stays
  /// cache-resident would run its whole thread in one turn and its cache/
  /// coherence state would never interleave with the other cores'.
  Cycles syncHorizon = 5'000;
  /// Simulated-cycle budget: the run aborts with RunAborted
  /// (AbortReason::kCycleBudget) as soon as the next event to execute is
  /// scheduled past this cycle. 0 = unlimited. Deterministic: the same
  /// budget aborts the same run at the same event everywhere.
  Cycles cycleBudget = 0;
  /// Cooperative cancellation: polled once per event-loop turn (the
  /// deterministic cancellation point); when a stop is requested the run
  /// unwinds with RunAborted (AbortReason::kCancelled). A default token
  /// never fires and costs one predictable branch per event.
  CancellationToken cancel;
  std::uint64_t seed = 7;
};

class MachineSim {
 public:
  explicit MachineSim(topology::MachineSpec spec, SimConfig config = {});

  [[nodiscard]] const topology::TopologyMap& topology() const noexcept {
    return topo_;
  }
  [[nodiscard]] const SimConfig& config() const noexcept { return config_; }

  /// Runs `streams` (one per thread; streams are reset() first) on
  /// `activeCores` cores. Each call simulates from cold caches.
  [[nodiscard]] perf::RunProfile run(
      std::span<const trace::RefStreamPtr> streams, int activeCores,
      const std::string& programName = "workload");

 private:
  topology::TopologyMap topo_;
  SimConfig config_;
};

}  // namespace occm::sim
