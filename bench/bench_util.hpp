#pragma once

// Shared helpers for the experiment harnesses in bench/: the paper's
// machine list, program sets and printing conventions.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/experiment.hpp"
#include "analysis/text_table.hpp"
#include "core/occm.hpp"
#include "exec/thread_pool.hpp"

namespace occm::bench {

/// Sweep pool size shared by the drivers: 0 (the default) resolves to
/// OCCM_SWEEP_WORKERS or hardware concurrency; parseBenchArgs overrides it
/// from the command line.
inline int& sweepWorkers() {
  static int workers = 0;
  return workers;
}

/// Strict argument parser of the bench drivers: accepts --workers=N and
/// --help, stores the pool size into sweepWorkers(), and *errors out*
/// (usage on stderr, exit code 2) on anything unrecognized or malformed.
inline void parseBenchArgs(int argc, char** argv) {
  const auto usage = [&](std::FILE* to) {
    std::fprintf(to,
                 "usage: %s [--workers=N]\n"
                 "  --workers=N  sweep pool size (default: OCCM_SWEEP_WORKERS "
                 "or hardware concurrency)\n",
                 argc > 0 ? argv[0] : "bench");
  };
  const auto die = [&](const std::string& why) {
    std::fprintf(stderr, "error: %s\n", why.c_str());
    usage(stderr);
    std::exit(2);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string flag = arg.substr(0, eq);
    if (flag == "--help" || flag == "-h") {
      usage(stdout);
      std::exit(0);
    } else if (flag == "--workers" && eq != std::string::npos) {
      // Positive integer; dies on garbage, zero or trailing bytes.
      const std::string digits = arg.substr(eq + 1);
      char* end = nullptr;
      const long value = std::strtol(digits.c_str(), &end, 10);
      if (digits.empty() || *end != '\0' || value < 1 || value > 1 << 20) {
        die("bad value in \"" + arg + "\" (want an integer >= 1)");
      }
      sweepWorkers() = static_cast<int>(value);
    } else if (flag == "--workers") {
      die("\"" + arg + "\" needs a value: --workers=...");
    } else {
      die("unrecognized argument \"" + arg + "\"");
    }
  }
  // On stderr so that stdout stays the same on every host and pool size.
  std::fprintf(stderr, "sweep pool size: %d\n",
               exec::resolveWorkerCount(sweepWorkers()));
}

/// The five NPB dwarfs of Table I, in the paper's row order.
inline const std::vector<workloads::Program> kDwarfs = {
    workloads::Program::kEP, workloads::Program::kIS,
    workloads::Program::kFT, workloads::Program::kCG,
    workloads::Program::kSP};

/// Large problem class per program and machine: class C, except FT.B on
/// the UMA machine (the paper: FT.C swaps on the 4 GB UMA box).
inline workloads::ProblemClass largeClassFor(workloads::Program program,
                                             const topology::MachineSpec& m) {
  if (program == workloads::Program::kFT &&
      m.memoryArchitecture == topology::MemoryArchitecture::kUma) {
    return workloads::ProblemClass::kB;
  }
  if (program == workloads::Program::kX264) {
    return workloads::ProblemClass::kNative;
  }
  return workloads::ProblemClass::kC;
}

/// Runs simulated and runs served from the sweep() cache so far.
struct RunTally {
  std::size_t simulated = 0;
  std::size_t reused = 0;
};

inline RunTally& runTally() {
  static RunTally tally;
  return tally;
}

/// Runs one (program, class, machine, cores) grid and returns the sweep.
/// Runs the core counts on the shared sweepWorkers() pool (bit-identical
/// output for any pool size).
///
/// Completed runs are cached by (machine name, program, class, sampler)
/// and core count, and a call simulates only the core counts it misses: a
/// run's profile does not depend on the other core counts of its sweep.
/// A run with a failure record is returned but not cached. `machine` must
/// be an unmodified preset, as only its name is in the key.
inline analysis::SweepResult sweep(const topology::MachineSpec& machine,
                                   workloads::Program program,
                                   workloads::ProblemClass cls,
                                   std::vector<int> coreCounts,
                                   bool sampler = false) {
  using Key = std::tuple<std::string, workloads::Program,
                         workloads::ProblemClass, bool>;
  static std::map<Key, std::map<int, perf::RunProfile>> cache;
  std::map<int, perf::RunProfile>& done =
      cache[Key{machine.name, program, cls, sampler}];

  analysis::SweepConfig config;
  config.machine = machine;
  config.workload.program = program;
  config.workload.problemClass = cls;
  config.sim.enableSampler = sampler;
  config.parallel.workers = sweepWorkers();
  for (int n : coreCounts) {
    if (!done.contains(n)) {
      config.coreCounts.push_back(n);
    }
  }
  runTally().simulated += config.coreCounts.size();
  runTally().reused += coreCounts.size() - config.coreCounts.size();

  analysis::SweepResult result;
  if (!config.coreCounts.empty()) {  // runSweep reads empty as 1..max
    result = analysis::runSweep(config);
  }
  for (perf::RunProfile& p : result.profiles) {
    done.emplace(p.activeCores, std::move(p));
  }
  result.profiles.clear();
  for (int n : coreCounts) {
    if (const auto it = done.find(n); it != done.end()) {
      result.profiles.push_back(it->second);
    }
  }
  for (const auto& failure : result.failures) {
    done.erase(failure.cores);  // returned above, but not kept
  }
  result.requestedWorkers = exec::resolveWorkerCount(sweepWorkers());
  result.requestedCoreCounts = std::move(coreCounts);
  return result;
}

/// All core counts 1..max for a machine.
inline std::vector<int> allCores(const topology::MachineSpec& machine) {
  std::vector<int> counts;
  for (int n = 1; n <= machine.logicalCores(); ++n) {
    counts.push_back(n);
  }
  return counts;
}

/// Observability column group shared by the experiment drivers: the
/// per-controller snapshot (busiest-controller utilization, aggregate
/// row-hit ratio, request-weighted mean queue wait) that pairs the
/// paper's cycle counters with the memory-system view.
inline std::vector<std::string> obsHeader() {
  return {"util", "row-hit", "wait [cyc]"};
}

inline std::vector<std::string> obsRow(const perf::RunProfile& p) {
  double util = 0.0;
  for (std::size_t i = 0; i < p.controllerStats.size(); ++i) {
    util = std::max(util, p.controllerUtilization(i));
  }
  double rowHit = 0.0;
  double wait = 0.0;
  std::uint64_t requests = 0;
  for (const mem::ControllerStats& c : p.controllerStats) {
    rowHit += c.rowHitRatio() * static_cast<double>(c.requests);
    wait += c.meanWait() * static_cast<double>(c.requests);
    requests += c.requests;
  }
  const double denom = requests == 0 ? 1.0 : static_cast<double>(requests);
  return {analysis::fmt(100.0 * util, 1) + "%",
          analysis::fmt(100.0 * rowHit / denom, 1) + "%",
          analysis::fmt(wait / denom, 1)};
}

/// Appends the obs column group to a header/row cell list.
inline std::vector<std::string> withObs(std::vector<std::string> cells,
                                        std::vector<std::string> obsCells) {
  for (std::string& cell : obsCells) {
    cells.push_back(std::move(cell));
  }
  return cells;
}

inline void printHeading(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

}  // namespace occm::bench
