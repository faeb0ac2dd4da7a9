// occm_perfbench: the repository benchmark program (see README.md here).
//
// One invocation measures one workload — a program on a paper machine over
// a set of active-core counts — exactly the way a user regenerates a
// figure: build the workload, run the active-core sweep through
// analysis::runSweep, run one serial MachineSim::run at the top core count,
// fit model::ContentionModel at the paper's fit cores and check it with
// model::validate. Every simulated run is checked (run failures, sweep
// fingerprint, serial profile == pooled profile) and counted.
//
// Two modes, never mixed:
//  --trace 0  end-to-end metrics, untraced (the numbers claims rest on);
//  --trace 1  per-layer metrics, each layer timed from outside through its
//             public entry point, with spans kept in memory and written
//             out when the run ends. It reports its own overhead.
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/csv.hpp"
#include "analysis/experiment.hpp"
#include "cache/hierarchy.hpp"
#include "common/crc32.hpp"
#include "core/contention_model.hpp"
#include "mem/memory_system.hpp"
#include "sched/affinity.hpp"
#include "sim/machine_sim.hpp"
#include "topology/presets.hpp"
#include "topology/topology_map.hpp"
#include "trace/ref_stream.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace occm;
using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Seeds and workloads

/// Default --seed: WorkloadSpec's default seed, so an invocation without
/// --seed reproduces the repository's stock output.
constexpr std::uint64_t kDefaultSeed = 2011;
/// SimConfig::seed = seed ^ kSimSeedMask, which maps the default seed onto
/// SimConfig's default seed (7). The selftest pins both defaults.
constexpr std::uint64_t kSimSeedMask = kDefaultSeed ^ 7;

struct Workload {
  std::string name;
  topology::MachineSpec (*machine)();
  workloads::Program program;
  workloads::ProblemClass problemClass;
  /// Active-core counts of the sweep: the paper's fit inputs plus
  /// validation points. The last one is the top core count.
  std::vector<int> cores;
  /// crc32(sweepToCsv) of the sweep at kDefaultSeed. A change that is
  /// meant only to speed the simulator up must leave it unchanged.
  std::uint32_t goldenCrc;
  /// omega(n_max) from the paper's Table II (EXPERIMENTS.md); NaN when
  /// the paper has no value for this program, class and machine.
  double paperOmega;
};

// Why each workload was chosen is recorded in README.md. cg-c-numa24 runs by
// hand but is left out of BENCHMARK.json: its few, long samples per run
// spread too widely on a noisy host to gate changes.
const std::vector<Workload>& workloadTable() {
  static const std::vector<Workload> table = {
      {"cg-c-numa24", topology::intelNuma24, workloads::Program::kCG,
       workloads::ProblemClass::kC, {1, 2, 6, 12, 13, 18, 24}, 0x940b2af6u,
       3.31},
      {"ep-c-numa24", topology::intelNuma24, workloads::Program::kEP,
       workloads::ProblemClass::kC, {1, 2, 12, 13, 24}, 0xeadf7050u, 0.54},
      {"sp-b-amd48", topology::amdNuma48, workloads::Program::kSP,
       workloads::ProblemClass::kB, {1, 2, 12, 13, 24, 25, 37, 48}, 0x0f8dda2bu,
       std::nan("")},
  };
  return table;
}

/// Small stand-in the selftest runs in seconds (not a benchmark workload).
Workload selftestWorkload() {
  return {"selftest-cg-s", topology::intelNuma24, workloads::Program::kCG,
          workloads::ProblemClass::kS, {1, 2, 12, 13, 24}, 0x69098c2fu,
          std::nan("")};
}

// ---------------------------------------------------------------------------
// Metrics

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
};

const std::vector<MetricDef>& endToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"sweep_wall_s", "s", "lower"},
      {"sim_mips", "MIPS", "higher"},
      {"setup_s", "s", "lower"},
      {"peak_rss_mb", "MiB", "lower"},
      {"fit_err_pct", "%", "lower"},
  };
  return defs;
}

const std::vector<MetricDef>& perLayerMetrics() {
  static const std::vector<MetricDef> defs = {
      {"workloads.ops", "count", "lower"},
      {"workloads.build_s", "s", "lower"},
      {"workloads.next_ns", "ns", "lower"},
      {"workloads.drain_ns", "ns", "lower"},
      {"cache.access_ns", "ns", "lower"},
      {"cache.accesses", "count", "lower"},
      {"cache.l1_hit_ratio", "ratio", "higher"},
      {"cache.llc_misses", "count", "lower"},
      {"cache.coherence_misses", "count", "lower"},
      {"cache.writebacks", "count", "lower"},
      {"mem.request_ns", "ns", "lower"},
      {"mem.requests", "count", "lower"},
      {"mem.reservation_ops", "count", "lower"},
      {"mem.remote_share", "ratio", "lower"},
      {"mem.row_hit_ratio", "ratio", "higher"},
      {"mem.wait_cycles_per_req", "cycles", "lower"},
      {"mem.max_util", "ratio", "lower"},
      {"sim.run_s", "s", "lower"},
      {"sim.events_popped", "count", "lower"},
      {"sim.max_queue_depth", "count", "lower"},
      {"sim.context_switches", "count", "lower"},
      {"sim.ns_per_event", "ns", "lower"},
      {"sim.rest_s", "s", "lower"},
      {"sim.stall_share", "ratio", "lower"},
      {"exec.busy_s", "s", "lower"},
      {"exec.queue_wait_s", "s", "lower"},
      {"exec.efficiency", "ratio", "higher"},
      {"sweep.attempts", "count", "lower"},
      {"sweep.longest_run_share", "ratio", "lower"},
      {"core.fit_us", "us", "lower"},
      {"trace.clock_ns", "ns", "lower"},
      {"trace.overhead_pct", "%", "lower"},
  };
  return defs;
}

bool validMetricName(const std::string& name) {
  static const std::regex pattern("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  return std::regex_match(name, pattern);
}

bool validUnit(const std::string& unit) {
  static const std::regex pattern("[A-Za-z0-9_/%.-]{1,16}");
  return std::regex_match(unit, pattern);
}

// ---------------------------------------------------------------------------
// Statistics

double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    throw std::logic_error("quantile of an empty sample");
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Prints a timed sample: median, sample count and every value.
void printSample(const char* what, const std::vector<double>& v,
                 const char* unit) {
  std::printf("sample %s: median %.6g %s, n = %zu, values", what, median(v),
              unit, v.size());
  for (double x : v) {
    std::printf(" %.6g", x);
  }
  std::printf("\n");
}

// ---------------------------------------------------------------------------
// Correctness accounting: every simulated run is one operation.

class Ledger {
 public:
  void attempt(std::uint64_t runs = 1) { attempted_ += runs; }

  /// Records `runs` failed runs when `ok` is false, naming the check.
  void check(bool ok, const std::string& checkName, std::uint64_t runs,
             const std::string& detail) {
    if (ok) {
      return;
    }
    failed_ += runs;
    std::printf("FAILED check %s (%llu run(s)): %s\n", checkName.c_str(),
                static_cast<unsigned long long>(runs), detail.c_str());
  }

  /// A check on the benchmark's own outputs rather than on one run.
  void require(bool ok, const std::string& checkName,
               const std::string& detail) {
    if (ok) {
      return;
    }
    broken_ = true;
    std::printf("FAILED check %s: %s\n", checkName.c_str(), detail.c_str());
  }

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] bool correct() const { return failed_ == 0 && !broken_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool broken_ = false;
};

/// Every deterministic field of a profile, as text: two runs of the same
/// configuration agree on it exactly, on any host and pool size.
std::string digest(const perf::RunProfile& p) {
  std::ostringstream s;
  const auto put = [&s](const perf::CounterSet& c) {
    s << c.totalCycles << ',' << c.stallCycles << ',' << c.instructions << ','
      << c.llcMisses << ';';
  };
  s << p.program << '|' << p.threads << '|' << p.activeCores << '|';
  put(p.counters);
  for (const perf::CounterSet& c : p.perCore) {
    put(c);
  }
  s << '|' << p.coherenceMisses << ',' << p.writebacks << ','
    << p.contextSwitches << ',' << p.makespan << '|';
  const perf::HotPathStats& h = p.hotPath;
  s << h.eventsPopped << ',' << h.eventsPushed << ',' << h.maxEventQueueDepth
    << ',' << h.advanceTurns << ',' << h.issueTurns << ','
    << h.controllerTicks << '|';
  for (const mem::ControllerStats& c : p.controllerStats) {
    s << c.requests << ',' << c.writebacks << ',' << c.remoteRequests << ','
      << c.rowHits << ',' << c.rowMisses << ',' << c.busyCycles << ','
      << c.totalWait << ',' << c.totalService << ';';
  }
  return s.str();
}

std::string hex32(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08x", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Spans (traced mode only): kept in memory, written out when the run ends.

class Tracer {
 public:
  explicit Tracer(std::string runId)
      : runId_(std::move(runId)), origin_(Clock::now()) {}

  int open(const std::string& name) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, stack_.empty() ? -1 : stack_.back(), now(), -1});
    stack_.push_back(id);
    return id;
  }

  /// Ends span `id` and any span still open inside it.
  void close(int id) {
    const std::int64_t end = now();
    while (!stack_.empty()) {
      const int top = stack_.back();
      stack_.pop_back();
      spans_[static_cast<std::size_t>(top)].endNs = end;
      if (top == id) {
        break;
      }
    }
  }

  [[nodiscard]] double seconds(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return static_cast<double>(s.endNs - s.startNs) * 1e-9;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"run\": \"" << runId_ << "\", \"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "\n" : ",\n") << "  {\"id\": " << i
          << ", \"parent\": " << s.parent << ", \"name\": \"" << s.name
          << "\", \"run\": \"" << runId_ << "\", \"start_ns\": " << s.startNs
          << ", \"end_ns\": " << s.endNs << "}";
    }
    out << "\n]}\n";
    if (!out) {
      throw std::runtime_error("cannot write spans to " + path);
    }
  }

 private:
  struct Span {
    std::string name;
    int parent;
    std::int64_t startNs;
    std::int64_t endNs;
  };

  [[nodiscard]] std::int64_t now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  std::string runId_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name)
      : tracer_(tracer), id_(tracer.open(name)) {}
  ~ScopedSpan() {
    if (open_) {
      tracer_.close(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Closes the span and returns its duration in seconds.
  double close() {
    tracer_.close(id_);
    open_ = false;
    return tracer_.seconds(id_);
  }

 private:
  Tracer& tracer_;
  int id_;
  bool open_ = true;
};

// ---------------------------------------------------------------------------
// The program under measurement, configured for one workload and seed.

struct Subject {
  Subject(const Workload& w, std::uint64_t runSeed, int poolSize)
      : workload(w), machine(w.machine()), seed(runSeed), pool(poolSize) {
    spec.program = w.program;
    spec.problemClass = w.problemClass;
    spec.threads = machine.logicalCores();
    spec.seed = seed;
    sim.seed = seed ^ kSimSeedMask;
  }

  [[nodiscard]] int topCores() const { return workload.cores.back(); }

  [[nodiscard]] analysis::SweepConfig sweepConfig() const {
    analysis::SweepConfig config;
    config.machine = machine;
    config.workload = spec;
    config.sim = sim;
    config.coreCounts = workload.cores;
    config.parallel.workers = pool;
    return config;
  }

  const Workload& workload;
  topology::MachineSpec machine;
  std::uint64_t seed;
  workloads::WorkloadSpec spec;
  sim::SimConfig sim;
  int pool;
};

/// Checks one sweep: run failures, the sweep fingerprint against
/// `expectedCrc`, and that every requested core count completed.
void checkSweep(Ledger& ledger, const analysis::SweepResult& sweep,
                std::uint32_t expectedCrc, const std::string& crcSource) {
  const std::uint64_t runs = sweep.requestedCoreCounts.size();
  ledger.attempt(runs);
  for (const analysis::RunFailure& f : sweep.failures) {
    ledger.check(false, "run-failure", 1,
                 "n = " + std::to_string(f.cores) + ": " + f.error);
  }
  const std::vector<int> pending = sweep.pendingCoreCounts();
  ledger.check(pending.empty() || !sweep.failures.empty(), "sweep-complete",
               pending.size(), sweep.diagnostics());
  if (!pending.empty()) {
    return;
  }
  const std::uint32_t crc = crc32(analysis::sweepToCsv(sweep));
  ledger.check(crc == expectedCrc, "fingerprint", runs,
               "crc32(sweepToCsv) = " + hex32(crc) + ", expected " +
                   hex32(expectedCrc) + " (" + crcSource + ")");
}

/// Checks a serially simulated profile against the pooled sweep's.
void checkSerial(Ledger& ledger, const perf::RunProfile& serial,
                 const analysis::SweepResult& sweep, const std::string& what) {
  ledger.attempt();
  const bool present = sweep.pendingCoreCounts().empty();
  ledger.check(present && digest(serial) == digest(sweep.at(serial.activeCores)),
               "serial-vs-pool", 1,
               what + " at n = " + std::to_string(serial.activeCores) +
                   " differs from the sweep's profile");
}

/// The fingerprint a sweep at this seed must reproduce: the recorded one
/// at the default seed, otherwise the first sweep of this invocation.
std::uint32_t referenceCrc(const Subject& s, const analysis::SweepResult& first,
                           std::string& source) {
  if (s.seed == kDefaultSeed) {
    source = "recorded for the default seed";
    return s.workload.goldenCrc;
  }
  source = "first sweep of this run";
  return first.pendingCoreCounts().empty()
             ? crc32(analysis::sweepToCsv(first))
             : 0;
}

struct FitResult {
  bool ok = false;
  std::string error;
  double errPct = 0.0;
  double omegaTop = 0.0;
};

FitResult fitAndValidate(const Subject& s, const analysis::SweepResult& sweep) {
  FitResult out;
  const model::MachineShape shape = model::shapeOf(s.machine);
  const std::vector<model::MeasuredPoint> fitPoints =
      analysis::pointsAt(sweep, model::defaultFitCores(shape));
  auto fitted = model::ContentionModel::tryFit(shape, fitPoints);
  if (!fitted) {
    out.error = fitted.error().describe();
    return out;
  }
  const model::ValidationReport report =
      model::validate(*fitted, sweep.points());
  out.ok = true;
  out.errPct = report.meanRelativeError * 100.0;
  out.omegaTop = sweep.omegas().back();
  return out;
}

double peakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

using Metrics = std::map<std::string, double>;

// ---------------------------------------------------------------------------
// End-to-end mode

// Set-up is built at least kSetupBuilds times and for at least
// kSetupSeconds: a sub-millisecond build (sp-b-amd48) needs hundreds of
// samples before its median holds still between runs.
constexpr int kSetupBuilds = 31;
constexpr double kSetupSeconds = 2.0;
constexpr int kMinRepeats = 3;

struct EndToEnd {
  Metrics metrics;
  std::string topDigest;   ///< deterministic profile at the top core count
  std::uint32_t sweepCrc = 0;
};

EndToEnd measureEndToEnd(const Subject& s, double seconds, Ledger& ledger) {
  // Set-up: build the workload and the simulator for the serial run.
  std::vector<double> setup;
  workloads::WorkloadInstance instance;
  std::unique_ptr<sim::MachineSim> simulator;
  const Clock::time_point setupStart = Clock::now();
  while (setup.size() < static_cast<std::size_t>(kSetupBuilds) ||
         secondsBetween(setupStart, Clock::now()) < kSetupSeconds) {
    // Free the previous build first, untimed, so only one is ever alive and
    // the peak resident set does not depend on how many builds fit.
    instance = {};
    simulator.reset();
    const Clock::time_point t0 = Clock::now();
    instance = workloads::makeWorkload(s.spec);
    simulator = std::make_unique<sim::MachineSim>(s.machine, s.sim);
    setup.push_back(secondsBetween(t0, Clock::now()));
  }

  // Warm-up run: caches, page tables and the allocator settle first.
  std::vector<perf::RunProfile> serialProfiles;
  serialProfiles.push_back(
      simulator->run(instance.threads, s.topCores(), instance.name));

  // Alternate pooled sweeps and serial runs until the next round would
  // overrun the measuring time, so both samples see the same host.
  std::vector<double> sweepWall;
  std::vector<double> serialRun;
  std::optional<analysis::SweepResult> firstSweep;
  std::uint64_t instructions = 0;
  const Clock::time_point start = Clock::now();
  double round = 0.0;
  while (sweepWall.size() < static_cast<std::size_t>(kMinRepeats) ||
         secondsBetween(start, Clock::now()) + round <= seconds) {
    const Clock::time_point roundStart = Clock::now();
    analysis::SweepResult sweep = analysis::runSweep(s.sweepConfig());
    sweepWall.push_back(secondsBetween(roundStart, Clock::now()));
    // Keep the first sweep whole; later ones are checked against it.
    if (!firstSweep) {
      firstSweep = std::move(sweep);
    } else {
      std::string source;
      const std::uint32_t expected = referenceCrc(s, *firstSweep, source);
      checkSweep(ledger, sweep, expected, source);
    }

    // Serial runs fill as much of the round as the sweep took, so both
    // samples are drawn over the same stretch of host time.
    double serialTotal = 0.0;
    do {
      const Clock::time_point t0 = Clock::now();
      perf::RunProfile serial =
          simulator->run(instance.threads, s.topCores(), instance.name);
      serialRun.push_back(secondsBetween(t0, Clock::now()));
      serialTotal += serialRun.back();
      instructions = serial.counters.instructions;
      serialProfiles.push_back(std::move(serial));
    } while (serialTotal < sweepWall.back());
    round = secondsBetween(roundStart, Clock::now());
  }

  const analysis::SweepResult& first = *firstSweep;
  std::string source;
  checkSweep(ledger, first, referenceCrc(s, first, source), source);
  for (const perf::RunProfile& p : serialProfiles) {
    checkSerial(ledger, p, first, "serial run");
  }

  EndToEnd out;
  const FitResult fit = first.pendingCoreCounts().empty()
                            ? fitAndValidate(s, first)
                            : FitResult{false, "sweep incomplete", 0, 0};
  ledger.require(fit.ok, "model-fit", fit.error);
  if (fit.ok && std::isnan(s.workload.paperOmega)) {
    std::printf("info omega(%d) = %.4f; Table II has no value for this "
                "program, class and machine\n",
                s.topCores(), fit.omegaTop);
  } else if (fit.ok) {
    std::printf("info omega(%d) = %.4f; paper Table II: %.2f\n", s.topCores(),
                fit.omegaTop, s.workload.paperOmega);
  }
  if (first.pendingCoreCounts().empty()) {
    out.sweepCrc = crc32(analysis::sweepToCsv(first));
    std::printf("info sweep fingerprint crc32(sweepToCsv) = %s\n",
                hex32(out.sweepCrc).c_str());
  }
  out.topDigest = digest(serialProfiles.front());

  printSample("sweep wall time", sweepWall, "s");
  printSample("serial run time", serialRun, "s");
  printSample("set-up time", setup, "s");
  out.metrics["sweep_wall_s"] = median(sweepWall);
  out.metrics["sim_mips"] =
      static_cast<double>(instructions) / median(serialRun) * 1e-6;
  out.metrics["setup_s"] = median(setup);
  out.metrics["peak_rss_mb"] = peakRssMiB();
  out.metrics["fit_err_pct"] = fit.errPct;
  return out;
}

// ---------------------------------------------------------------------------
// Traced mode: each layer timed from outside through its public entry point.

/// Aggregated in-situ RefStream::next timing of one decorated run.
struct NextTally {
  std::uint64_t calls = 0;
  std::int64_t ns = 0;
};

/// Timing decorator handed to MachineSim::run in place of a workload
/// stream. Non-owning: the wrapped stream must outlive it.
class TimedStream final : public trace::RefStream {
 public:
  TimedStream(trace::RefStream& inner, NextTally& tally)
      : inner_(inner), tally_(tally) {}

  bool next(trace::Op& op) override {
    const Clock::time_point t0 = Clock::now();
    const bool more = inner_.next(op);
    tally_.ns += (Clock::now() - t0).count();
    ++tally_.calls;
    return more;
  }

  void reset() override { inner_.reset(); }

 private:
  trace::RefStream& inner_;
  NextTally& tally_;
};

/// Host ns an empty timed region reads: the clock cost each decorated
/// next() carries inside its own interval.
double clockPairNs() {
  constexpr int kPairs = 1 << 20;
  std::int64_t total = 0;
  for (int i = 0; i < kPairs; ++i) {
    const Clock::time_point t0 = Clock::now();
    total += (Clock::now() - t0).count();
  }
  return static_cast<double>(total) / kPairs;
}

/// Same placement inputs the simulator derives for a run (active
/// controllers, weighted by the active cores each one homes).
std::unique_ptr<mem::MemorySystem> makeMemory(const topology::TopologyMap& topo,
                                              const sim::SimConfig& config,
                                              int activeCores) {
  mem::MemoryConfig memoryConfig = config.memory;
  memoryConfig.seed ^= config.seed * 0x9e3779b97f4a7c15ULL;
  const std::vector<NodeId> nodes = topo.activeNodes(activeCores);
  std::vector<int> weights;
  for (NodeId node : nodes) {
    int weight = 0;
    for (CoreId c : topo.activeCores(activeCores)) {
      weight += topo.homeNode(c) == node ? 1 : 0;
    }
    weights.push_back(weight);
  }
  return std::make_unique<mem::MemorySystem>(topo, memoryConfig, nodes,
                                             std::move(weights));
}

struct ReplayResult {
  std::uint64_t ops = 0;
  std::uint64_t l1Hits = 0;
  std::uint64_t transfers = 0;  ///< request + writeback calls
  double accessSeconds = 0.0;
  double memSeconds = 0.0;
};

/// Isolated replay at the top core count: the workload's op stream through
/// CacheHierarchy::access (threads pinned as pinRoundRobin pins them,
/// interleaved one op per thread per turn), then the off-chip misses of
/// each chunk through MemorySystem::request / writeback on a nondecreasing
/// clock that offers the simulated run's miss rate. Generation is outside
/// the timed loops.
ReplayResult replay(const Subject& s, Tracer& tracer,
                    const perf::RunProfile& reference) {
  struct Access {
    CoreId core;
    Addr addr;
    bool write;
  };
  struct Miss {
    CoreId core;
    Addr addr;
    bool writeback;
    Addr writebackLine;
  };
  constexpr std::size_t kChunk = 1 << 16;

  const topology::TopologyMap topo(s.machine);
  const int cores = s.topCores();
  const sched::Pinning pinning =
      sched::pinRoundRobin(topo, s.spec.threads, cores);
  cache::CacheHierarchy hierarchy(topo);
  const std::unique_ptr<mem::MemorySystem> memory =
      makeMemory(topo, s.sim, cores);
  workloads::WorkloadInstance instance = workloads::makeWorkload(s.spec);
  for (const trace::RefStreamPtr& t : instance.threads) {
    t->reset();
  }
  const double gap = static_cast<double>(reference.makespan) /
                     static_cast<double>(std::max<std::uint64_t>(
                         1, reference.counters.llcMisses));

  ReplayResult out;
  std::vector<Access> chunk;
  std::vector<Miss> misses;
  chunk.reserve(kChunk);
  misses.reserve(kChunk);
  std::vector<bool> live(instance.threads.size(), true);
  std::size_t liveCount = live.size();
  std::uint64_t missIndex = 0;
  std::size_t cursor = 0;
  trace::Op op;
  ScopedSpan all(tracer, "replay");
  while (liveCount > 0) {
    chunk.clear();
    while (chunk.size() < kChunk && liveCount > 0) {
      if (live[cursor]) {
        if (instance.threads[cursor]->next(op)) {
          chunk.push_back({pinning.pinnedCore[cursor], op.addr, op.write});
        } else {
          live[cursor] = false;
          --liveCount;
        }
      }
      cursor = (cursor + 1) % live.size();
    }
    misses.clear();
    Clock::time_point t0 = Clock::now();
    for (const Access& a : chunk) {
      const cache::AccessResult r = hierarchy.access(a.core, a.addr, a.write);
      out.l1Hits += r.hitLevel == 1 ? 1 : 0;
      if (r.offChip) {
        misses.push_back({a.core, a.addr, r.writeback, r.writebackLine});
      }
    }
    Clock::time_point t1 = Clock::now();
    out.accessSeconds += secondsBetween(t0, t1);
    out.ops += chunk.size();
    for (const Miss& m : misses) {
      const auto now =
          static_cast<Cycles>(static_cast<double>(missIndex++) * gap);
      (void)memory->request(now, m.core, m.addr);
      ++out.transfers;
      if (m.writeback) {
        memory->writeback(now, m.core, m.writebackLine);
        ++out.transfers;
      }
    }
    out.memSeconds += secondsBetween(t1, Clock::now());
  }
  all.close();
  return out;
}

constexpr int kBuildRepeats = 7;
constexpr int kFitCalls = 301;

struct Traced {
  Metrics metrics;
  std::string topDigest;
  std::uint32_t sweepCrc = 0;
};

Traced measureTraced(const Subject& s, Ledger& ledger, Tracer& tracer) {
  Traced out;
  Metrics& m = out.metrics;
  ScopedSpan root(tracer, "perfbench");

  // workloads: build time, and draining a fresh instance on its own.
  std::vector<double> builds;
  workloads::WorkloadInstance instance;
  for (int i = 0; i < kBuildRepeats; ++i) {
    ScopedSpan span(tracer, "workloads.makeWorkload");
    instance = workloads::makeWorkload(s.spec);
    builds.push_back(span.close());
  }
  m["workloads.ops"] = static_cast<double>(instance.totalOps);
  m["workloads.build_s"] = median(builds);
  {
    std::uint64_t drained = 0;
    trace::Op op;
    ScopedSpan span(tracer, "workloads.drain");
    for (const trace::RefStreamPtr& t : instance.threads) {
      t->reset();
      while (t->next(op)) {
        ++drained;
      }
    }
    const double secs = span.close();
    ledger.require(drained == instance.totalOps, "drain-ops",
                   std::to_string(drained) + " ops drained, instance says " +
                       std::to_string(instance.totalOps));
    m["workloads.drain_ns"] =
        secs * 1e9 / static_cast<double>(std::max<std::uint64_t>(1, drained));
  }

  // analysis/exec: one pooled sweep, attempts counted through beforeRun.
  std::atomic<std::uint64_t> attempts{0};
  analysis::SweepConfig config = s.sweepConfig();
  config.beforeRun = [&attempts](int, int) { attempts.fetch_add(1); };
  analysis::SweepResult sweep;
  double sweepSeconds = 0.0;
  {
    ScopedSpan span(tracer, "analysis.runSweep");
    sweep = analysis::runSweep(config);
    sweepSeconds = span.close();
  }
  std::string source;
  const std::uint32_t expected = referenceCrc(s, sweep, source);
  checkSweep(ledger, sweep, expected, source);
  if (!sweep.pendingCoreCounts().empty()) {
    throw std::runtime_error("sweep incomplete: " + sweep.diagnostics());
  }
  out.sweepCrc = crc32(analysis::sweepToCsv(sweep));
  double busyNs = 0.0;
  double waitNs = 0.0;
  for (const exec::WorkerStats& w : sweep.poolStats.workers) {
    busyNs += static_cast<double>(w.busyNs);
    waitNs += static_cast<double>(w.queueWaitNs);
  }
  m["exec.busy_s"] = busyNs * 1e-9;
  m["exec.queue_wait_s"] = waitNs * 1e-9;
  m["exec.efficiency"] =
      busyNs * 1e-9 / (static_cast<double>(s.pool) * sweepSeconds);
  m["sweep.attempts"] = static_cast<double>(attempts.load());

  // sim: every core count serially and plain (the sweep's work without the
  // pool), then the top core count again with the timing decorator on every
  // stream; the plain top-core run is its untraced reference.
  const double clockNs = clockPairNs();
  m["trace.clock_ns"] = clockNs;
  sim::MachineSim simulator(s.machine, s.sim);
  double passSeconds = 0.0;
  double longest = 0.0;
  double plainTopSeconds = 0.0;
  std::uint64_t events = 0;
  std::uint64_t maxDepth = 0;
  std::uint64_t switches = 0;
  perf::RunProfile top;
  for (int cores : s.workload.cores) {
    ScopedSpan span(tracer, "sim.run n=" + std::to_string(cores));
    perf::RunProfile p = simulator.run(instance.threads, cores, instance.name);
    const double secs = span.close();
    checkSerial(ledger, p, sweep, "plain serial run");
    passSeconds += secs;
    longest = std::max(longest, secs);
    events += p.hotPath.eventsPopped;
    maxDepth = std::max(maxDepth, p.hotPath.maxEventQueueDepth);
    switches += p.contextSwitches;
    if (cores == s.topCores()) {
      plainTopSeconds = secs;
      top = std::move(p);
    }
  }
  NextTally tally;
  std::vector<trace::RefStreamPtr> timed;
  for (const trace::RefStreamPtr& t : instance.threads) {
    timed.push_back(std::make_unique<TimedStream>(*t, tally));
  }
  double tracedSeconds = 0.0;
  {
    ScopedSpan span(tracer, "sim.run.timed n=" + std::to_string(s.topCores()));
    const perf::RunProfile p = simulator.run(timed, s.topCores(), instance.name);
    tracedSeconds = span.close();
    checkSerial(ledger, p, sweep, "decorated serial run");
  }
  m["sim.run_s"] = tracedSeconds;
  m["sim.events_popped"] = static_cast<double>(events);
  m["sim.max_queue_depth"] = static_cast<double>(maxDepth);
  m["sim.context_switches"] = static_cast<double>(switches);
  m["sim.ns_per_event"] =
      passSeconds * 1e9 / static_cast<double>(std::max<std::uint64_t>(1, events));
  m["sim.rest_s"] = tracedSeconds - static_cast<double>(tally.ns) * 1e-9;
  m["sim.stall_share"] = static_cast<double>(top.counters.stallCycles) /
                         static_cast<double>(top.counters.totalCycles);
  m["workloads.next_ns"] =
      static_cast<double>(tally.ns) /
          static_cast<double>(std::max<std::uint64_t>(1, tally.calls)) -
      clockNs;
  m["sweep.longest_run_share"] = longest / passSeconds;
  m["trace.overhead_pct"] = (tracedSeconds / plainTopSeconds - 1.0) * 100.0;
  std::printf("info traced sim.run_s %.6g s against untraced %.6g s at n = %d "
              "(overhead %.2f %%, %llu decorated next() calls)\n",
              tracedSeconds, plainTopSeconds, s.topCores(),
              m["trace.overhead_pct"],
              static_cast<unsigned long long>(tally.calls));
  out.topDigest = digest(top);

  // cache + mem: exact counts of the top-core run, then isolated replays.
  m["cache.llc_misses"] = static_cast<double>(top.counters.llcMisses);
  m["cache.coherence_misses"] = static_cast<double>(top.coherenceMisses);
  m["cache.writebacks"] = static_cast<double>(top.writebacks);
  std::uint64_t requests = 0;
  std::uint64_t remote = 0;
  std::uint64_t rowHits = 0;
  std::uint64_t rowAll = 0;
  std::uint64_t wait = 0;
  double maxUtil = 0.0;
  for (std::size_t n = 0; n < top.controllerStats.size(); ++n) {
    const mem::ControllerStats& c = top.controllerStats[n];
    requests += c.requests;
    remote += c.remoteRequests;
    rowHits += c.rowHits;
    rowAll += c.rowHits + c.rowMisses;
    wait += c.totalWait;
    maxUtil = std::max(maxUtil, top.controllerUtilization(n));
  }
  const auto share = [](std::uint64_t part, std::uint64_t whole) {
    return whole == 0 ? 0.0
                      : static_cast<double>(part) / static_cast<double>(whole);
  };
  m["mem.requests"] = static_cast<double>(requests);
  m["mem.reservation_ops"] = static_cast<double>(top.hotPath.controllerTicks);
  m["mem.remote_share"] = share(remote, requests);
  m["mem.row_hit_ratio"] = share(rowHits, rowAll);
  m["mem.wait_cycles_per_req"] = share(wait, requests);
  m["mem.max_util"] = maxUtil;

  const ReplayResult r = replay(s, tracer, top);
  ledger.require(r.ops == instance.totalOps, "replay-ops",
                 std::to_string(r.ops) + " ops replayed, instance says " +
                     std::to_string(instance.totalOps));
  m["cache.accesses"] = static_cast<double>(r.ops);
  m["cache.access_ns"] =
      r.accessSeconds * 1e9 / static_cast<double>(std::max<std::uint64_t>(1, r.ops));
  m["cache.l1_hit_ratio"] = share(r.l1Hits, r.ops);
  m["mem.request_ns"] = r.memSeconds * 1e9 /
                        static_cast<double>(std::max<std::uint64_t>(1, r.transfers));

  // core: the model fit plus validation, many calls.
  {
    ScopedSpan span(tracer, "core.fit");
    std::vector<double> calls;
    FitResult fit;
    for (int i = 0; i < kFitCalls; ++i) {
      const Clock::time_point t0 = Clock::now();
      fit = fitAndValidate(s, sweep);
      calls.push_back(secondsBetween(t0, Clock::now()) * 1e6);
    }
    ledger.require(fit.ok, "model-fit", fit.error);
    m["core.fit_us"] = median(calls);
    span.close();
  }
  root.close();
  return out;
}

// ---------------------------------------------------------------------------
// Output

void printResult(const Ledger& ledger, const Metrics& metrics,
                 const std::vector<MetricDef>& defs) {
  std::string json = "{\"correct\": ";
  bool correct = ledger.correct();
  std::string body;
  for (const MetricDef& d : defs) {
    const auto it = metrics.find(d.name);
    const double v = it == metrics.end() ? std::nan("") : it->second;
    if (!std::isfinite(v)) {
      std::printf("FAILED check metric-value: %s is not a finite number\n",
                  d.name);
      correct = false;
    }
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  body.empty() ? "" : ", ", d.name, std::isfinite(v) ? v : 0.0,
                  d.unit);
    body += buf;
    std::printf("metric %s = %.6g %s (%s is better)\n", d.name, v, d.unit,
                d.better);
  }
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ledger.attempted());
  json += ", \"failed\": " + std::to_string(ledger.failed());
  json += ", \"metrics\": {" + body + "}}";
  std::printf("%s\n", json.c_str());
}

int availableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    return 1;
  }
  return std::max(1, CPU_COUNT(&set));
}

void printHost(int nproc, int pool, const std::string& commit) {
  std::printf(
      "host {\"nproc\": %d, \"pool\": %d, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"occm_enable_obs\": %d, \"commit\": \"%s\"}\n",
      nproc, pool, OCCM_BENCH_COMPILER, OCCM_BENCH_BUILD_TYPE,
      OCCM_OBS_ENABLED ? 1 : 0, commit.c_str());
}

// ---------------------------------------------------------------------------
// Self-tests of the benchmark itself (--selftest).

int runSelftest(int pool) {
  int failures = 0;
  const auto expect = [&failures](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    failures += ok ? 0 : 1;
  };
  for (const auto* defs : {&endToEndMetrics(), &perLayerMetrics()}) {
    const char* kind = defs == &endToEndMetrics() ? "end_to_end" : "per_layer";
    for (const MetricDef& d : *defs) {
      expect(validMetricName(d.name) && validUnit(d.unit),
             std::string("metric name and unit: ") + d.name);
      std::printf("metric-def %s %s %s %s\n", kind, d.name, d.unit, d.better);
    }
  }
  expect(workloads::WorkloadSpec{}.seed == kDefaultSeed &&
             sim::SimConfig{}.seed == (kDefaultSeed ^ kSimSeedMask),
         "default seed reproduces the stock WorkloadSpec/SimConfig seeds");

  const Workload w = selftestWorkload();
  Ledger ledger;
  const Subject base(w, kDefaultSeed, pool);
  const analysis::SweepResult sweep = analysis::runSweep(base.sweepConfig());
  bool conserved = sweep.pendingCoreCounts().empty();
  for (const perf::RunProfile& p : sweep.profiles) {
    std::uint64_t requests = 0;
    for (const mem::ControllerStats& c : p.controllerStats) {
      requests += c.requests;
    }
    conserved = conserved && requests == p.counters.llcMisses;
  }
  expect(conserved, "short run: sum of controller requests == LLC misses");

  const EndToEnd plain = measureEndToEnd(base, 1.0, ledger);
  Tracer tracer("selftest");
  const Traced traced = measureTraced(base, ledger, tracer);
  expect(plain.topDigest == traced.topDigest && plain.sweepCrc == traced.sweepCrc,
         "traced run's deterministic counts equal the untraced run's");
  expect(ledger.correct() && ledger.attempted() > 0,
         "short untraced and traced runs pass every correctness check");

  const Subject other(w, kDefaultSeed + 1, pool);
  const analysis::SweepResult reseeded = analysis::runSweep(other.sweepConfig());
  expect(crc32(analysis::sweepToCsv(sweep)) !=
             crc32(analysis::sweepToCsv(reseeded)),
         "a different seed changes the fingerprint");
  std::printf("selftest: %d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Command line

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  int trace = 0;
  int pool = 0;  ///< 0 = min(4, nproc)
  std::string spansDir;
  std::string commit = "unknown";
  bool selftest = false;
};

[[noreturn]] void usage(const std::string& error) {
  std::string names;
  for (const Workload& w : workloadTable()) {
    names += (names.empty() ? "" : " | ") + w.name;
  }
  std::fprintf(
      stderr,
      "error: %s\n"
      "usage: occm_perfbench --workload NAME [--seed N] [--seconds S] "
      "[--trace 0|1] [--pool N] [--spans-dir DIR] [--commit ID]\n"
      "       occm_perfbench --selftest [--pool N]\n"
      "  --workload NAME  %s\n"
      "  --seed N         workload and simulator seed (default %llu)\n"
      "  --seconds S      measuring time of an end-to-end run (default 10)\n"
      "  --trace 0|1      0: end-to-end metrics; 1: per-layer metrics\n"
      "  --pool N         sweep workers, at most nproc (default min(4, nproc))\n"
      "  --spans-dir DIR  where --trace 1 writes its spans\n"
      "  --commit ID      source revision recorded in the host line\n",
      error.c_str(), names.c_str(),
      static_cast<unsigned long long>(kDefaultSeed));
  std::exit(2);
}

std::uint64_t parseUnsigned(const std::string& flag, const std::string& text,
                            std::uint64_t max) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || text[0] == '-' || *end != '\0' || errno != 0 || v > max) {
    usage("bad value for " + flag + ": \"" + text + "\"");
  }
  return v;
}

Options parseOptions(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      o.selftest = true;
      continue;
    }
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace" && flag != "--pool" && flag != "--spans-dir" &&
        flag != "--commit") {
      usage("unknown argument \"" + flag + "\"");
    }
    if (i + 1 >= argc) {
      usage(flag + " needs a value");
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = parseUnsigned(flag, value, UINT64_MAX);
    } else if (flag == "--seconds") {
      o.seconds = static_cast<double>(parseUnsigned(flag, value, 3600));
      if (o.seconds < 1) {
        usage("--seconds must be at least 1");
      }
    } else if (flag == "--trace") {
      o.trace = static_cast<int>(parseUnsigned(flag, value, 1));
    } else if (flag == "--pool") {
      o.pool = static_cast<int>(parseUnsigned(flag, value, 1024));
      if (o.pool < 1) {
        usage("--pool must be at least 1");
      }
    } else if (flag == "--spans-dir") {
      o.spansDir = value;
    } else {
      if (value.find_first_of("\"\\") != std::string::npos) {
        usage("--commit must not contain quotes or backslashes");
      }
      o.commit = value;
    }
  }
  if (!o.selftest && o.workload.empty()) {
    usage("--workload is required");
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parseOptions(argc, argv);
  const int nproc = availableCpus();
  const int pool = o.pool == 0 ? std::min(4, nproc) : o.pool;
  if (pool > nproc) {
    usage("--pool " + std::to_string(pool) + " exceeds the " +
          std::to_string(nproc) + " CPUs this process may use");
  }
  try {
    printHost(nproc, pool, o.commit);
    if (o.selftest) {
      return runSelftest(pool);
    }
    const Workload* workload = nullptr;
    for (const Workload& w : workloadTable()) {
      workload = w.name == o.workload ? &w : workload;
    }
    if (workload == nullptr) {
      usage("unknown workload \"" + o.workload + "\"");
    }
    const Subject subject(*workload, o.seed, pool);
    std::printf("perfbench workload %s seed %llu mode %s\n",
                workload->name.c_str(), static_cast<unsigned long long>(o.seed),
                o.trace == 0 ? "end-to-end" : "traced");
    Ledger ledger;
    if (o.trace == 0) {
      const EndToEnd e = measureEndToEnd(subject, o.seconds, ledger);
      printResult(ledger, e.metrics, endToEndMetrics());
    } else {
      const std::string runId =
          workload->name + ":seed=" + std::to_string(o.seed);
      Tracer tracer(runId);
      const Traced t = measureTraced(subject, ledger, tracer);
      if (!o.spansDir.empty()) {
        const std::string path = o.spansDir + "/" + workload->name + "-seed" +
                                 std::to_string(o.seed) + ".spans.json";
        tracer.write(path);
        std::printf("info spans written to %s\n", path.c_str());
      }
      printResult(ledger, t.metrics, perLayerMetrics());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
