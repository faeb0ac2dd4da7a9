// bench::sweep's run cache (bench/bench_util.hpp), which lets the paper
// driver simulate each run once: a run served from the cache must equal
// the same run in a fresh sweep, whatever core counts shared the sweep
// that first simulated it, and the sampler flag must key its own runs.

#include <gtest/gtest.h>

#include <vector>

#include "analysis/csv.hpp"
#include "bench_util.hpp"
#include "topology/presets.hpp"

namespace occm {
namespace {

using workloads::ProblemClass;
using workloads::Program;

TEST(BenchSweepCache, ReusedRunsMatchAFreshSweep) {
  const auto machine = topology::testNuma4();
  const bench::RunTally start = bench::runTally();
  (void)bench::sweep(machine, Program::kCG, ProblemClass::kS, {1, 2, 4});
  const auto reused =
      bench::sweep(machine, Program::kCG, ProblemClass::kS, {4, 3, 1});
  EXPECT_EQ(bench::runTally().simulated - start.simulated, 4u);
  EXPECT_EQ(bench::runTally().reused - start.reused, 2u);

  analysis::SweepConfig config;
  config.machine = machine;
  config.workload.program = Program::kCG;
  config.workload.problemClass = ProblemClass::kS;
  config.coreCounts = {4, 3, 1};
  config.parallel.workers = 1;
  const auto fresh = analysis::runSweep(config);
  EXPECT_EQ(reused.requestedCoreCounts, config.coreCounts);
  EXPECT_TRUE(reused.failures.empty());
  EXPECT_EQ(analysis::sweepToCsv(reused), analysis::sweepToCsv(fresh));
}

TEST(BenchSweepCache, SamplerRunsAreKeyedApart) {
  const auto machine = topology::testNuma4();
  (void)bench::sweep(machine, Program::kEP, ProblemClass::kS, {4});
  const bench::RunTally start = bench::runTally();
  const auto sampled = bench::sweep(machine, Program::kEP, ProblemClass::kS,
                                    {4}, /*sampler=*/true);
  EXPECT_EQ(bench::runTally().simulated - start.simulated, 1u);
  EXPECT_EQ(bench::runTally().reused - start.reused, 0u);
  EXPECT_FALSE(sampled.at(4).missWindows.empty());
}

}  // namespace
}  // namespace occm
