// Tests of the experiment harness on the small test machine (fast runs).

#include "analysis/experiment.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "topology/presets.hpp"

namespace occm::analysis {
namespace {

SweepConfig smallConfig() {
  SweepConfig config;
  config.machine = topology::testNuma4();
  config.workload.program = workloads::Program::kCG;
  config.workload.problemClass = workloads::ProblemClass::kS;
  config.workload.threads = 4;
  return config;
}

TEST(RunOnce, ProducesAProfile) {
  const SweepConfig config = smallConfig();
  const perf::RunProfile p =
      runOnce(config.machine, config.workload, 2);
  EXPECT_EQ(p.activeCores, 2);
  EXPECT_EQ(p.threads, 4);
  EXPECT_EQ(p.program, "CG.S");
  EXPECT_GT(p.counters.totalCycles, 0u);
}

TEST(RunOnce, DefaultsThreadsToMachineCores) {
  SweepConfig config = smallConfig();
  config.workload.threads = 0;
  const perf::RunProfile p = runOnce(config.machine, config.workload, 1);
  EXPECT_EQ(p.threads, 4);
}

TEST(RunSweep, CoversAllCoreCountsByDefault) {
  const SweepResult sweep = runSweep(smallConfig());
  ASSERT_EQ(sweep.profiles.size(), 4u);
  for (int n = 1; n <= 4; ++n) {
    EXPECT_EQ(sweep.at(n).activeCores, n);
  }
  const auto points = sweep.points();
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[0].cores, 1);
  EXPECT_GT(points[0].totalCycles, 0.0);
}

TEST(RunSweep, ExplicitCoreCounts) {
  SweepConfig config = smallConfig();
  config.coreCounts = {1, 3};
  const SweepResult sweep = runSweep(config);
  ASSERT_EQ(sweep.profiles.size(), 2u);
  EXPECT_THROW((void)sweep.at(2), ContractViolation);
}

TEST(RunSweep, UnsimulatableMachineFailsBeforeAnyAttempt) {
  // 68 logical cores: more than the coherence directory can track. The
  // spec is refused up front instead of failing every attempt after the
  // workload was built.
  SweepConfig config;
  config.machine = topology::intelNuma24();
  config.machine.coresPerDie = 17;
  config.workload.program = workloads::Program::kEP;
  config.workload.problemClass = workloads::ProblemClass::kS;
  config.coreCounts = {1, 2, 3};
  int attempts = 0;
  config.beforeRun = [&attempts](int, int) { ++attempts; };
  EXPECT_THROW((void)runSweep(config), ContractViolation);
  EXPECT_EQ(attempts, 0);
}

TEST(RunSweep, MissingRunDiagnosisNamesWhatIsPresent) {
  SweepConfig config = smallConfig();
  config.coreCounts = {1, 3};
  const SweepResult sweep = runSweep(config);
  try {
    (void)sweep.at(2);
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("n = 2"), std::string::npos) << what;
    EXPECT_NE(what.find("core counts present: 1, 3"), std::string::npos)
        << what;
  }
}

TEST(RunSweep, OmegasWithoutBaselineRunExplainsItself) {
  SweepConfig config = smallConfig();
  config.coreCounts = {2, 4};  // no 1-core run to anchor omega
  const SweepResult sweep = runSweep(config);
  try {
    (void)sweep.omegas();
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1-core"), std::string::npos) << what;
    EXPECT_NE(what.find("2, 4"), std::string::npos) << what;
  }
}

TEST(RunSweep, OmegasNormalizedToC1) {
  const SweepResult sweep = runSweep(smallConfig());
  const auto omegas = sweep.omegas();
  ASSERT_EQ(omegas.size(), 4u);
  EXPECT_DOUBLE_EQ(omegas[0], 0.0);
}

TEST(PointsAt, SelectsSubset) {
  const SweepResult sweep = runSweep(smallConfig());
  const auto points = pointsAt(sweep, {1, 2, 3});
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[2].cores, 3);
  EXPECT_THROW((void)pointsAt(sweep, {9}), ContractViolation);
}

TEST(RunSweep, SweepMatchesIndividualRuns) {
  // Replaying the same workload per core count must equal fresh runs.
  const SweepConfig config = smallConfig();
  const SweepResult sweep = runSweep(config);
  const perf::RunProfile solo = runOnce(config.machine, config.workload, 2);
  EXPECT_EQ(sweep.at(2).counters.totalCycles, solo.counters.totalCycles);
}

}  // namespace
}  // namespace occm::analysis
