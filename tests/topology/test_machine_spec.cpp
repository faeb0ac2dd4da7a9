#include "topology/machine_spec.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "topology/presets.hpp"

namespace occm::topology {
namespace {

TEST(Presets, AllValidateAndMatchThePaper) {
  const MachineSpec uma = intelUma8();
  EXPECT_EQ(uma.logicalCores(), 8);
  EXPECT_EQ(uma.sockets, 2);
  EXPECT_EQ(uma.controllers(), 1);
  EXPECT_EQ(uma.memoryArchitecture, MemoryArchitecture::kUma);
  EXPECT_GT(uma.busServiceCycles, 0u);

  const MachineSpec numa = intelNuma24();
  EXPECT_EQ(numa.logicalCores(), 24);
  EXPECT_EQ(numa.sockets, 2);
  EXPECT_EQ(numa.smtPerCore, 2);
  EXPECT_EQ(numa.controllers(), 2);
  EXPECT_EQ(numa.logicalCoresPerSocket(), 12);
  EXPECT_EQ(numa.memoryArchitecture, MemoryArchitecture::kNuma);

  const MachineSpec amd = amdNuma48();
  EXPECT_EQ(amd.logicalCores(), 48);
  EXPECT_EQ(amd.sockets, 4);
  EXPECT_EQ(amd.diesPerSocket, 2);
  EXPECT_EQ(amd.controllers(), 8);
  EXPECT_EQ(amd.dies(), 8);
}

TEST(Presets, PaperMachinesListsAllThree) {
  const auto machines = paperMachines();
  ASSERT_EQ(machines.size(), 3u);
  EXPECT_EQ(machines[0].logicalCores(), 8);
  EXPECT_EQ(machines[1].logicalCores(), 24);
  EXPECT_EQ(machines[2].logicalCores(), 48);
}

TEST(Presets, TestMachinesValidate) {
  EXPECT_NO_THROW(testNuma4().validate());
  EXPECT_NO_THROW(testUma4().validate());
  EXPECT_EQ(testNuma4().logicalCores(), 4);
  EXPECT_EQ(testUma4().controllers(), 1);
}

TEST(MachineSpec, LastLevelCacheIsHighestLevel) {
  const MachineSpec numa = intelNuma24();
  EXPECT_EQ(numa.lastLevelCache().level, 3);
  EXPECT_EQ(numa.lastLevelCache().scope, CacheScope::kPerSocket);
  const MachineSpec uma = intelUma8();
  EXPECT_EQ(uma.lastLevelCache().level, 2);
}

TEST(MachineSpecValidate, RejectsNonConsecutiveCacheLevels) {
  MachineSpec m = testNuma4();
  m.caches[1].level = 3;
  EXPECT_THROW((void)m.validate(), ContractViolation);
}

TEST(MachineSpecValidate, RejectsMixedLineSizes) {
  MachineSpec m = testNuma4();
  m.caches[1].lineSize = 128;
  EXPECT_THROW((void)m.validate(), ContractViolation);
}

TEST(MachineSpecValidate, RejectsAsymmetricHopMatrix) {
  MachineSpec m = testNuma4();
  m.hopMatrix = {{0, 1}, {2, 0}};
  EXPECT_THROW((void)m.validate(), ContractViolation);
}

TEST(MachineSpecValidate, RejectsNonZeroDiagonal) {
  MachineSpec m = testNuma4();
  m.hopMatrix = {{1, 1}, {1, 0}};
  EXPECT_THROW((void)m.validate(), ContractViolation);
}

TEST(MachineSpecValidate, RejectsWrongHopMatrixSize) {
  MachineSpec m = testNuma4();
  m.hopMatrix = {{0}};
  EXPECT_THROW((void)m.validate(), ContractViolation);
}

TEST(MachineSpecValidate, RejectsUmaWithHopMatrix) {
  MachineSpec m = testUma4();
  m.hopMatrix = {{0}};
  EXPECT_THROW((void)m.validate(), ContractViolation);
}

TEST(MachineSpecValidate, RejectsNumaWithMachineControllers) {
  MachineSpec m = testNuma4();
  m.controllerScope = ControllerScope::kMachine;
  EXPECT_THROW((void)m.validate(), ContractViolation);
}

TEST(MachineSpecValidate, RejectsRowMissCheaperThanHit) {
  MachineSpec m = testNuma4();
  m.rowMissServiceCycles = m.rowHitServiceCycles - 1;
  EXPECT_THROW((void)m.validate(), ContractViolation);
}

TEST(MachineSpecValidate, RejectsNonPowerOfTwoPageSize) {
  MachineSpec m = testNuma4();
  m.pageSize = 3000;
  EXPECT_THROW((void)m.validate(), ContractViolation);
}

TEST(MachineSpecValidate, RejectsZeroCores) {
  MachineSpec m = testNuma4();
  m.coresPerDie = 0;
  EXPECT_THROW((void)m.validate(), ContractViolation);
}

TEST(MachineSpecValidate, RejectsCacheSizeNotLineMultiple) {
  MachineSpec m = testNuma4();
  m.caches[0].size = 1000;  // not a multiple of 64
  EXPECT_THROW((void)m.validate(), ContractViolation);
}

TEST(MachineSpecValidate, RejectsMoreCoresThanTheDirectoryTracks) {
  MachineSpec m = intelNuma24();
  m.coresPerDie = 17;  // 2 sockets x 17 cores x 2 SMT = 68 logical cores
  EXPECT_THROW((void)m.validate(), ContractViolation);
  m.coresPerDie = 16;  // 64: the sharer bitmask's limit
  EXPECT_NO_THROW((void)m.validate());
}

TEST(MachineSpecValidate, RejectsMoreWaysThanTheCacheModels) {
  MachineSpec m = testNuma4();
  m.caches[0].associativity = 33;
  m.caches[0].size = 33 * 64 * 4;  // whole sets, so only the ways check fails
  EXPECT_THROW((void)m.validate(), ContractViolation);
  m.caches[0].associativity = 32;
  m.caches[0].size = 32 * 64 * 4;
  EXPECT_NO_THROW((void)m.validate());
}

}  // namespace
}  // namespace occm::topology
