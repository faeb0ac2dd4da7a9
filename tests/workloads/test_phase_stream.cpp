#include "workloads/phase_stream.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/error.hpp"

namespace occm::workloads {
namespace {

std::vector<trace::Op> drain(PhaseStream& stream) {
  std::vector<trace::Op> ops;
  trace::Op op;
  while (stream.next(op)) {
    ops.push_back(op);
  }
  return ops;
}

TEST(PhaseStream, StridedAddressesFollowStride) {
  Phase p;
  p.base = 1000;
  p.count = 5;
  p.strideBytes = 128;
  p.jitterWork = false;
  p.workPerOp = 7;
  PhaseStream stream({p});
  const auto ops = drain(stream);
  ASSERT_EQ(ops.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(ops[i].addr, 1000u + 128 * i);
    EXPECT_EQ(ops[i].work, 7u);
  }
}

TEST(PhaseStream, NegativeStrideWalksBackwards) {
  Phase p;
  p.base = 1000;
  p.count = 3;
  p.strideBytes = -64;
  PhaseStream stream({p});
  const auto ops = drain(stream);
  EXPECT_EQ(ops[0].addr, 1000u);
  EXPECT_EQ(ops[1].addr, 936u);
  EXPECT_EQ(ops[2].addr, 872u);
}

TEST(PhaseStream, ZeroStrideRepeatsAddress) {
  Phase p;
  p.base = 64;
  p.count = 4;
  p.strideBytes = 0;
  PhaseStream stream({p});
  for (const auto& op : drain(stream)) {
    EXPECT_EQ(op.addr, 64u);
  }
}

TEST(PhaseStream, PhasesRunInOrder) {
  Phase a;
  a.base = 0;
  a.count = 2;
  Phase b;
  b.base = 10000;
  b.count = 2;
  PhaseStream stream({a, b});
  const auto ops = drain(stream);
  ASSERT_EQ(ops.size(), 4u);
  EXPECT_LT(ops[1].addr, 10000u);
  EXPECT_GE(ops[2].addr, 10000u);
  EXPECT_EQ(stream.totalOps(), 4u);
}

TEST(PhaseStream, EmptyPhaseSkipped) {
  Phase empty;
  empty.count = 0;
  Phase one;
  one.count = 1;
  one.base = 5;
  PhaseStream stream({empty, one});
  const auto ops = drain(stream);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].addr, 5u);
}

TEST(PhaseStream, GatherIsDeterministicPerSeed) {
  Phase g;
  g.kind = Phase::Kind::kGather;
  g.tableBytes = 4096;
  g.elementBytes = 8;
  g.count = 100;
  g.seed = 42;
  PhaseStream a({g});
  PhaseStream b({g});
  const auto opsA = drain(a);
  const auto opsB = drain(b);
  for (std::size_t i = 0; i < opsA.size(); ++i) {
    EXPECT_EQ(opsA[i].addr, opsB[i].addr);
  }
}

TEST(PhaseStream, GatherDifferentSeedsDiffer) {
  Phase g;
  g.kind = Phase::Kind::kGather;
  g.tableBytes = 1 * kMiB;
  g.elementBytes = 8;
  g.count = 50;
  g.seed = 1;
  Phase h = g;
  h.seed = 2;
  PhaseStream a({g});
  PhaseStream b({h});
  const auto opsA = drain(a);
  const auto opsB = drain(b);
  int equal = 0;
  for (std::size_t i = 0; i < opsA.size(); ++i) {
    equal += opsA[i].addr == opsB[i].addr ? 1 : 0;
  }
  EXPECT_LT(equal, 3);
}

TEST(PhaseStream, GatherStaysInsideTable) {
  Phase g;
  g.kind = Phase::Kind::kGather;
  g.base = 1 << 20;
  g.tableBytes = 4096;
  g.elementBytes = 8;
  g.count = 2000;
  PhaseStream stream({g});
  for (const auto& op : drain(stream)) {
    EXPECT_GE(op.addr, static_cast<Addr>(1 << 20));
    EXPECT_LT(op.addr, static_cast<Addr>((1 << 20) + 4096));
    EXPECT_EQ(op.addr % 8, 0u);
  }
}

TEST(PhaseStream, GatherCoversTheTable) {
  Phase g;
  g.kind = Phase::Kind::kGather;
  g.base = 0;
  g.tableBytes = 64 * 64;
  g.elementBytes = 8;
  g.count = 5000;
  g.seed = 9;
  PhaseStream stream({g});
  const std::vector<trace::Op> ops = drain(stream);
  EXPECT_EQ(ops.size(), 5000u);
  // Nearly every line of a 64-line table is hit by 5000 uniform draws.
  std::set<Addr> lines;
  for (const auto& op : ops) {
    lines.insert(op.addr / 64);
  }
  EXPECT_GE(lines.size(), 60u);
  EXPECT_LE(lines.size(), 64u);
}

TEST(PhaseStream, ResetReplaysIdentically) {
  Phase g;
  g.kind = Phase::Kind::kGather;
  g.tableBytes = 4096;
  g.elementBytes = 8;
  g.count = 20;
  g.workPerOp = 10;
  PhaseStream stream({g});
  const auto first = drain(stream);
  stream.reset();
  const auto second = drain(stream);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].addr, second[i].addr);
    EXPECT_EQ(first[i].work, second[i].work);
  }
}

TEST(PhaseStream, WorkJitterWithinBounds) {
  Phase p;
  p.count = 1000;
  p.workPerOp = 100;
  PhaseStream stream({p});
  double sum = 0.0;
  bool varied = false;
  Cycles firstWork = 0;
  trace::Op op;
  bool first = true;
  while (stream.next(op)) {
    EXPECT_GE(op.work, 74u);
    EXPECT_LE(op.work, 126u);
    sum += static_cast<double>(op.work);
    if (first) {
      firstWork = op.work;
      first = false;
    } else {
      varied = varied || op.work != firstWork;
    }
  }
  EXPECT_TRUE(varied);
  EXPECT_NEAR(sum / 1000.0, 100.0, 5.0);
}

TEST(PhaseStream, FlagsPropagate) {
  Phase p;
  p.count = 1;
  p.write = true;
  p.prefetchable = true;
  p.instrPerOp = 9;
  PhaseStream stream({p});
  trace::Op op;
  ASSERT_TRUE(stream.next(op));
  EXPECT_TRUE(op.write);
  EXPECT_TRUE(op.prefetchable);
  EXPECT_EQ(op.instructions, 9u);
}

TEST(PhaseStream, SeqLinesHelper) {
  const Phase p = seqLines(128, 640, 3, true);
  EXPECT_EQ(p.count, 10u);
  EXPECT_EQ(p.strideBytes, 64);
  EXPECT_TRUE(p.write);
  EXPECT_TRUE(p.prefetchable);
  EXPECT_EQ(p.base, 128u);
}

TEST(PhaseStream, GatherWithoutTableThrows) {
  Phase g;
  g.kind = Phase::Kind::kGather;
  g.count = 1;
  g.tableBytes = 0;
  EXPECT_THROW((void)PhaseStream({g}), ContractViolation);
}

}  // namespace
}  // namespace occm::workloads
