#include "cache/coherence.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <random>
#include <vector>

#include "common/error.hpp"
#include "trace/address_space.hpp"

namespace occm::cache {
namespace {

TEST(CoherenceDirectory, ReadersAccumulateAsSharers) {
  CoherenceDirectory dir(4);
  EXPECT_EQ(dir.onAccess(0, 0, false), 0u);
  EXPECT_EQ(dir.onAccess(0, 1, false), 0u);
  EXPECT_EQ(dir.onAccess(0, 2, false), 0u);
  EXPECT_FALSE(dir.isInvalidatedFor(0, 0));
  EXPECT_FALSE(dir.isInvalidatedFor(0, 2));
  EXPECT_EQ(dir.stats().upgrades, 0u);
}

TEST(CoherenceDirectory, WriteInvalidatesOtherSharers) {
  CoherenceDirectory dir(4);
  (void)dir.onAccess(0, 0, false);
  (void)dir.onAccess(0, 1, false);
  const std::uint64_t victims = dir.onAccess(0, 2, true);
  EXPECT_EQ(victims, 0b011u);  // cores 0 and 1
  EXPECT_TRUE(dir.isInvalidatedFor(0, 0));
  EXPECT_TRUE(dir.isInvalidatedFor(0, 1));
  EXPECT_FALSE(dir.isInvalidatedFor(0, 2));
  EXPECT_EQ(dir.ownerOf(0), 2);
  EXPECT_EQ(dir.stats().upgrades, 1u);
  EXPECT_EQ(dir.stats().invalidationsSent, 2u);
}

TEST(CoherenceDirectory, WriteWithNoOtherSharerIsSilent) {
  CoherenceDirectory dir(4);
  (void)dir.onAccess(0, 1, true);
  EXPECT_EQ(dir.onAccess(0, 1, true), 0u);
  EXPECT_EQ(dir.stats().upgrades, 0u);
}

TEST(CoherenceDirectory, ReadAfterRemoteWriteIsCoherenceMiss) {
  CoherenceDirectory dir(4);
  (void)dir.onAccess(0, 0, true);
  (void)dir.onAccess(0, 1, false);
  EXPECT_EQ(dir.stats().coherenceMisses, 1u);
  // Re-reading by the owner is not a coherence miss.
  (void)dir.onAccess(0, 0, false);
  EXPECT_EQ(dir.stats().coherenceMisses, 1u);
}

TEST(CoherenceDirectory, UntrackedLineIsNotInvalidated) {
  CoherenceDirectory dir(2);
  EXPECT_FALSE(dir.isInvalidatedFor(123, 0));
  EXPECT_EQ(dir.ownerOf(123), -1);
}

TEST(CoherenceDirectory, AlternatingWritersPingPong) {
  CoherenceDirectory dir(2);
  int invalidations = 0;
  (void)dir.onAccess(0, 0, true);
  for (int i = 0; i < 10; ++i) {
    invalidations += std::popcount(dir.onAccess(0, i % 2 == 0 ? 1 : 0, true));
  }
  EXPECT_EQ(invalidations, 10);
}

TEST(CoherenceDirectory, DistinctLinesIndependent) {
  CoherenceDirectory dir(2);
  (void)dir.onAccess(0, 0, true);
  (void)dir.onAccess(1, 1, true);
  EXPECT_FALSE(dir.isInvalidatedFor(1, 1));
  // Core 0 holds no copy of the written line 1, so its copies count as
  // invalid until it re-reads (the refetch is handled by the hierarchy).
  EXPECT_TRUE(dir.isInvalidatedFor(1, 0));
  (void)dir.onAccess(1, 0, false);
  EXPECT_FALSE(dir.isInvalidatedFor(1, 0));
}

TEST(CoherenceDirectory, ReadSharedLinesNeverInvalidate) {
  // No write ever happens: any number of readers coexist and none is
  // considered invalidated (read-only data such as CG's iterate vector).
  CoherenceDirectory dir(4);
  (void)dir.onAccess(0, 0, false);
  (void)dir.onAccess(0, 3, false);
  EXPECT_FALSE(dir.isInvalidatedFor(0, 0));
  EXPECT_FALSE(dir.isInvalidatedFor(0, 1));  // cold, but nothing modified
  EXPECT_FALSE(dir.isInvalidatedFor(0, 3));
  EXPECT_EQ(dir.ownerOf(0), -1);
}

TEST(CoherenceDirectory, SupportsUpTo64Cores) {
  EXPECT_NO_THROW(CoherenceDirectory(64));
  EXPECT_THROW((void)CoherenceDirectory(65), ContractViolation);
  EXPECT_THROW((void)CoherenceDirectory(0), ContractViolation);
}

TEST(CoherenceDirectory, ClearResetsEverything) {
  CoherenceDirectory dir(2);
  (void)dir.onAccess(0, 0, true);
  (void)dir.onAccess(0, 1, true);
  dir.clear();
  EXPECT_EQ(dir.ownerOf(0), -1);
  EXPECT_EQ(dir.stats().upgrades, 0u);
  EXPECT_FALSE(dir.isInvalidatedFor(0, 0));
}

/// The directory's semantics restated over a std::map: one entry per line
/// ever accessed, an absent line behaving as no sharers, no owner, clean.
class ReferenceDirectory {
 public:
  struct Step {
    CoreId invalidatingOwner = -1;
    std::uint64_t victims = 0;
  };

  Step access(Addr line, CoreId core, bool write) {
    Entry& e = lines_[line];
    const std::uint64_t bit = std::uint64_t{1} << core;
    Step step;
    if (e.owner >= 0 && e.owner != core && (e.sharers & bit) == 0) {
      step.invalidatingOwner = e.owner;
    }
    if (write) {
      step.victims = e.sharers & ~bit;
      if (step.victims != 0) {
        ++stats.upgrades;
        stats.invalidationsSent +=
            static_cast<std::uint64_t>(std::popcount(step.victims));
      }
      e = Entry{bit, core, true};
    } else {
      if (e.modified && e.owner != core) {
        ++stats.coherenceMisses;
        e.modified = false;
      }
      e.sharers |= bit;
    }
    return step;
  }

  [[nodiscard]] bool isInvalidatedFor(Addr line, CoreId core) const {
    const auto it = lines_.find(line);
    return it != lines_.end() && it->second.owner >= 0 &&
           it->second.owner != core &&
           ((it->second.sharers >> core) & 1) == 0;
  }

  [[nodiscard]] CoreId ownerOf(Addr line) const {
    const auto it = lines_.find(line);
    return it == lines_.end() ? -1 : it->second.owner;
  }

  void clear() {
    lines_.clear();
    stats = {};
  }

  CoherenceStats stats;

 private:
  struct Entry {
    std::uint64_t sharers = 0;
    CoreId owner = -1;
    bool modified = false;
  };
  std::map<Addr, Entry> lines_;
};

TEST(CoherenceDirectory, MatchesReferenceModel) {
  // Lines from several pages of the dense table, both sides of its page
  // boundaries (4096 entries a page), a far page, and the last 64-byte
  // line below the private area.
  const Addr lastShared = trace::AddressSpace::kPrivateBase / 64 - 1;
  const std::vector<Addr> lines = {0,     1,     2,          63,
                                   64,    4095,  4096,       4097,
                                   8191,  8192,  3 * 4096 + 17,
                                   12345, 40000, Addr{1} << 20,
                                   lastShared - 1, lastShared};
  std::mt19937_64 rng(2011);
  for (const int cores : {2, 24, 48, 64}) {
    CoherenceDirectory dir(cores);
    ReferenceDirectory model;
    std::uniform_int_distribution<std::size_t> pickLine(0, lines.size() - 1);
    std::uniform_int_distribution<CoreId> pickCore(0, cores - 1);
    for (int i = 0; i < 20'000; ++i) {
      if (rng() % 2'500 == 0) {
        dir.clear();
        model.clear();
      }
      const Addr line = lines[pickLine(rng)];
      const CoreId core = pickCore(rng);
      const bool write = rng() % 3 == 0;
      const ReferenceDirectory::Step want = model.access(line, core, write);
      const auto handle = dir.beginAccess(line, core);
      ASSERT_EQ(handle.invalidatingOwner, want.invalidatingOwner)
          << "cores=" << cores << " step " << i << " line " << line;
      ASSERT_EQ(dir.commitAccess(handle, core, write), want.victims)
          << "cores=" << cores << " step " << i << " line " << line;
      ASSERT_EQ(dir.stats().upgrades, model.stats.upgrades);
      ASSERT_EQ(dir.stats().invalidationsSent, model.stats.invalidationsSent);
      ASSERT_EQ(dir.stats().coherenceMisses, model.stats.coherenceMisses);
      // Query a random line (possibly never touched) as a random core.
      const Addr probe = lines[pickLine(rng)];
      const CoreId asker = pickCore(rng);
      ASSERT_EQ(dir.isInvalidatedFor(probe, asker),
                model.isInvalidatedFor(probe, asker))
          << "cores=" << cores << " step " << i << " line " << probe;
      ASSERT_EQ(dir.ownerOf(probe), model.ownerOf(probe))
          << "cores=" << cores << " step " << i << " line " << probe;
    }
  }
}

}  // namespace
}  // namespace occm::cache
