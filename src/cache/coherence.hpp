#pragma once

// MESI-lite invalidation directory for shared cache lines.
//
// Threads are pinned for the lifetime of a run, so private data can only
// ever be cached by one core; the directory therefore tracks only
// addresses in the shared area (trace::AddressSpace::isShared). Per line
// it records which logical cores hold a copy and whether one of them has
// written it. A write by core c invalidates every other holder's copies
// (their next read becomes a coherence miss, served — simplification
// documented in DESIGN.md — like a memory access). This is the mechanism
// behind the paper's EP observation: LLC misses grow from ~2e3 to ~3e7 as
// active cores increase, driven by false sharing of result lines.
//
// Storage (DESIGN.md §14): a dense table indexed by line number (the
// caller passes addr >> log2(lineSize), so the directory knows nothing of
// line sizes), split into pages of 4096 16-byte entries that are
// allocated on first touch. Workloads allocate shared data upward from
// address 0, so the pages cover the shared footprint, and a line's entry
// sits next to its neighbours': sequential and strided sweeps touch
// consecutive host memory. An entry never touched reads as no sharers,
// no owner, clean, so allocating a page changes no answer. The sharer
// set is a bitmask so the hierarchy walks victims with countr_zero. All
// counters and invalidation orders are pinned by the golden corpus.

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace occm::cache {

struct CoherenceStats {
  std::uint64_t upgrades = 0;           ///< writes that invalidated sharers
  std::uint64_t invalidationsSent = 0;  ///< per-holder invalidation messages
  std::uint64_t coherenceMisses = 0;    ///< reads of an invalidated copy
};

class CoherenceDirectory {
 public:
  /// Up to 64 logical cores (a bitmask per line).
  explicit CoherenceDirectory(int cores) : cores_(cores) {
    OCCM_REQUIRE_MSG(cores >= 1 && cores <= 64,
                     "directory supports 1..64 cores");
  }

  /// Opaque handle to one shared line's directory state, valid until the
  /// next beginAccess/onAccess/clear call. Lets the hierarchy pay ONE
  /// table lookup per shared access: beginAccess answers the pre-lookup
  /// invalidation question, the handle carries the entry to commitAccess
  /// after the cache fills.
  struct AccessHandle {
    void* entry = nullptr;
    /// Owner whose remote write invalidated this core's copy, or -1 —
    /// exactly what isInvalidatedFor + ownerOf would report.
    CoreId invalidatingOwner = -1;
  };

  /// First half of an access to line number `line`: locates the line's
  /// entry (allocating its page on first touch) and reports whether
  /// `core`'s copy was invalidated by a remote write.
  [[nodiscard]] AccessHandle beginAccess(Addr line, CoreId core) {
    OCCM_ASSERT(core >= 0 && core < cores_);
    Entry& entry = entryFor(line);
    return {&entry, invalidatingOwner(entry, core)};
  }

  /// Second half: applies the access to the entry found by beginAccess
  /// and returns the bitmask of cores whose copies must be invalidated
  /// (0 for reads and for writes with no other sharer).
  std::uint64_t commitAccess(const AccessHandle& handle, CoreId core,
                             bool write) {
    Entry& entry = *static_cast<Entry*>(handle.entry);
    const std::uint64_t bit = std::uint64_t{1} << core;
    std::uint64_t toInvalidate = 0;
    if (write) {
      const std::uint64_t others = entry.sharers & ~bit;
      if (others != 0) {
        ++stats_.upgrades;
        stats_.invalidationsSent +=
            static_cast<std::uint64_t>(std::popcount(others));
        toInvalidate = others;
      }
      entry.sharers = bit;
      entry.modified = true;
      entry.owner = core;
    } else {
      if (entry.modified && entry.owner != core) {
        // Dirty data produced elsewhere: the read is a coherence miss.
        ++stats_.coherenceMisses;
        entry.modified = false;
      }
      entry.sharers |= bit;
    }
    return toInvalidate;
  }

  /// One-shot begin + commit. Returns the bitmask of cores whose copies
  /// must be invalidated.
  std::uint64_t onAccess(Addr line, CoreId core, bool write) {
    return commitAccess(beginAccess(line, core), core, write);
  }

  /// True when `core` lost its copy of the line to a remote write since it
  /// last accessed it. Note the asymmetry exploited by the hierarchy: the
  /// copy survives in any cache instance the core *shares with the owner*
  /// (e.g. the socket LLC when writer and reader are on one socket), so
  /// within-socket false sharing is a cheap LLC hit while cross-socket
  /// false sharing goes off-chip.
  [[nodiscard]] bool isInvalidatedFor(Addr line, CoreId core) const {
    return invalidatingOwner(peek(line), core) >= 0;
  }

  /// Core that most recently wrote the line, or -1.
  [[nodiscard]] CoreId ownerOf(Addr line) const { return peek(line).owner; }

  [[nodiscard]] const CoherenceStats& stats() const noexcept { return stats_; }

  /// Forgets every line (releasing the pages) and zeroes the stats.
  void clear() {
    pages_.clear();
    stats_ = {};
  }

 private:
  struct Entry {
    std::uint64_t sharers = 0;
    CoreId owner = -1;
    bool modified = false;
  };
  static_assert(sizeof(Entry) == 16);

  /// The owner whose remote write invalidated `core`'s copy, or -1. Only
  /// a write creates invalid copies: read-shared lines (owner -1) coexist
  /// in any number of caches.
  static CoreId invalidatingOwner(const Entry& entry, CoreId core) {
    const bool invalidated = entry.owner >= 0 && entry.owner != core &&
                             ((entry.sharers >> core) & 1) == 0;
    return invalidated ? entry.owner : -1;
  }

  static constexpr unsigned kPageShift = 12;
  static constexpr Addr kPageMask = (Addr{1} << kPageShift) - 1;
  using Page = std::array<Entry, std::size_t{1} << kPageShift>;

  Entry& entryFor(Addr line) {
    const auto page = static_cast<std::size_t>(line >> kPageShift);
    if (page >= pages_.size()) {
      pages_.resize(page + 1);
    }
    std::unique_ptr<Page>& slot = pages_[page];
    if (!slot) {
      slot = std::make_unique<Page>();
    }
    return (*slot)[line & kPageMask];
  }

  /// A copy of the line's entry, or an untouched one when its page was
  /// never allocated; never allocates.
  [[nodiscard]] Entry peek(Addr line) const {
    const auto page = static_cast<std::size_t>(line >> kPageShift);
    if (page >= pages_.size() || !pages_[page]) {
      return Entry{};
    }
    return (*pages_[page])[line & kPageMask];
  }

  int cores_;
  /// Page p holds lines [p * 4096, (p + 1) * 4096); null until touched.
  std::vector<std::unique_ptr<Page>> pages_;
  CoherenceStats stats_;
};

}  // namespace occm::cache
