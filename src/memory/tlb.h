// Translation lookaside buffer (tag-only, like the caches). The paper's
// Skylake-like configuration uses 64-entry iTLB and dTLB (Table I); we
// model them as set-associative structures over virtual page numbers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "memory/replacement.h"

namespace safespec::memory {

struct TlbConfig {
  std::string name = "TLB";
  int entries = 64;
  int ways = 4;  ///< set-associative; entries/ways sets
  ReplPolicy policy = ReplPolicy::kLru;
  std::uint64_t seed = 7;

  int num_sets() const { return entries / ways; }
};

/// Cached translation.
struct TlbEntry {
  Addr vpage = 0;
  Addr ppage = 0;
  bool kernel_only = false;
};

/// Set-associative TLB keyed by virtual page number. Like Cache, its
/// sets are allocated on first fill (see SetArray); a never-filled set
/// reads as empty.
class Tlb {
 public:
  explicit Tlb(const TlbConfig& config);

  /// Lookup with replacement update and stats. nullopt on miss.
  std::optional<TlbEntry> access(Addr vpage);

  /// Side-effect-free lookup (tests / attack assertions).
  bool probe(Addr vpage) const;

  /// Installs a translation, evicting if the set is full. Returns the
  /// evicted entry's vpage when an eviction happened.
  std::optional<Addr> fill(const TlbEntry& entry);

  bool invalidate(Addr vpage);
  void flush_all();

  std::size_t occupancy() const;
  const TlbConfig& config() const { return config_; }
  HitMiss& stats() {
    flush_stats();
    return stats_;
  }
  const HitMiss& stats() const {
    flush_stats();
    return stats_;
  }

 private:
  struct Way {
    TlbEntry entry;
    bool valid = false;
  };

  int set_of(Addr vpage) const {
    return static_cast<int>(vpage % static_cast<Addr>(num_sets_));
  }
  int find_way(int set, Addr vpage) const;

  /// Folds batched access tallies into the named counters (see
  /// Cache::flush_stats — same contract: readers flush, observable
  /// statistics are bit-identical to per-access bumps).
  void flush_stats() const {
    if (pending_hits_ != 0) {
      stats_.hits.add(pending_hits_);
      pending_hits_ = 0;
    }
    if (pending_misses_ != 0) {
      stats_.misses.add(pending_misses_);
      pending_misses_ = 0;
    }
  }

  TlbConfig config_;
  int num_sets_;
  SetArray<Way> sets_;
  /// Stamp clock, advanced only at stamp-writing events (see Cache).
  std::uint64_t tick_ = 0;
  mutable HitMiss stats_;
  mutable std::uint64_t pending_hits_ = 0;
  mutable std::uint64_t pending_misses_ = 0;
};

}  // namespace safespec::memory
