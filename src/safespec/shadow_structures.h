// SafeSpec shadow structures (§III, §IV).
//
// A shadow structure is a fully-associative, associatively-filled lookup
// table that holds the side effects of speculative execution — fetched
// cache lines or TLB translations — until the instruction that produced
// them is safe to commit (policy WFB or WFC). On commit the payload is
// *promoted* into the primary structure; on squash it is *annulled* in
// place. Entries are reference-counted because several in-flight
// instructions can depend on the same speculatively fetched line, and the
// paper's design has LSQ/ROB entries carry pointers into these tables.
//
// Security-relevant sizing (§V): when a shadow structure can fill up, the
// full-handling policy (drop the new entry, or stall the requester)
// becomes a transient covert channel (TSA). The worst-case-sized "Secure"
// configuration (LDQ entries for the d-side, ROB entries for the i-side)
// makes contention impossible; both undersized policies are implemented
// so the TSA PoC can demonstrate the channel and its closure.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/stats.h"
#include "common/types.h"

namespace safespec::shadow {

/// What to do when an insert finds the table full (§V).
enum class FullPolicy : std::uint8_t {
  kDrop,   ///< discard the update (committed state silently loses it)
  kStall,  ///< caller must retry; the requesting instruction stalls
};

const char* to_string(FullPolicy policy);

struct ShadowConfig {
  std::string name = "shadow";
  int entries = 72;  ///< worst case: LDQ size (d-side) / ROB size (i-side)
  FullPolicy full_policy = FullPolicy::kDrop;
};

/// Aggregated lifecycle statistics for one shadow structure. Fig 16's
/// commit rate is committed / (committed + squashed); Figs 6-9 use the
/// occupancy histogram's 99.99th percentile.
struct ShadowStats {
  Counter inserts;        ///< entries allocated
  Counter hits;           ///< speculative lookups served from shadow
  Counter committed;      ///< entries promoted to the primary structure
  Counter squashed;       ///< entries annulled without promotion
  Counter full_drops;     ///< inserts rejected by kDrop
  Counter full_stalls;    ///< insert attempts rejected by kStall
  Histogram occupancy;    ///< sampled by the core every cycle

  double commit_rate() const {
    const auto done = committed.value() + squashed.value();
    return done == 0 ? 0.0 : static_cast<double>(committed.value()) / done;
  }
};

/// Generic reference-counted shadow table. `Payload` is the datum being
/// shadowed (nothing for cache lines — presence is the datum — or a
/// physical page + permission for TLB entries).
///
/// Internals are built for the simulator's hot path: entries live in a
/// fixed slab, a free list makes allocation O(1), and an open-addressing
/// key->EntryId index (linear probing, backward-shift deletion) makes
/// acquire_existing / contains O(1) amortized instead of an O(entries)
/// scan. The index relies on the callers' access discipline — always try
/// acquire_existing before insert — which keeps live keys unique (the
/// core upholds this; insert asserts it in debug builds).
template <typename Payload>
class ShadowTable {
 public:
  using EntryId = int;
  static constexpr EntryId kNone = -1;

  explicit ShadowTable(const ShadowConfig& config)
      : config_(config),
        entries_(static_cast<std::size_t>(config.entries)),
        slots_(index_capacity(config.entries), kNone),
        mask_(slots_.size() - 1) {
    reset_free_list();
  }

  /// Looks up `key` among live entries; bumps the refcount on hit so the
  /// caller co-owns the entry. Records a shadow hit unless `count_stats`
  /// is false (used when several instructions of one fetch group share a
  /// line, which would otherwise inflate per-access hit statistics).
  EntryId acquire_existing(Addr key, bool count_stats = true) {
    const EntryId id = slots_[find_slot(key)];
    if (id == kNone) return kNone;
    ++entries_[static_cast<std::size_t>(id)].refs;
    if (count_stats) stats_.hits.add();
    return id;
  }

  /// Side-effect-free presence test (tests / attack assertions).
  bool contains(Addr key) const { return slots_[find_slot(key)] != kNone; }

  /// Allocates a new entry for `key` with refcount 1. Returns kNone when
  /// the table is full; the per-policy counter records whether that means
  /// a dropped update (kDrop) or a stalled requester (kStall) — the
  /// *caller* implements the stall by retrying next cycle.
  EntryId insert(Addr key, const Payload& payload) {
    if (!free_.empty()) {
      const EntryId id = free_.back();
      free_.pop_back();
      Entry& e = entries_[static_cast<std::size_t>(id)];
      e.live = true;
      e.key = key;
      e.payload = payload;
      e.refs = 1;
      e.promoted = false;
      const std::size_t slot = find_slot(key);
      assert(slots_[slot] == kNone && "duplicate live key");
      slots_[slot] = id;
      stats_.inserts.add();
      ++live_count_;
      return id;
    }
    if (config_.full_policy == FullPolicy::kDrop) {
      stats_.full_drops.add();
    } else {
      stats_.full_stalls.add();
    }
    return kNone;
  }

  /// True when at least one entry is free (kStall callers check this
  /// before issuing).
  bool has_room() const { return live_count_ < config_.entries; }

  /// Marks the entry as promoted (its payload has been moved to the
  /// primary structure). Idempotent; counted once.
  void mark_promoted(EntryId id) {
    Entry& e = entry(id);
    if (!e.promoted) {
      e.promoted = true;
      stats_.committed.add();
    }
  }

  /// Drops one reference. When the last reference dies the entry is
  /// annulled in place; if it was never promoted that is a squash.
  void release(EntryId id) {
    Entry& e = entry(id);
    --e.refs;
    if (e.refs == 0) {
      if (!e.promoted) stats_.squashed.add();
      e.live = false;
      --live_count_;
      index_erase(e.key);
      free_.push_back(id);
    }
  }

  /// Alias of payload_of() (the historical accessor name).
  const Payload& payload(EntryId id) const { return entry(id).payload; }
  Addr key(EntryId id) const { return entry(id).key; }
  const Payload& payload_of(EntryId id) const { return entry(id).payload; }
  bool is_promoted(EntryId id) const { return entry(id).promoted; }

  int live_count() const { return live_count_; }
  int capacity() const { return config_.entries; }
  /// No live entries: the state every shadow structure must reach after
  /// the final commit/squash drain (a differential-harness invariant).
  bool empty() const { return live_count_ == 0; }

  /// Cycle-granularity occupancy sample (Figs 6-9), taken for `cycles`
  /// consecutive cycles at the current occupancy. Run-length batched:
  /// occupancy rarely changes between consecutive cycles, so most samples
  /// cost one compare-and-add (see Histogram::record_run).
  void sample_occupancy(std::uint64_t cycles = 1) {
    stats_.occupancy.record_run(static_cast<std::uint64_t>(live_count_),
                                cycles);
  }

  ShadowStats& stats() { return stats_; }
  const ShadowStats& stats() const { return stats_; }
  const ShadowConfig& config() const { return config_; }

  /// Empties the table (between attack trials). Live entries are counted
  /// as squashed.
  void flush_all() {
    for (Entry& e : entries_) {
      if (e.live && !e.promoted) stats_.squashed.add();
      e.live = false;
      e.refs = 0;
    }
    live_count_ = 0;
    std::fill(slots_.begin(), slots_.end(), kNone);
    reset_free_list();
  }

 private:
  struct Entry {
    Addr key = 0;
    Payload payload{};
    int refs = 0;
    bool live = false;
    bool promoted = false;
  };

  /// Power-of-two index size at <= 50% load so probe chains stay short.
  static std::size_t index_capacity(int entries) {
    std::size_t cap = 16;
    while (cap < 2 * static_cast<std::size_t>(entries < 0 ? 0 : entries)) {
      cap *= 2;
    }
    return cap;
  }

  /// Linear probe to `key`'s slot: either the slot holding it or the
  /// first empty slot on its chain (a miss).
  std::size_t find_slot(Addr key) const {
    std::size_t i = mix64(key) & mask_;
    while (slots_[i] != kNone &&
           entries_[static_cast<std::size_t>(slots_[i])].key != key) {
      i = (i + 1) & mask_;
    }
    return i;
  }

  /// Backward-shift deletion: refill the emptied slot from the tail of
  /// its probe chain so later lookups never stop at a false empty.
  void index_erase(Addr key) {
    std::size_t i = find_slot(key);
    assert(slots_[i] != kNone && "erasing a key absent from the index");
    slots_[i] = kNone;
    std::size_t j = i;
    while (true) {
      j = (j + 1) & mask_;
      const EntryId moved = slots_[j];
      if (moved == kNone) break;
      const std::size_t ideal =
          mix64(entries_[static_cast<std::size_t>(moved)].key) & mask_;
      // Move slot j's entry into the hole at i unless its ideal slot
      // lies cyclically within (i, j] — then the hole doesn't break its
      // probe chain.
      const bool keep = (i <= j) ? (ideal > i && ideal <= j)
                                 : (ideal > i || ideal <= j);
      if (!keep) {
        slots_[i] = moved;
        slots_[j] = kNone;
        i = j;
      }
    }
  }

  void reset_free_list() {
    free_.clear();
    free_.reserve(entries_.size());
    for (EntryId id = config_.entries; id-- > 0;) free_.push_back(id);
  }

  Entry& entry(EntryId id) { return entries_[static_cast<std::size_t>(id)]; }
  const Entry& entry(EntryId id) const {
    return entries_[static_cast<std::size_t>(id)];
  }

  ShadowConfig config_;
  std::vector<Entry> entries_;
  std::vector<EntryId> slots_;  ///< open-addressing key->EntryId index
  std::size_t mask_;            ///< slots_.size() - 1 (power of two)
  std::vector<EntryId> free_;   ///< LIFO free list (top = next allocation)
  int live_count_ = 0;
  ShadowStats stats_;
};

/// Cache-line shadow: presence is the payload.
struct LinePayload {};

/// TLB shadow payload: the translation being held speculatively.
struct TranslationPayload {
  Addr ppage = 0;
  bool kernel_only = false;
};

using ShadowCache = ShadowTable<LinePayload>;
using ShadowTlb = ShadowTable<TranslationPayload>;

}  // namespace safespec::shadow
