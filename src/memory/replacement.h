// Replacement policy and on-demand set storage for set-associative
// structures (caches and TLBs).
//
// A structure's ways and their replacement metadata live in a SetArray,
// which allocates them on first fill in blocks of consecutive sets, so a
// fresh machine pays only for the sets its run touches rather than for
// the modelled capacity. A set that was never filled reads as empty.
// Victim selection is one implementation (ReplacementState) shared by
// Cache and Tlb; policies are selected by enum rather than virtual
// dispatch — the simulator calls these on every access.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <type_traits>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace safespec::memory {

enum class ReplPolicy : std::uint8_t {
  kLru,     ///< least-recently-used (default; what the paper's model uses)
  kFifo,    ///< insertion-order eviction
  kRandom,  ///< uniform random victim (deterministic via seeded Rng)
};

/// Cache-level protection applied at victim selection, orthogonal to the
/// base ReplPolicy (set via CacheConfig::protection, chosen by the
/// ProtectionPolicy in the registry).
enum class CacheProtection : std::uint8_t {
  kNone,        ///< historical behaviour: owner-blind victim choice
  kSharp,       ///< SHARP: prefer requester-owned ways, alarm when forced
  kDetectOnly,  ///< victim choice unchanged; cross-owner evictions alarm
};

/// Outcome of a protected victim choice (see protected_victim()).
struct VictimChoice {
  int way = 0;
  bool forced = false;  ///< no requester-owned way existed (SHARP alarm)
};

/// Replacement metadata of one way. For LRU the stamp is last-touch time,
/// for FIFO it is fill time, for Random it is unused. The owner is the
/// context that filled the way.
struct WayMeta {
  std::uint64_t stamp = 0;
  int owner = 0;
};

/// One set's replacement state: a view of that set's metadata and Rng
/// inside the SetArray block that holds them (obtained from
/// SetArray::replacement). The structure supplies a monotonically
/// increasing `tick`.
///
/// The set's Rng is seeded with the set's own seed at its first draw.
/// Only draws consume it, so the draw sequence is the one an Rng seeded
/// when the structure was built would give, and a set that never draws
/// never pays for seeding (LRU and FIFO sets draw only for SHARP's
/// forced evictions).
///
/// The `owner` parameter is the requesting context (core id in the
/// multi-core simulator, 0 for single-core structures such as TLBs).
/// victim() never lets it influence the choice — that is what keeps
/// cores=1 bit-identical to the historical behaviour — but it is recorded
/// per way so protected_victim() (SHARP's "never evict another context's
/// line") and the shared-level attribution counters can see who owns each
/// line.
class ReplacementState {
 public:
  ReplacementState(ReplPolicy policy, int num_ways, WayMeta* meta,
                   std::optional<Rng>* rng, std::uint64_t rng_seed)
      : policy_(policy), num_ways_(num_ways), meta_(meta), rng_(rng),
        rng_seed_(rng_seed) {}

  /// Notes that `way` was touched (hit) at time `tick` by `owner`. A hit
  /// refreshes recency but does not transfer ownership: the line belongs
  /// to the context that filled it.
  void touch(int way, std::uint64_t tick, int owner = 0) {
    (void)owner;
    if (policy_ == ReplPolicy::kLru) meta_[way].stamp = tick;
  }

  /// Notes that `way` was (re)filled at time `tick` by `owner`.
  void fill(int way, std::uint64_t tick, int owner = 0) {
    meta_[way] = {tick, owner};
  }

  /// Chooses a victim way for a fill by `owner`. Only called when every
  /// way of the set is occupied — the caller prefers invalid ways itself.
  /// Ties on equal stamps resolve to the lowest way index (LRU/FIFO);
  /// kRandom draws from the per-set seeded Rng and ignores stamps.
  int victim(std::uint64_t tick, int owner = 0);

  /// SHARP-style victim choice for a fill by `owner`: ways owned by other
  /// contexts are skipped and the base policy picks among the requester's
  /// own lines (SHARP's tier-1 "unowned" and tier-2 "requester-owned"
  /// preferences collapse to one rule here because the model has no
  /// unowned state — every resident way records the context that filled
  /// it). When the requester owns nothing in the set the choice is
  /// *forced*: a uniformly random way is evicted and the caller raises an
  /// alarm (tier 3). When every way belongs to the requester — always the
  /// case at cores=1 — the result is bit-identical to victim(), including
  /// the kRandom draw sequence (one Rng::below() of the same bound).
  VictimChoice protected_victim(std::uint64_t tick, int owner);

  /// The context that filled `way` (see fill()).
  int owner_of(int way) const { return meta_[way].owner; }

  ReplPolicy policy() const { return policy_; }

 private:
  /// Uniform draw in [0, bound) from the set's Rng, seeding it first.
  int draw_below(int bound);

  ReplPolicy policy_;
  int num_ways_;
  WayMeta* meta_;
  std::optional<Rng>* rng_;
  std::uint64_t rng_seed_;
};

/// The ways of a set-associative structure plus their replacement state,
/// allocated on demand. Sets are grouped in blocks of kSetsPerBlock
/// consecutive sets; a block is allocated, value-initialised, the first
/// time one of its sets is filled, and is kept until the array is
/// destroyed. A block is one heap allocation holding its ways, then their
/// metadata, then its sets' Rngs, each array aligned for its type. Blocks
/// stay small (a 16-way level's block is about 9 KB), so they are carved
/// from the heap rather than mapped as fresh pages that fault on first
/// touch, as one array per level would be.
///
/// Each set's Rng is seeded `seed + set`, at the set's first draw (see
/// ReplacementState), so every draw is the one an eagerly seeded array
/// would make, whatever order the sets are first touched in. flush_all()
/// leaves the blocks (and so every set's Rng position) in place.
///
/// `Way` is the structure's per-way payload; it must have a `bool valid`
/// member that value-initialises to false.
template <typename Way>
class SetArray {
 public:
  static constexpr int kSetsPerBlock = 16;

  SetArray(ReplPolicy policy, int num_sets, int num_ways, std::uint64_t seed)
      : policy_(policy), num_sets_(num_sets), num_ways_(num_ways),
        seed_(seed),
        blocks_(static_cast<std::size_t>(num_sets + kSetsPerBlock - 1) /
                kSetsPerBlock) {}

  /// The ways of `set`, or nullptr when the set was never filled (every
  /// way then reads as invalid).
  const Way* find(int set) const {
    const Block& block = blocks_[block_of(set)];
    return block.ways ? &block.ways[way_base(set)] : nullptr;
  }

  /// The ways of `set`, allocating its block on first use.
  Way* ways(int set) { return &block(set).ways[way_base(set)]; }

  /// The replacement state of `set`, allocating its block on first use.
  ReplacementState replacement(int set) {
    Block& b = block(set);
    return {policy_, num_ways_, &b.meta[way_base(set)],
            &b.rng[set_in_block(set)],
            seed_ + static_cast<std::uint64_t>(set)};
  }

  /// The context that filled `way` of an allocated `set`.
  int owner_of(int set, int way) const {
    return blocks_[block_of(set)]
        .meta[way_base(set) + static_cast<std::size_t>(way)]
        .owner;
  }

  /// Marks every way invalid. Replacement state is kept.
  void flush_all() {
    for (Block& b : blocks_) {
      for (std::size_t i = 0; i < b.size; ++i) b.ways[i].valid = false;
    }
  }

  /// Number of valid ways.
  std::size_t occupancy() const {
    std::size_t n = 0;
    for (const Block& b : blocks_) {
      for (std::size_t i = 0; i < b.size; ++i) n += b.ways[i].valid ? 1 : 0;
    }
    return n;
  }

 private:
  using SetRng = std::optional<Rng>;
  // The carved arrays are never destroyed one element at a time: freeing
  // the block's buffer ends them.
  static_assert(std::is_trivially_destructible_v<Way> &&
                std::is_trivially_destructible_v<WayMeta> &&
                std::is_trivially_destructible_v<SetRng>);
  static_assert(std::max({alignof(Way), alignof(WayMeta), alignof(SetRng)}) <=
                __STDCPP_DEFAULT_NEW_ALIGNMENT__);

  struct Block {
    std::size_t size = 0;  ///< ways in this block (0 until allocated)
    Way* ways = nullptr;
    WayMeta* meta = nullptr;
    SetRng* rng = nullptr;  ///< one per set
    std::unique_ptr<std::byte[]> storage;  ///< owns all three arrays
  };

  static std::size_t align_up(std::size_t offset, std::size_t align) {
    return (offset + align - 1) / align * align;
  }

  static std::size_t block_of(int set) {
    return static_cast<std::size_t>(set) / kSetsPerBlock;
  }
  static std::size_t set_in_block(int set) {
    return static_cast<std::size_t>(set) % kSetsPerBlock;
  }
  std::size_t way_base(int set) const {
    return set_in_block(set) * static_cast<std::size_t>(num_ways_);
  }

  Block& block(int set) {
    Block& b = blocks_[block_of(set)];
    if (!b.ways) allocate(b, set - static_cast<int>(set_in_block(set)));
    return b;
  }

  void allocate(Block& b, int first_set) {
    const int sets = std::min(kSetsPerBlock, num_sets_ - first_set);
    b.size = static_cast<std::size_t>(sets) *
             static_cast<std::size_t>(num_ways_);
    const std::size_t meta_at =
        align_up(b.size * sizeof(Way), alignof(WayMeta));
    const std::size_t rng_at =
        align_up(meta_at + b.size * sizeof(WayMeta), alignof(SetRng));
    const std::size_t bytes =
        rng_at + static_cast<std::size_t>(sets) * sizeof(SetRng);
    b.storage.reset(new std::byte[bytes]);
    std::byte* base = b.storage.get();
    b.ways = reinterpret_cast<Way*>(base);
    b.meta = reinterpret_cast<WayMeta*>(base + meta_at);
    b.rng = reinterpret_cast<SetRng*>(base + rng_at);
    std::uninitialized_value_construct_n(b.ways, b.size);
    std::uninitialized_value_construct_n(b.meta, b.size);
    std::uninitialized_value_construct_n(b.rng,
                                         static_cast<std::size_t>(sets));
  }

  ReplPolicy policy_;
  int num_sets_;
  int num_ways_;
  std::uint64_t seed_;
  std::vector<Block> blocks_;
};

}  // namespace safespec::memory
