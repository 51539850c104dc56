// Unit tests for the memory substrate: backing store with permissions,
// set-associative cache (geometry, replacement, invalidation), inclusive
// hierarchy behaviour, TLB, and the page table / walker.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "memory/cache.h"
#include "memory/cache_hierarchy.h"
#include "memory/main_memory.h"
#include "memory/page_table.h"
#include "memory/tlb.h"

namespace safespec::memory {
namespace {

// ---- MainMemory -----------------------------------------------------------

TEST(MainMemory, UnwrittenWordsReadZero) {
  MainMemory mem;
  EXPECT_EQ(mem.read64(0x1234560), 0u);
}

TEST(MainMemory, WriteReadRoundTrip) {
  MainMemory mem;
  mem.write64(0x1000, 0xDEADBEEF);
  EXPECT_EQ(mem.read64(0x1000), 0xDEADBEEFu);
}

TEST(MainMemory, SubWordAddressesAliasTheSameWord) {
  MainMemory mem;
  mem.write64(0x1000, 42);
  EXPECT_EQ(mem.read64(0x1003), 42u);  // same 8-byte word
  EXPECT_EQ(mem.read64(0x1008), 0u);   // next word
}

TEST(MainMemory, PermissionChecks) {
  MainMemory mem;
  mem.map_page(1, PagePerm::kUser);
  mem.map_page(2, PagePerm::kKernel);
  EXPECT_TRUE(mem.access_ok(1, PrivLevel::kUser));
  EXPECT_TRUE(mem.access_ok(1, PrivLevel::kKernel));
  EXPECT_FALSE(mem.access_ok(2, PrivLevel::kUser));
  EXPECT_TRUE(mem.access_ok(2, PrivLevel::kKernel));
  EXPECT_FALSE(mem.access_ok(3, PrivLevel::kKernel));  // unmapped
}

TEST(MainMemory, NonzeroWordsMatchASortedReference) {
  // Random writes over a dense region, the kernel region at 512 MiB, and
  // words past the paged range (which live in the hash overflow), with
  // zeros among the values: the snapshot must hold exactly the words
  // whose last write was nonzero, in address order.
  Rng rng(404);
  MainMemory mem;
  std::map<Addr, std::uint64_t> reference;
  for (int i = 0; i < 20000; ++i) {
    Addr addr;
    switch (rng.below(4)) {
      case 0: addr = 0x10000 + rng.below(0x20000); break;
      case 1: addr = 0x20000000 + rng.below(0x2000); break;
      case 2: addr = rng.below(64) << 29 | rng.below(0x1000); break;
      default: addr = (Addr{1} << 35) + rng.below(Addr{1} << 40); break;
    }
    const std::uint64_t value = rng.chance(0.3) ? 0 : rng.next();
    mem.write64(addr, value);
    reference[addr & ~Addr{7}] = value;
  }
  std::vector<std::pair<Addr, std::uint64_t>> expected;
  for (const auto& [addr, value] : reference) {
    if (value != 0) expected.emplace_back(addr, value);
  }
  ASSERT_GT(std::count_if(expected.begin(), expected.end(),
                          [](const auto& w) { return w.first >> 35 != 0; }),
            100);
  EXPECT_EQ(mem.nonzero_words(), expected);
  // A copy snapshots the same image and stays independent.
  MainMemory copy = mem;
  copy.write64(0x10000, 0xabc);
  EXPECT_EQ(mem.nonzero_words(), expected);
  EXPECT_EQ(copy.read64(0x10000), 0xabcu);
}

// ---- Cache -----------------------------------------------------------------

CacheConfig small_cache(ReplPolicy policy = ReplPolicy::kLru) {
  return {.name = "t",
          .size_bytes = 4096,  // 64 lines
          .ways = 4,           // 16 sets
          .line_bytes = 64,
          .hit_latency = 4,
          .policy = policy};
}

TEST(Cache, GeometryValidation) {
  CacheConfig bad = small_cache();
  bad.size_bytes = 1000;  // not divisible
  EXPECT_THROW(Cache{bad}, std::invalid_argument);
}

TEST(Cache, MissThenFillThenHit) {
  Cache c(small_cache());
  EXPECT_FALSE(c.access(100));
  c.fill(100);
  EXPECT_TRUE(c.access(100));
  EXPECT_EQ(c.stats().hits.value(), 1u);
  EXPECT_EQ(c.stats().misses.value(), 1u);
}

TEST(Cache, ProbeHasNoSideEffects) {
  Cache c(small_cache());
  c.fill(5);
  const auto hits = c.stats().hits.value();
  EXPECT_TRUE(c.probe(5));
  EXPECT_FALSE(c.probe(6));
  EXPECT_EQ(c.stats().hits.value(), hits);
}

TEST(Cache, LruEvictsLeastRecentlyUsed) {
  Cache c(small_cache(ReplPolicy::kLru));
  // Four lines mapping to set 0 (multiples of 16 sets).
  c.fill(0);
  c.fill(16);
  c.fill(32);
  c.fill(48);
  // Touch 0 so 16 becomes LRU.
  EXPECT_TRUE(c.access(0));
  const auto evicted = c.fill(64);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(*evicted, 16u);
  EXPECT_TRUE(c.probe(0));
  EXPECT_FALSE(c.probe(16));
}

TEST(Cache, FifoIgnoresTouches) {
  Cache c(small_cache(ReplPolicy::kFifo));
  c.fill(0);
  c.fill(16);
  c.fill(32);
  c.fill(48);
  EXPECT_TRUE(c.access(0));  // does not save it under FIFO
  const auto evicted = c.fill(64);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(*evicted, 0u);
}

TEST(Cache, SpeculativeAccessDoesNotUpdateRecency) {
  Cache c(small_cache(ReplPolicy::kLru));
  c.fill(0);
  c.fill(16);
  c.fill(32);
  c.fill(48);
  // Speculative touch of 0 must NOT rescue it from LRU.
  EXPECT_TRUE(c.access(0, /*update_replacement=*/false));
  const auto evicted = c.fill(64);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(*evicted, 0u);
}

TEST(Cache, StatsQuietAccessCountsNothing) {
  Cache c(small_cache());
  c.access(7, true, /*count_stats=*/false);
  EXPECT_EQ(c.stats().accesses(), 0u);
}

TEST(Cache, InvalidateRemovesLine) {
  Cache c(small_cache());
  c.fill(9);
  EXPECT_TRUE(c.invalidate(9));
  EXPECT_FALSE(c.probe(9));
  EXPECT_FALSE(c.invalidate(9));  // already gone
}

TEST(Cache, RefillOfResidentLineDoesNotEvict) {
  Cache c(small_cache());
  c.fill(0);
  c.fill(16);
  EXPECT_FALSE(c.fill(0).has_value());
  EXPECT_TRUE(c.probe(16));
}

TEST(Cache, OccupancyTracksFills) {
  Cache c(small_cache());
  EXPECT_EQ(c.occupancy(), 0u);
  for (Addr l = 0; l < 10; ++l) c.fill(l);
  EXPECT_EQ(c.occupancy(), 10u);
  c.flush_all();
  EXPECT_EQ(c.occupancy(), 0u);
}

class ReplacementSweep : public ::testing::TestWithParam<ReplPolicy> {};

TEST_P(ReplacementSweep, CapacityNeverExceeded) {
  Cache c(small_cache(GetParam()));
  for (Addr l = 0; l < 1000; ++l) c.fill(l);
  EXPECT_LE(c.occupancy(), 64u);
  // Working set smaller than one set's ways always ends resident.
  c.flush_all();
  c.fill(0);
  c.fill(16);
  EXPECT_TRUE(c.probe(0));
  EXPECT_TRUE(c.probe(16));
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, ReplacementSweep,
                         ::testing::Values(ReplPolicy::kLru, ReplPolicy::kFifo,
                                           ReplPolicy::kRandom));

// ---- ReplacementState: victim tie-breaks and owner attribution -------------
//
// Victim selection lives in ReplacementState, the view of one set's
// replacement state inside a SetArray; these tests drive one-set, 4-way
// arrays (num_sets = 1, num_ways = 4).

struct BareWay {
  bool valid = false;
};

TEST(Replacement, LruTieBreaksToLowestWay) {
  SetArray<BareWay> one_set(ReplPolicy::kLru, 1, 4, /*seed=*/1);
  ReplacementState repl = one_set.replacement(0);
  for (int w = 0; w < 4; ++w) repl.fill(w, /*tick=*/10);
  EXPECT_EQ(repl.victim(11), 0);  // equal stamps: lowest way index wins
  repl.touch(0, 12);              // LRU: a hit rescues way 0
  EXPECT_EQ(repl.victim(13), 1);
}

TEST(Replacement, FifoTieBreaksToLowestWayAndIgnoresTouches) {
  SetArray<BareWay> one_set(ReplPolicy::kFifo, 1, 4, /*seed=*/1);
  ReplacementState repl = one_set.replacement(0);
  for (int w = 0; w < 4; ++w) repl.fill(w, /*tick=*/10);
  EXPECT_EQ(repl.victim(11), 0);
  repl.touch(0, 12);  // FIFO: hits never refresh the insertion stamp
  EXPECT_EQ(repl.victim(13), 0);
  repl.fill(0, 14);  // ...but a refill does
  EXPECT_EQ(repl.victim(15), 1);
}

TEST(Replacement, OwnerRecordedOnFillNotOnTouch) {
  SetArray<BareWay> one_set(ReplPolicy::kLru, 1, 2, /*seed=*/1);
  ReplacementState repl = one_set.replacement(0);
  repl.fill(0, 1, /*owner=*/3);
  EXPECT_EQ(repl.owner_of(0), 3);
  repl.touch(0, 2, /*owner=*/1);  // a remote hit does not transfer ownership
  EXPECT_EQ(repl.owner_of(0), 3);
  repl.fill(0, 3, /*owner=*/1);
  EXPECT_EQ(repl.owner_of(0), 1);
}

TEST(Replacement, VictimChoiceIsOwnerBlind) {
  // The owner input is attribution only: the policy must pick the same
  // victim no matter which core asks, or cores=1 bit-identity would break
  // the moment a second core shares the level.
  SetArray<BareWay> one_set(ReplPolicy::kLru, 1, 4, /*seed=*/1);
  ReplacementState repl = one_set.replacement(0);
  repl.fill(0, 10, /*owner=*/0);
  repl.fill(1, 11, /*owner=*/1);
  repl.fill(2, 12, /*owner=*/0);
  repl.fill(3, 13, /*owner=*/1);
  EXPECT_EQ(repl.victim(14, /*owner=*/0), repl.victim(14, /*owner=*/1));
  EXPECT_EQ(repl.victim(14, /*owner=*/1), 0);  // oldest fill, owner ignored
}

TEST(Replacement, ProtectedVictimPrefersRequesterOwnedWays) {
  // SHARP tiers 1/2: never victimize another owner's way while the
  // requester owns one; the base policy (here LRU) picks among the
  // requester's own ways.
  SetArray<BareWay> one_set(ReplPolicy::kLru, 1, 4, /*seed=*/1);
  ReplacementState repl = one_set.replacement(0);
  repl.fill(0, 10, /*owner=*/0);
  repl.fill(1, 11, /*owner=*/1);
  repl.fill(2, 12, /*owner=*/0);
  repl.fill(3, 13, /*owner=*/1);
  // victim() would take way 0 (globally oldest); owner 1 must not.
  auto choice = repl.protected_victim(14, /*owner=*/1);
  EXPECT_EQ(choice.way, 1);  // owner 1's oldest
  EXPECT_FALSE(choice.forced);
  choice = repl.protected_victim(14, /*owner=*/0);
  EXPECT_EQ(choice.way, 0);
  EXPECT_FALSE(choice.forced);
}

TEST(Replacement, ProtectedVictimForcedWhenSetFullyForeignOwned) {
  // SHARP tier 3: with zero requester-owned ways the choice falls back
  // to random-among-all and is flagged forced (the alarm trigger).
  SetArray<BareWay> one_set(ReplPolicy::kLru, 1, 4, /*seed=*/1);
  ReplacementState repl = one_set.replacement(0);
  for (int w = 0; w < 4; ++w) repl.fill(w, 10 + w, /*owner=*/0);
  const auto choice = repl.protected_victim(20, /*owner=*/1);
  EXPECT_TRUE(choice.forced);
  EXPECT_GE(choice.way, 0);
  EXPECT_LT(choice.way, 4);
}

TEST(Replacement, ProtectedVictimMatchesVictimWhenSingleOwner) {
  // cores=1 bit-identity: when every way belongs to the requester the
  // protected choice must equal victim()'s — including the random
  // policy's draw (identical rng consumption), or switching the policy
  // to SHARP would change single-core cycle counts.
  for (ReplPolicy policy :
       {ReplPolicy::kLru, ReplPolicy::kFifo, ReplPolicy::kRandom}) {
    SetArray<BareWay> a_set(policy, 1, 4, /*seed=*/7);
    ReplacementState a = a_set.replacement(0);
    SetArray<BareWay> b_set(policy, 1, 4, /*seed=*/7);
    ReplacementState b = b_set.replacement(0);
    for (int w = 0; w < 4; ++w) {
      a.fill(w, 10 + w);
      b.fill(w, 10 + w);
    }
    a.touch(1, 20);
    b.touch(1, 20);
    for (std::uint64_t t = 21; t < 29; ++t) {
      const auto choice = a.protected_victim(t, /*owner=*/0);
      EXPECT_FALSE(choice.forced);
      EXPECT_EQ(choice.way, b.victim(t, /*owner=*/0));
    }
  }
}

// ---- Set storage: never-filled sets and per-set random sequences ----------
//
// The expected victim sequences below were recorded from the eagerly
// allocated layout (one replacement state per set, seeded config.seed +
// set at construction). Allocating sets on first fill must reproduce
// them exactly, whatever order the sets are first touched in.

CacheConfig sixty_four_set_cache(ReplPolicy policy = ReplPolicy::kLru) {
  CacheConfig cfg = small_cache(policy);
  cfg.size_bytes = 16384;  // 4 ways x 64 sets
  return cfg;
}

/// Fills `count` distinct lines into `set` of a 64-set cache and returns
/// the line each full-set fill evicted. With `fresh_owners` every fill
/// comes from a new owner, so under SHARP each eviction is forced.
std::vector<Addr> fill_set(Cache& c, Addr set, int count,
                           bool fresh_owners = false) {
  std::vector<Addr> evicted;
  for (int k = 0; k < count; ++k) {
    const auto victim =
        c.fill(set + 64 * static_cast<Addr>(k), fresh_owners ? k : 0);
    if (victim) evicted.push_back(*victim);
  }
  return evicted;
}

std::vector<Addr> fill_set(Tlb& t, Addr set, int count) {
  std::vector<Addr> evicted;
  for (int k = 0; k < count; ++k) {
    const Addr vpage = set + 64 * static_cast<Addr>(k);
    if (const auto victim = t.fill({vpage, vpage, false})) {
      evicted.push_back(*victim);
    }
  }
  return evicted;
}

TEST(SetStorage, NeverFilledSetReadsEmpty) {
  Cache c(sixty_four_set_cache());
  EXPECT_EQ(c.occupancy(), 0u);
  c.flush_all();  // nothing resident yet
  EXPECT_EQ(c.occupancy(), 0u);
  c.fill(3, /*owner=*/2);
  // Set 4 shares set 3's block of 16 sets; sets 40 and 63 lie in others.
  for (const Addr line : {Addr{4}, Addr{40}, Addr{63}, Addr{63 + 64}}) {
    EXPECT_FALSE(c.probe(line)) << line;
    EXPECT_EQ(c.owner_of(line), -1) << line;
    EXPECT_FALSE(c.invalidate(line)) << line;
    EXPECT_FALSE(c.access(line)) << line;
  }
  EXPECT_EQ(c.occupancy(), 1u);
  EXPECT_EQ(c.owner_of(3), 2);
  EXPECT_EQ(c.stats().misses.value(), 4u);

  Tlb t({.name = "t", .entries = 256, .ways = 4});  // 64 sets
  EXPECT_EQ(t.occupancy(), 0u);
  t.fill({3, 30, false});
  for (const Addr vpage : {Addr{4}, Addr{40}, Addr{63}}) {
    EXPECT_FALSE(t.probe(vpage)) << vpage;
    EXPECT_FALSE(t.invalidate(vpage)) << vpage;
    EXPECT_FALSE(t.access(vpage).has_value()) << vpage;
  }
  EXPECT_EQ(t.occupancy(), 1u);
  t.flush_all();
  EXPECT_EQ(t.occupancy(), 0u);
}

TEST(SetStorage, RandomVictimsDoNotDependOnFirstTouchOrder) {
  Cache ab(sixty_four_set_cache(ReplPolicy::kRandom));
  Cache ba(sixty_four_set_cache(ReplPolicy::kRandom));
  const auto a_first = fill_set(ab, 3, 12);
  const auto b_second = fill_set(ab, 40, 12);
  const auto b_first = fill_set(ba, 40, 12);
  const auto a_second = fill_set(ba, 3, 12);
  EXPECT_EQ(a_first, a_second);
  EXPECT_EQ(b_first, b_second);
  EXPECT_EQ(a_first, (std::vector<Addr>{67, 195, 259, 323, 3, 131, 387, 579}));
  EXPECT_EQ(b_first,
            (std::vector<Addr>{168, 40, 296, 424, 104, 552, 488, 680}));
}

TEST(SetStorage, SharpForcedVictimsDoNotDependOnFirstTouchOrder) {
  CacheConfig cfg = sixty_four_set_cache(ReplPolicy::kLru);
  cfg.protection = CacheProtection::kSharp;
  Cache ab(cfg);
  Cache ba(cfg);
  const auto a_first = fill_set(ab, 3, 12, /*fresh_owners=*/true);
  const auto b_second = fill_set(ab, 40, 12, /*fresh_owners=*/true);
  const auto b_first = fill_set(ba, 40, 12, /*fresh_owners=*/true);
  const auto a_second = fill_set(ba, 3, 12, /*fresh_owners=*/true);
  EXPECT_EQ(a_first, a_second);
  EXPECT_EQ(b_first, b_second);
  EXPECT_EQ(a_first, (std::vector<Addr>{67, 195, 259, 323, 3, 131, 387, 579}));
  EXPECT_EQ(b_first,
            (std::vector<Addr>{168, 40, 296, 424, 104, 552, 488, 680}));
  EXPECT_EQ(ab.sharp_alarms(), 16u);  // every full-set fill was forced
  EXPECT_EQ(ba.sharp_alarms(), 16u);
}

TEST(SetStorage, FlushAllDoesNotRestartASetsRandomSequence) {
  Cache c(sixty_four_set_cache(ReplPolicy::kRandom));
  const auto before = fill_set(c, 3, 12);
  c.flush_all();
  EXPECT_EQ(c.occupancy(), 0u);
  const auto after = fill_set(c, 3, 12);
  EXPECT_NE(after, before);  // a restarted sequence would replay `before`
  EXPECT_EQ(after, (std::vector<Addr>{3, 67, 259, 195, 323, 131, 579, 515}));
}

TEST(SetStorage, TlbRandomVictimsFollowTheSameRules) {
  const TlbConfig cfg{.name = "t", .entries = 256, .ways = 4,
                      .policy = ReplPolicy::kRandom};
  Tlb ab(cfg);
  Tlb ba(cfg);
  const auto a_first = fill_set(ab, 3, 12);
  const auto b_second = fill_set(ab, 40, 12);
  const auto b_first = fill_set(ba, 40, 12);
  const auto a_second = fill_set(ba, 3, 12);
  EXPECT_EQ(a_first, a_second);
  EXPECT_EQ(b_first, b_second);
  EXPECT_EQ(a_first, (std::vector<Addr>{195, 67, 3, 387, 323, 451, 259, 579}));
  EXPECT_EQ(b_first,
            (std::vector<Addr>{104, 168, 40, 296, 360, 488, 552, 616}));
  ab.flush_all();
  const auto after = fill_set(ab, 3, 12);
  EXPECT_NE(after, a_first);
  EXPECT_EQ(after, (std::vector<Addr>{195, 131, 323, 3, 67, 387, 259, 579}));
}

TEST(SetStorage, ShortLastBlockHoldsEveryWay) {
  // 20 sets: one full block of 16 and a short block of 4. Each set's
  // ways, metadata and Rng must be its own, in both blocks.
  SetArray<BareWay> sets(ReplPolicy::kLru, 20, 4, /*seed=*/1);
  EXPECT_EQ(sets.occupancy(), 0u);
  EXPECT_EQ(sets.find(19), nullptr);
  for (int set = 19; set >= 0; --set) {
    ReplacementState repl = sets.replacement(set);
    for (int w = 0; w < 4; ++w) {
      sets.ways(set)[w].valid = true;
      repl.fill(w, /*tick=*/static_cast<std::uint64_t>(100 * set + w),
                /*owner=*/set);
    }
  }
  EXPECT_EQ(sets.occupancy(), 80u);
  for (int set = 0; set < 20; ++set) {
    ASSERT_NE(sets.find(set), nullptr) << set;
    for (int w = 0; w < 4; ++w) EXPECT_EQ(sets.owner_of(set, w), set);
    sets.replacement(set).touch(0, /*tick=*/10000);
    EXPECT_EQ(sets.replacement(set).victim(10001), 1) << set;
  }
  sets.ways(18)[2].valid = false;
  EXPECT_EQ(sets.occupancy(), 79u);
  sets.flush_all();
  EXPECT_EQ(sets.occupancy(), 0u);
  EXPECT_EQ(sets.owner_of(19, 3), 19);  // replacement state is kept
}

TEST(SetStorage, RandomDrawsFollowEachSetsSeedInAnyLayout) {
  // Odd geometry (5 sets of 3 one-byte ways) puts the metadata and Rng
  // arrays at padded offsets in the block. Each set's draws must still
  // be those of an Rng seeded `seed + set`, interleaved or not.
  SetArray<BareWay> sets(ReplPolicy::kRandom, 5, 3, /*seed=*/90);
  std::vector<Rng> expected;
  for (int set = 0; set < 5; ++set) expected.emplace_back(90 + set);
  for (int round = 0; round < 20; ++round) {
    for (int set = 4; set >= 0; --set) {
      const auto want = static_cast<int>(
          expected[static_cast<std::size_t>(set)].below(3));
      EXPECT_EQ(sets.replacement(set).victim(0), want) << set;
    }
  }
}

TEST(Cache, SharpForcedEvictionsAlarmAndCrossThreshold) {
  CacheConfig cfg = small_cache();
  cfg.protection = CacheProtection::kSharp;
  cfg.alarm_threshold = 2;
  Cache c(cfg);
  for (Addr k = 0; k < 4; ++k) c.fill(k * 16, /*owner=*/0);  // set 0: owner 0
  EXPECT_EQ(c.sharp_alarms(), 0u);
  c.fill(4 * 16, /*owner=*/1);  // owner 1 owns nothing here: forced
  EXPECT_EQ(c.sharp_alarms(), 1u);
  EXPECT_EQ(c.sharp_detections(), 0u);  // below threshold
  c.fill(5 * 16, /*owner=*/2);  // owner 2 likewise
  EXPECT_EQ(c.sharp_alarms(), 2u);
  EXPECT_EQ(c.sharp_detections(), 1u);  // epoch count hit the threshold
}

TEST(Cache, SharpEpochRollDiscardsStaleAlarms) {
  // Two alarms separated by more than an epoch must not add up to a
  // detection: the counter restarts with the epoch.
  CacheConfig cfg = small_cache();
  cfg.protection = CacheProtection::kSharp;
  cfg.alarm_threshold = 2;
  cfg.alarm_epoch_ticks = 4;
  Cache c(cfg);
  for (Addr k = 0; k < 4; ++k) c.fill(k * 16, /*owner=*/0);
  c.fill(4 * 16, /*owner=*/1);  // alarm in epoch A
  // Advance the tick clock (fills and touched hits move it) past the
  // epoch length with traffic in another set.
  c.fill(1);
  for (int i = 0; i < 8; ++i) c.access(1);
  c.fill(5 * 16, /*owner=*/2);  // alarm, but epoch A has rolled over
  EXPECT_EQ(c.sharp_alarms(), 2u);
  EXPECT_EQ(c.sharp_detections(), 0u);
}

TEST(Cache, DetectOnlyAlarmsWithoutChangingVictims) {
  // detect-only is pure telemetry: the victim stream is the unprotected
  // one (resident lines match an unprotected twin), but every
  // cross-owner eviction alarms.
  CacheConfig det = small_cache();
  det.protection = CacheProtection::kDetectOnly;
  det.alarm_threshold = 1;
  Cache plain(small_cache());
  Cache c(det);
  for (Addr k = 0; k < 5; ++k) {
    const int owner = k == 4 ? 1 : 0;
    plain.fill(k * 16, owner);
    c.fill(k * 16, owner);
  }
  for (Addr k = 0; k < 5; ++k) {
    EXPECT_EQ(c.probe(k * 16), plain.probe(k * 16)) << "line " << k * 16;
  }
  EXPECT_EQ(plain.sharp_alarms(), 0u);
  EXPECT_EQ(c.sharp_alarms(), 1u);      // owner 1 evicted owner 0's line
  EXPECT_EQ(c.sharp_detections(), 1u);  // threshold 1
}

TEST(Cache, CrossOwnerEvictionAttribution) {
  Cache c(small_cache());  // 4 ways, 16 sets: lines k*16 share set 0
  for (Addr k = 0; k < 4; ++k) c.fill(k * 16, /*owner=*/0);
  EXPECT_EQ(c.owner_of(0), 0);
  EXPECT_EQ(c.cross_owner_evictions(), 0u);
  // Owner 1 overflows the set: the LRU victim (line 0) belonged to owner 0.
  const auto evicted = c.fill(4 * 16, /*owner=*/1);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(*evicted, 0u);
  EXPECT_EQ(c.owner_of(4 * 16), 1);
  EXPECT_EQ(c.cross_owner_evictions(), 1u);
}

TEST(Cache, SameOwnerEvictionsAreNotCounted) {
  Cache c(small_cache());
  for (Addr k = 0; k < 6; ++k) c.fill(k * 16, /*owner=*/2);
  EXPECT_EQ(c.cross_owner_evictions(), 0u);  // self-evictions don't count
}

// ---- CacheHierarchy ---------------------------------------------------------

HierarchyConfig tiny_hierarchy() {
  HierarchyConfig h;
  h.l1i = {.name = "L1I", .size_bytes = 1024, .ways = 2, .line_bytes = 64,
           .hit_latency = 4};
  h.l1d = {.name = "L1D", .size_bytes = 1024, .ways = 2, .line_bytes = 64,
           .hit_latency = 4};
  h.l2 = {.name = "L2", .size_bytes = 4096, .ways = 4, .line_bytes = 64,
          .hit_latency = 12};
  h.l3 = {.name = "L3", .size_bytes = 16384, .ways = 8, .line_bytes = 64,
          .hit_latency = 44};
  h.memory_latency = 191;
  return h;
}

TEST(Hierarchy, LatenciesPerLevel) {
  CacheHierarchy h(tiny_hierarchy());
  // Cold: memory.
  auto out = h.timed_access(0x10000, Side::kData, CacheHierarchy::Fill::kYes);
  EXPECT_EQ(out.latency, 191u);
  // Now L1.
  out = h.timed_access(0x10000, Side::kData, CacheHierarchy::Fill::kYes);
  EXPECT_EQ(out.latency, 4u);
  EXPECT_EQ(out.level, HitLevel::kL1);
}

TEST(Hierarchy, NonFillingAccessLeavesNoTrace) {
  CacheHierarchy h(tiny_hierarchy());
  h.timed_access(0x20000, Side::kData, CacheHierarchy::Fill::kNo);
  EXPECT_FALSE(h.resident_l1(line_of(0x20000), Side::kData));
  EXPECT_FALSE(h.resident_l2(line_of(0x20000)));
  EXPECT_FALSE(h.resident_l3(line_of(0x20000)));
}

TEST(Hierarchy, InclusiveFillPopulatesAllLevels) {
  CacheHierarchy h(tiny_hierarchy());
  h.fill_all_levels(7, Side::kData);
  EXPECT_TRUE(h.resident_l1(7, Side::kData));
  EXPECT_TRUE(h.resident_l2(7));
  EXPECT_TRUE(h.resident_l3(7));
  EXPECT_FALSE(h.resident_l1(7, Side::kInstr));  // other L1 untouched
}

TEST(Hierarchy, FlushLineRemovesEverywhere) {
  CacheHierarchy h(tiny_hierarchy());
  h.fill_all_levels(7, Side::kData);
  h.flush_line(7);
  EXPECT_FALSE(h.resident_l1(7, Side::kData));
  EXPECT_FALSE(h.resident_l2(7));
  EXPECT_FALSE(h.resident_l3(7));
}

TEST(Hierarchy, L2EvictionBackInvalidatesL1) {
  CacheHierarchy h(tiny_hierarchy());
  // L2: 4096B/4w/64B = 16 sets. Lines k*16 alias to L2 set 0.
  // L1D: 1024/2/64 = 8 sets; k*16 alias to L1 set 0 too (2 ways).
  h.fill_all_levels(0, Side::kData);
  // Fill 4 more lines in the same L2 set to force an L2 eviction of 0.
  for (Addr k = 1; k <= 4; ++k) h.fill_all_levels(k * 16, Side::kData);
  EXPECT_FALSE(h.resident_l2(0));
  // Inclusion: line 0 must have been back-invalidated from L1D as well.
  EXPECT_FALSE(h.resident_l1(0, Side::kData));
}

TEST(Hierarchy, L3HitPromotionSkipsBackInvalidation) {
  // Pins the documented inclusion quirk (cache_hierarchy.h,
  // SharedLevels::access_below_l1): promoting an L3 hit into L2 discards
  // the L2 eviction, so a line pushed out of L2 on that path stays in
  // the L1s — strict L1-vs-L2 inclusion is briefly violated. Golden
  // cycle counts depend on this; a fix must re-bless them.
  CacheHierarchy h(tiny_hierarchy());
  // L2: 16 sets, 4 ways. Fill set 0, then overflow it from memory: the
  // fill_shared path *does* back-invalidate, so line 0 leaves L1/L2 but
  // stays in L3.
  for (Addr k = 0; k <= 4; ++k) h.fill_all_levels(k * 16, Side::kData);
  ASSERT_FALSE(h.resident_l2(0));
  ASSERT_TRUE(h.resident_l3(0));
  ASSERT_FALSE(h.resident_l1(0, Side::kData));
  // L2 set 0 is now {16,32,48,64} with 16 the LRU. Plant line 16 in L1D
  // so we can watch what the promotion's L2 eviction does to it.
  h.l1d().fill(16);
  ASSERT_TRUE(h.resident_l1(16, Side::kData));
  // Touch line 0: L2 miss, L3 hit. The promotion fills L2 and evicts 16.
  const auto out =
      h.timed_access(0, Side::kData, CacheHierarchy::Fill::kYes);
  EXPECT_EQ(out.level, HitLevel::kL3);
  EXPECT_FALSE(h.resident_l2(16));
  // The quirk: line 16 survives in L1D (inclusion says it should not).
  EXPECT_TRUE(h.resident_l1(16, Side::kData));
  // It is still L3-resident, so a later L3 eviction cleans it up.
  EXPECT_TRUE(h.resident_l3(16));
}

// ---- SharedLevels: two private hierarchies over one L2/L3 ------------------

TEST(SharedLevels, SharedFillIsVisibleToEveryAttachedCore) {
  const HierarchyConfig cfg = tiny_hierarchy();
  SharedLevels shared(cfg);
  CacheHierarchy h0(cfg, &shared, /*owner=*/0);
  CacheHierarchy h1(cfg, &shared, /*owner=*/1);
  EXPECT_EQ(shared.num_attached(), 2);

  h0.fill_all_levels(7, Side::kData);
  EXPECT_TRUE(h0.resident_l1(7, Side::kData));
  EXPECT_FALSE(h1.resident_l1(7, Side::kData));  // private level stays private
  EXPECT_TRUE(h1.resident_l2(7));                // shared levels are one array
  EXPECT_TRUE(h1.resident_l3(7));
}

TEST(SharedLevels, RemoteEvictionBackInvalidatesOtherCoresL1) {
  const HierarchyConfig cfg = tiny_hierarchy();
  SharedLevels shared(cfg);
  CacheHierarchy h0(cfg, &shared, /*owner=*/0);
  CacheHierarchy h1(cfg, &shared, /*owner=*/1);

  h0.fill_all_levels(0, Side::kData);
  // Core 1 overflows shared-L2 set 0 (4 ways): core 0's line is evicted
  // from L2 and inclusion must back-invalidate it from core 0's L1 even
  // though core 0 did nothing.
  for (Addr k = 1; k <= 4; ++k) h1.fill_all_levels(k * 16, Side::kData);
  EXPECT_FALSE(h0.resident_l2(0));
  EXPECT_FALSE(h0.resident_l1(0, Side::kData));
  EXPECT_GT(shared.cross_core_evictions(), 0u);
}

TEST(SharedLevels, FlushLineIsCoherenceGlobal) {
  const HierarchyConfig cfg = tiny_hierarchy();
  SharedLevels shared(cfg);
  CacheHierarchy h0(cfg, &shared, /*owner=*/0);
  CacheHierarchy h1(cfg, &shared, /*owner=*/1);

  h0.fill_all_levels(7, Side::kData);
  h1.fill_all_levels(7, Side::kData);
  h1.flush_line(7);  // spy-side flush must reach the victim's L1 too
  EXPECT_FALSE(h0.resident_l1(7, Side::kData));
  EXPECT_FALSE(h1.resident_l1(7, Side::kData));
  EXPECT_FALSE(h0.resident_l2(7));
  EXPECT_FALSE(h0.resident_l3(7));
}

// ---- TLB --------------------------------------------------------------------

TEST(TlbTest, MissFillHit) {
  Tlb tlb({.name = "t", .entries = 8, .ways = 2});
  EXPECT_FALSE(tlb.access(42).has_value());
  tlb.fill({42, 77, false});
  const auto hit = tlb.access(42);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->ppage, 77u);
  EXPECT_FALSE(hit->kernel_only);
}

TEST(TlbTest, EvictionReturnsVictim) {
  Tlb tlb({.name = "t", .entries = 4, .ways = 2});  // 2 sets
  // vpages 0,2,4 all map to set 0.
  tlb.fill({0, 0, false});
  tlb.fill({2, 2, false});
  const auto evicted = tlb.fill({4, 4, false});
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(*evicted, 0u);  // LRU
}

TEST(TlbTest, InvalidateAndFlush) {
  Tlb tlb({.name = "t", .entries = 8, .ways = 2});
  tlb.fill({1, 1, false});
  tlb.fill({2, 2, true});
  EXPECT_TRUE(tlb.invalidate(1));
  EXPECT_FALSE(tlb.probe(1));
  tlb.flush_all();
  EXPECT_EQ(tlb.occupancy(), 0u);
}

TEST(TlbTest, RefillUpdatesInPlace) {
  Tlb tlb({.name = "t", .entries = 8, .ways = 2});
  tlb.fill({1, 10, false});
  tlb.fill({1, 20, true});
  const auto hit = tlb.access(1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->ppage, 20u);
  EXPECT_TRUE(hit->kernel_only);
  EXPECT_EQ(tlb.occupancy(), 1u);
}

// ---- PageTable ----------------------------------------------------------------

TEST(PageTableTest, TranslateMappedAndUnmapped) {
  PageTable pt;
  pt.map(5, 99, /*kernel_only=*/true);
  const auto t = pt.translate(5);
  EXPECT_TRUE(t.present);
  EXPECT_EQ(t.ppage, 99u);
  EXPECT_TRUE(t.kernel_only);
  EXPECT_FALSE(pt.translate(6).present);
}

TEST(PageTableTest, WalkHasFourLevels) {
  PageTable pt;
  EXPECT_EQ(pt.walk_addresses(0x1234).size(),
            static_cast<std::size_t>(PageTable::kWalkLevels));
}

TEST(PageTableTest, WalkAddressesAreStableAndShareUpperLevels) {
  PageTable pt;
  const auto a1 = pt.walk_addresses(0x1000);
  const auto a2 = pt.walk_addresses(0x1000);
  EXPECT_EQ(a1, a2);  // deterministic
  // Neighbouring pages share the root (level 0) table entry region.
  const auto b = pt.walk_addresses(0x1001);
  EXPECT_EQ(page_of(a1[0]), page_of(b[0]));
}

TEST(PageTableTest, WalkAddressesScatterAcrossCacheSets) {
  // Regression test: a naive power-of-two page-table layout aliases every
  // walk line into one cache set, which distorted timing badly.
  PageTable pt;
  std::set<int> sets;
  // Widely separated pages use distinct table pages at every level; their
  // walk lines must spread over many cache sets, not alias to one.
  for (Addr v = 0; v < 64; ++v) {
    for (const Addr a : pt.walk_addresses(v * 0x40000 + 0x123)) {
      sets.insert(static_cast<int>(line_of(a) % 1024));
    }
  }
  EXPECT_GT(sets.size(), 32u);
}

}  // namespace
}  // namespace safespec::memory
