// Unit tests for the SafeSpec shadow structures: reference-counted
// lifecycle, promotion vs annulment accounting, full-table policies, and
// the occupancy statistics the sizing figures (6-9) are built from.
#include <gtest/gtest.h>

#include "safespec/shadow_structures.h"

namespace safespec::shadow {
namespace {

ShadowConfig config_of(int entries, FullPolicy policy = FullPolicy::kDrop) {
  return {.name = "t", .entries = entries, .full_policy = policy};
}

TEST(ShadowTable, InsertLookupRelease) {
  ShadowCache t(config_of(4));
  const auto id = t.insert(100, {});
  ASSERT_NE(id, ShadowCache::kNone);
  EXPECT_TRUE(t.contains(100));
  EXPECT_EQ(t.key(id), 100u);
  t.release(id);
  EXPECT_FALSE(t.contains(100));
  EXPECT_EQ(t.stats().squashed.value(), 1u);  // never promoted
}

TEST(ShadowTable, PromotedReleaseCountsAsCommitted) {
  ShadowCache t(config_of(4));
  const auto id = t.insert(100, {});
  t.mark_promoted(id);
  t.release(id);
  EXPECT_EQ(t.stats().committed.value(), 1u);
  EXPECT_EQ(t.stats().squashed.value(), 0u);
}

TEST(ShadowTable, MarkPromotedIsIdempotent) {
  ShadowCache t(config_of(4));
  const auto id = t.insert(100, {});
  t.mark_promoted(id);
  t.mark_promoted(id);
  EXPECT_EQ(t.stats().committed.value(), 1u);
  t.release(id);
}

TEST(ShadowTable, RefcountKeepsEntryAliveAcrossSharers) {
  ShadowCache t(config_of(4));
  const auto a = t.insert(100, {});
  const auto b = t.acquire_existing(100);
  ASSERT_EQ(a, b);  // same entry shared
  t.release(a);
  EXPECT_TRUE(t.contains(100));  // second holder keeps it live
  t.release(b);
  EXPECT_FALSE(t.contains(100));
}

TEST(ShadowTable, AcquireRecordsHitUnlessQuiet) {
  ShadowCache t(config_of(4));
  const auto a = t.insert(100, {});
  const auto b = t.acquire_existing(100);
  const auto c = t.acquire_existing(100, /*count_stats=*/false);
  EXPECT_EQ(t.stats().hits.value(), 1u);
  t.release(a);
  t.release(b);
  t.release(c);
}

TEST(ShadowTable, AcquireMissesReturnNone) {
  ShadowCache t(config_of(4));
  EXPECT_EQ(t.acquire_existing(123), ShadowCache::kNone);
}

TEST(ShadowTable, FullDropCountsDrops) {
  ShadowCache t(config_of(2, FullPolicy::kDrop));
  const auto a = t.insert(1, {});
  const auto b = t.insert(2, {});
  EXPECT_EQ(t.insert(3, {}), ShadowCache::kNone);
  EXPECT_EQ(t.stats().full_drops.value(), 1u);
  EXPECT_EQ(t.stats().full_stalls.value(), 0u);
  t.release(a);
  t.release(b);
}

TEST(ShadowTable, FullStallCountsStalls) {
  ShadowCache t(config_of(2, FullPolicy::kStall));
  const auto a = t.insert(1, {});
  const auto b = t.insert(2, {});
  EXPECT_FALSE(t.has_room());
  EXPECT_EQ(t.insert(3, {}), ShadowCache::kNone);
  EXPECT_EQ(t.stats().full_stalls.value(), 1u);
  t.release(a);
  EXPECT_TRUE(t.has_room());
  EXPECT_NE(t.insert(3, {}), ShadowCache::kNone);
  t.release(b);
}

TEST(ShadowTable, LiveCountTracksEntriesNotRefs) {
  ShadowCache t(config_of(8));
  const auto a = t.insert(1, {});
  const auto b = t.acquire_existing(1);
  EXPECT_EQ(t.live_count(), 1);
  const auto c = t.insert(2, {});
  EXPECT_EQ(t.live_count(), 2);
  t.release(a);
  t.release(b);
  t.release(c);
  EXPECT_EQ(t.live_count(), 0);
}

TEST(ShadowTable, PayloadAliasesPayloadOf) {
  // payload() is the historical accessor name; instantiating it caught a
  // latent call to a nonexistent Entry::key_payload().
  shadow::ShadowTlb t({.name = "t", .entries = 4});
  const auto id = t.insert(0x7, {0x42, /*kernel_only=*/false});
  ASSERT_NE(id, shadow::ShadowTlb::kNone);
  EXPECT_EQ(t.payload(id).ppage, t.payload_of(id).ppage);
  EXPECT_EQ(t.payload(id).ppage, 0x42u);
}

TEST(ShadowTable, TlbPayloadRoundTrips) {
  ShadowTlb t(config_of(4));
  const auto id = t.insert(0x42, {0x99, true});
  ASSERT_NE(id, ShadowTlb::kNone);
  EXPECT_EQ(t.payload_of(id).ppage, 0x99u);
  EXPECT_TRUE(t.payload_of(id).kernel_only);
  t.release(id);
}

TEST(ShadowTable, OccupancySamplesFeedPercentiles) {
  ShadowCache t(config_of(8));
  // Occupancy 0 for 9998 samples, 5 for 2 samples: p99.99 must reach
  // into the tail the figures care about (0 covers only 99.98% here).
  for (int i = 0; i < 9998; ++i) t.sample_occupancy();
  std::vector<int> ids;
  for (int i = 0; i < 5; ++i) ids.push_back(t.insert(100 + i, {}));
  t.sample_occupancy();
  t.sample_occupancy();
  EXPECT_EQ(t.stats().occupancy.percentile(0.9999), 5u);
  EXPECT_EQ(t.stats().occupancy.percentile(0.5), 0u);
  for (int id : ids) t.release(id);
}

TEST(ShadowTable, FlushAllSquashesLiveEntries) {
  ShadowCache t(config_of(4));
  t.insert(1, {});
  t.insert(2, {});
  t.flush_all();
  EXPECT_EQ(t.live_count(), 0);
  EXPECT_EQ(t.stats().squashed.value(), 2u);
}

TEST(ShadowStats, CommitRate) {
  ShadowStats s;
  s.committed.add(3);
  s.squashed.add(1);
  EXPECT_DOUBLE_EQ(s.commit_rate(), 0.75);
}

TEST(ShadowTable, ReusesFreedSlots) {
  ShadowCache t(config_of(2));
  const auto a = t.insert(1, {});
  const auto b = t.insert(2, {});
  t.release(a);
  const auto c = t.insert(3, {});
  EXPECT_NE(c, ShadowCache::kNone);
  EXPECT_TRUE(t.contains(2));
  EXPECT_TRUE(t.contains(3));
  EXPECT_FALSE(t.contains(1));
  t.release(b);
  t.release(c);
}

TEST(PolicyNames, ToString) {
  EXPECT_STREQ(to_string(FullPolicy::kDrop), "drop");
  EXPECT_STREQ(to_string(FullPolicy::kStall), "stall");
}

}  // namespace
}  // namespace safespec::shadow
