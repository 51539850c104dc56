// Unit and property tests for the common utilities: deterministic RNG,
// counters, histograms/percentiles, and the geometric mean.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/addr_map.h"
#include "common/paged_addr_map.h"
#include "common/rng.h"
#include "common/stats.h"

namespace safespec {
namespace {

// ---- Rng ----------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.next() == b.next() ? 1 : 0;
  EXPECT_LT(equal, 5);
}

TEST(RngTest, BelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(RngTest, BelowOneAlwaysZero) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(RngTest, BelowIsUnbiased) {
  // Lemire rejection: every residue equally likely. The old modulo
  // reduction skewed small values; with bound 3 over 30000 draws each
  // bucket must sit near 10000 (±5 sigma ≈ ±410).
  Rng rng(12);
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 30000; ++i) counts[rng.below(3)]++;
  for (int c : counts) EXPECT_NEAR(c, 10000, 450);
}

TEST(RngTest, BelowHandlesHugeBounds) {
  // Bounds just above 2^63 are where modulo bias was worst (a factor-2
  // skew); rejection must still respect the bound and terminate.
  Rng rng(13);
  const std::uint64_t bound = (1ULL << 63) + 12345;
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(bound), bound);
}

TEST(RngTest, RangeInclusive) {
  Rng rng(8);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.range(3, 6);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 6u);
    saw_lo |= v == 3;
    saw_hi |= v == 6;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(10);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

TEST(RngTest, ChanceApproximatesProbability) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, ReseedRestartsSequence) {
  Rng rng(5);
  const auto first = rng.next();
  rng.next();
  rng.reseed(5);
  EXPECT_EQ(rng.next(), first);
}

// ---- Counter / HitMiss ----------------------------------------------------------

TEST(CounterTest, AddAndReset) {
  Counter c;
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(HitMissTest, Rates) {
  HitMiss hm;
  hm.hits.add(3);
  hm.misses.add(1);
  EXPECT_DOUBLE_EQ(hm.hit_rate(), 0.75);
  EXPECT_DOUBLE_EQ(hm.miss_rate(), 0.25);
  EXPECT_EQ(hm.accesses(), 4u);
}

TEST(HitMissTest, EmptyIsZeroNotNan) {
  HitMiss hm;
  EXPECT_DOUBLE_EQ(hm.hit_rate(), 0.0);
  EXPECT_DOUBLE_EQ(hm.miss_rate(), 0.0);
}

// ---- Histogram -------------------------------------------------------------------

TEST(HistogramTest, BasicMoments) {
  Histogram h;
  for (std::uint64_t v : {1, 2, 3, 4}) h.record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.max(), 4u);
  EXPECT_DOUBLE_EQ(h.mean(), 2.5);
}

TEST(HistogramTest, PercentileEdges) {
  Histogram h;
  for (int i = 0; i < 99; ++i) h.record(1);
  h.record(50);
  EXPECT_EQ(h.percentile(0.5), 1u);
  EXPECT_EQ(h.percentile(0.99), 1u);
  EXPECT_EQ(h.percentile(1.0), 50u);
}

TEST(HistogramTest, EmptyPercentileIsZero) {
  Histogram h;
  EXPECT_EQ(h.percentile(0.9999), 0u);
}

TEST(HistogramTest, P9999ReachesIntoTheTail) {
  Histogram h;
  // 9998 zeros + 2 sevens: zero covers only 99.98% of samples, so the
  // 99.99th percentile must report the tail value.
  for (int i = 0; i < 9998; ++i) h.record(0);
  h.record(7);
  h.record(7);
  EXPECT_EQ(h.percentile(0.9999), 7u);
  // With 9999 zeros + 1 seven, zero covers exactly 99.99%.
  Histogram h2;
  for (int i = 0; i < 9999; ++i) h2.record(0);
  h2.record(7);
  EXPECT_EQ(h2.percentile(0.9999), 0u);
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.record(3);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(HistogramTest, ResetDropsPendingRun) {
  Histogram h;
  h.record_run(5);
  h.record_run(5);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  h.record_run(1);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.max(), 1u);
}

TEST(HistogramProperty, RecordRunMatchesRecord) {
  // record_run is the occupancy-sampling fast path; any interleaving of
  // record/record_run(sample, n) must produce statistics identical to
  // plain record called n times.
  Histogram batched, plain;
  Rng rng(2024);
  std::uint64_t value = 0;
  for (int i = 0; i < 20000; ++i) {
    // Mostly repeat the previous sample (realistic occupancy runs),
    // sometimes jump, sometimes go through the unbatched entry point.
    if (rng.below(8) == 0) value = rng.below(64);
    // Run lengths: mostly one sample, sometimes a skipped idle stretch,
    // now and then an empty run.
    std::uint64_t n = 1;
    const std::uint64_t length_kind = rng.below(16);
    if (length_kind == 0) {
      n = 0;
    } else if (length_kind < 4) {
      n = 1 + rng.below(500);
    }
    if (rng.below(50) == 0) {
      for (std::uint64_t k = 0; k < n; ++k) batched.record(value);
    } else if (n == 1 && rng.below(2) == 0) {
      batched.record_run(value);
    } else {
      batched.record_run(value, n);
    }
    for (std::uint64_t k = 0; k < n; ++k) plain.record(value);
    if (i % 1000 == 0) {
      // Mid-stream reads must flush the pending run, not lose it.
      EXPECT_EQ(batched.count(), plain.count());
    }
  }
  EXPECT_EQ(batched.count(), plain.count());
  EXPECT_EQ(batched.max(), plain.max());
  EXPECT_DOUBLE_EQ(batched.mean(), plain.mean());
  for (double f : {0.1, 0.5, 0.9, 0.99, 0.9999, 1.0}) {
    EXPECT_EQ(batched.percentile(f), plain.percentile(f)) << "fraction " << f;
  }
}

TEST(HistogramTest, EmptyRunRecordsNothing) {
  Histogram h;
  h.record_run(7, 0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
  h.record_run(3, 4);
  h.record_run(3, 0);
  h.record_run(5, 2);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.mean(), 22.0 / 6.0);
}

TEST(HistogramTest, MergeFlushesPendingRuns) {
  Histogram a, b;
  a.record_run(2);
  a.record_run(2);
  b.record_run(9);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.max(), 9u);
  EXPECT_DOUBLE_EQ(a.mean(), 13.0 / 3.0);
}

TEST(HistogramProperty, PercentileMonotoneInFraction) {
  Histogram h;
  Rng rng(99);
  for (int i = 0; i < 5000; ++i) h.record(rng.below(100));
  std::uint64_t prev = 0;
  for (double f : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.9999, 1.0}) {
    const auto p = h.percentile(f);
    EXPECT_GE(p, prev) << "fraction " << f;
    prev = p;
  }
}

// ---- geometric_mean ---------------------------------------------------------------

TEST(GeoMeanTest, KnownValue) {
  EXPECT_NEAR(geometric_mean({2.0, 8.0}), 4.0, 1e-12);
}

TEST(GeoMeanTest, EmptyIsZero) { EXPECT_EQ(geometric_mean({}), 0.0); }

TEST(GeoMeanTest, InvariantUnderPermutation) {
  EXPECT_NEAR(geometric_mean({1.0, 2.0, 3.0}),
              geometric_mean({3.0, 1.0, 2.0}), 1e-12);
}

TEST(GeoMeanTest, BetweenMinAndMax) {
  Rng rng(3);
  std::vector<double> vs;
  for (int i = 0; i < 50; ++i) vs.push_back(0.5 + rng.uniform());
  const double g = geometric_mean(vs);
  EXPECT_GE(g, *std::min_element(vs.begin(), vs.end()));
  EXPECT_LE(g, *std::max_element(vs.begin(), vs.end()));
}

TEST(PagedAddrMapTest, InsertLookupDense) {
  PagedAddrMap<std::uint64_t> m;
  for (Addr k = 0; k < 10000; ++k) m[k] = k * 3;
  EXPECT_EQ(m.size(), 10000u);
  for (Addr k = 0; k < 10000; ++k) {
    const std::uint64_t* v = m.find(k);
    ASSERT_NE(v, nullptr) << k;
    EXPECT_EQ(*v, k * 3);
  }
  EXPECT_EQ(m.find(10000), nullptr);
  EXPECT_FALSE(m.contains(1u << 30));
}

TEST(PagedAddrMapTest, HugeKeysFallBackToOverflow) {
  // Keys past the directory's reach must round-trip through the hash
  // overflow, and coexist with direct-range keys.
  PagedAddrMap<std::uint64_t> m;
  const Addr huge = Addr{1} << 45;
  m[huge] = 42;
  m[huge + 1] = 43;
  m[7] = 1;
  EXPECT_EQ(m.size(), 3u);
  ASSERT_NE(m.find(huge), nullptr);
  EXPECT_EQ(*m.find(huge), 42u);
  EXPECT_EQ(*m.find(huge + 1), 43u);
  EXPECT_EQ(m.find(huge + 2), nullptr);
  EXPECT_EQ(*m.find(7), 1u);
}

TEST(PagedAddrMapProperty, MatchesAddrMapOnRandomStreams) {
  // Differential check against the flat hash map across a mix of dense,
  // page-straddling, and overflow-range keys.
  Rng rng(2026);
  PagedAddrMap<std::uint64_t> paged;
  AddrMap<std::uint64_t> reference;
  for (int i = 0; i < 20000; ++i) {
    Addr key;
    switch (rng.below(3)) {
      case 0: key = rng.below(1 << 14); break;            // dense
      case 1: key = rng.below(1u << 31); break;           // sparse direct
      default: key = (Addr{1} << 40) + rng.below(1000); break;  // overflow
    }
    const std::uint64_t value = rng.next();
    paged[key] = value;
    reference[key] = value;
  }
  EXPECT_EQ(paged.size(), reference.size());
  reference.for_each([&paged](Addr k, std::uint64_t v) {
    const std::uint64_t* got = paged.find(k);
    ASSERT_NE(got, nullptr) << k;
    EXPECT_EQ(*got, v) << k;
  });
  std::uint64_t seen = 0;
  paged.for_each([&](Addr k, std::uint64_t v) {
    ++seen;
    const std::uint64_t* ref = reference.find(k);
    ASSERT_NE(ref, nullptr) << k;
    EXPECT_EQ(*ref, v) << k;
  });
  EXPECT_EQ(seen, reference.size());
}

/// Keys at the map's structural edges for a page of 2^PageBits keys: the
/// first page, both sides of the first leaf boundary (pages 1023/1024),
/// word page 16384 (where a fuzz kernel region's words live), and both
/// sides of the overflow boundary.
template <int PageBits>
std::vector<Addr> boundary_keys() {
  using Map = PagedAddrMap<std::uint64_t, PageBits>;
  const auto page = [](Addr p) { return p << PageBits; };
  return {0,
          1,
          63,
          64,
          page(1) - 1,
          page(1023),
          page(1024) - 1,
          page(1024),
          page(1024) + 65,
          page(16384),
          page(16384) + 4,
          Map::kDirectKeys - 1,
          Map::kDirectKeys,
          Map::kDirectKeys + 1};
}

template <int PageBits>
void check_boundary_keys() {
  PagedAddrMap<std::uint64_t, PageBits> m;
  const std::vector<Addr> keys = boundary_keys<PageBits>();
  for (std::size_t i = 0; i < keys.size(); ++i) m[keys[i]] = 1000 + i;
  EXPECT_EQ(m.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::uint64_t* v = m.find(keys[i]);
    ASSERT_NE(v, nullptr) << keys[i];
    EXPECT_EQ(*v, 1000 + i) << keys[i];
  }
  // Neighbours of the set keys stay absent.
  for (const Addr absent :
       {Addr{2}, Addr{65}, (Addr{1023} << PageBits) + 1,
        (Addr{1024} << PageBits) + 1, (Addr{16384} << PageBits) + 1,
        Addr{16385} << PageBits, m.kDirectKeys - 2, m.kDirectKeys + 2}) {
    EXPECT_EQ(m.find(absent), nullptr) << absent;
  }
  // for_each reports every key exactly once, in ascending order here
  // (the overflow part holds two keys, reported after the direct range).
  std::vector<Addr> seen;
  m.for_each([&seen, &m](Addr k, std::uint64_t v) {
    EXPECT_EQ(*m.find(k), v) << k;
    seen.push_back(k);
  });
  ASSERT_EQ(seen.size(), keys.size());
  std::sort(seen.end() - 2, seen.end());
  EXPECT_EQ(seen, keys);
}

TEST(PagedAddrMapTest, DeepCopyIsIndependent) {
  PagedAddrMap<int> a;
  a[5] = 50;
  a[Addr{1} << 50] = 51;
  PagedAddrMap<int> b = a;
  b[5] = 99;
  b[6] = 60;
  EXPECT_EQ(*a.find(5), 50);
  EXPECT_EQ(a.find(6), nullptr);
  EXPECT_EQ(*b.find(5), 99);
  EXPECT_EQ(*b.find(Addr{1} << 50), 51);

  // Across leaves, and assigned over a map that already holds keys.
  const std::vector<Addr> keys = boundary_keys<12>();
  PagedAddrMap<std::uint64_t> c;
  for (const Addr k : keys) c[k] = k + 1;
  PagedAddrMap<std::uint64_t> d;
  d[Addr{5} << 12] = 7;
  d = c;
  EXPECT_EQ(d.size(), keys.size());
  EXPECT_EQ(d.find(Addr{5} << 12), nullptr);
  for (const Addr k : keys) {
    d[k] = 0;
    ASSERT_NE(c.find(k), nullptr) << k;
    EXPECT_EQ(*c.find(k), k + 1) << k;
  }
  c[Addr{16384} << 12 | 9] = 3;  // a new key in a leaf both maps hold
  EXPECT_EQ(d.find(Addr{16384} << 12 | 9), nullptr);
  EXPECT_EQ(d.size(), keys.size());
}

TEST(PagedAddrMapTest, KeysAtLeafAndOverflowBoundaries) {
  check_boundary_keys<12>();  // memory words, permissions, program text
  check_boundary_keys<9>();   // page-table translations
}

TEST(PagedAddrMapTest, ForEachIsAscendingOverTheDirectRange) {
  Rng rng(19);
  PagedAddrMap<std::uint64_t> m;
  std::set<Addr> direct;
  std::set<Addr> overflow;
  for (int i = 0; i < 5000; ++i) {
    Addr key;
    switch (rng.below(4)) {
      case 0: key = rng.below(3 << 12); break;  // dense, page-straddling
      case 1: key = (Addr{1024} << 12) - 64 + rng.below(128); break;
      case 2: key = rng.below(64) << 26 | rng.below(256); break;  // sparse
      default: key = m.kDirectKeys + rng.below(Addr{1} << 40); break;
    }
    m[key] = key ^ 0x5a;
    (key < m.kDirectKeys ? direct : overflow).insert(key);
  }
  std::vector<Addr> seen;
  m.for_each([&seen](Addr k, std::uint64_t v) {
    EXPECT_EQ(v, k ^ 0x5a);
    seen.push_back(k);
  });
  ASSERT_EQ(seen.size(), direct.size() + overflow.size());
  const auto split = seen.begin() + static_cast<std::ptrdiff_t>(direct.size());
  EXPECT_EQ(std::vector<Addr>(seen.begin(), split),
            std::vector<Addr>(direct.begin(), direct.end()));
  EXPECT_EQ(std::set<Addr>(split, seen.end()), overflow);
}

TEST(PagedAddrMapTest, ClearDropsEverything) {
  PagedAddrMap<int> m;
  m[1] = 1;
  m[Addr{1} << 40] = 2;
  EXPECT_EQ(m.size(), 2u);
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(1), nullptr);
  EXPECT_EQ(m.find(Addr{1} << 40), nullptr);
}

}  // namespace
}  // namespace safespec
