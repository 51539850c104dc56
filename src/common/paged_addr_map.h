// Paged backing array with a hash-map overflow, for the simulator's
// hottest per-access lookups (memory words, page permissions, page-table
// translations, program text). AddrMap already beats std::unordered_map,
// but it still pays a hash mix and a probe per lookup. The address
// streams these tables serve are overwhelmingly *dense* — a workload's
// data region, a program's text — so a two-level page directory indexed
// directly by the key's high bits turns the common lookup into shift /
// index / index / load. Keys past the directory's reach (sparse, huge —
// e.g. synthetic high addresses) fall back to an AddrMap so correctness
// never depends on density.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/addr_map.h"
#include "common/types.h"

namespace safespec {

/// Insert/lookup-only map keyed by Addr (no per-key erase; clear() drops
/// everything — the same contract as AddrMap). Values must be
/// default-constructible. A page holds 2^PageBits consecutive keys and is
/// allocated when its first key is inserted; a leaf holds the pointers of
/// 1024 consecutive pages and is allocated with its first page, so a
/// fresh map costs what its keys touch, not what their magnitude spans.
template <typename V, int PageBits = 12>
class PagedAddrMap {
  static_assert(PageBits >= 6, "a page's presence bitmap is whole words");

 public:
  /// Keys below this live in the direct range: for_each() visits them in
  /// ascending order, before any overflow key (all of which are larger).
  static constexpr Addr kDirectKeys = Addr{1} << (20 + PageBits);

  PagedAddrMap() = default;
  PagedAddrMap(PagedAddrMap&&) = default;
  PagedAddrMap& operator=(PagedAddrMap&&) = default;
  // Deep copies: Program and MainMemory are value types the harnesses
  // copy freely (one machine per cell), so the leaves and pages must
  // clone.
  PagedAddrMap(const PagedAddrMap& other) { *this = other; }
  PagedAddrMap& operator=(const PagedAddrMap& other) {
    if (this == &other) return *this;
    leaves_.clear();
    leaves_.resize(other.leaves_.size());
    for (std::size_t l = 0; l < leaves_.size(); ++l) {
      const Leaf* src = other.leaves_[l].get();
      if (src == nullptr) continue;
      leaves_[l] = std::make_unique<Leaf>();
      for (std::size_t i = 0; i < kLeafPages; ++i) {
        if ((*src)[i]) (*leaves_[l])[i] = std::make_unique<Page>(*(*src)[i]);
      }
    }
    overflow_ = other.overflow_;
    direct_size_ = other.direct_size_;
    return *this;
  }

  std::size_t size() const { return direct_size_ + overflow_.size(); }
  bool empty() const { return size() == 0; }

  bool contains(Addr key) const { return find(key) != nullptr; }

  const V* find(Addr key) const {
    const Addr page = key >> kPageBits;
    const Addr leaf = page >> kLeafBits;
    if (leaf < leaves_.size()) {
      const Leaf* l = leaves_[leaf].get();
      if (l == nullptr) return nullptr;
      const Page* p = (*l)[page & kLeafMask].get();
      if (p == nullptr) return nullptr;
      const std::size_t off = key & kPageMask;
      return p->is_present(off) ? &p->values[off] : nullptr;
    }
    if (key < kDirectKeys) return nullptr;  // direct range, never set
    return overflow_.find(key);
  }
  V* find(Addr key) {
    return const_cast<V*>(static_cast<const PagedAddrMap*>(this)->find(key));
  }

  /// Value for `key`, default-constructed and inserted when absent.
  V& operator[](Addr key) {
    if (key >= kDirectKeys) return overflow_[key];
    const Addr page = key >> kPageBits;
    const Addr leaf = page >> kLeafBits;
    if (leaf >= leaves_.size()) leaves_.resize(leaf + 1);
    if (leaves_[leaf] == nullptr) leaves_[leaf] = std::make_unique<Leaf>();
    std::unique_ptr<Page>& slot = (*leaves_[leaf])[page & kLeafMask];
    if (slot == nullptr) slot = std::make_unique<Page>();
    Page& p = *slot;
    const std::size_t off = key & kPageMask;
    if (!p.is_present(off)) {
      p.present[off >> 6] |= 1ULL << (off & 63);
      ++direct_size_;
    }
    return p.values[off];
  }

  void clear() {
    leaves_.clear();
    overflow_.clear();
    direct_size_ = 0;
  }

  /// Calls fn(key, const V&) for every element: the direct-range keys in
  /// ascending order, then the overflow keys (each at least kDirectKeys)
  /// in unspecified order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t l = 0; l < leaves_.size(); ++l) {
      const Leaf* leaf = leaves_[l].get();
      if (leaf == nullptr) continue;
      for (std::size_t i = 0; i < kLeafPages; ++i) {
        const Page* p = (*leaf)[i].get();
        if (p == nullptr) continue;
        const Addr base = static_cast<Addr>((l << kLeafBits) | i)
                          << kPageBits;
        // Present keys through the bitmap, lowest bit first; an empty
        // 64-key group costs one test.
        for (std::size_t g = 0; g < kPageEntries / 64; ++g) {
          for (std::uint64_t bits = p->present[g]; bits != 0;
               bits &= bits - 1) {
            const std::size_t off =
                g * 64 + static_cast<std::size_t>(__builtin_ctzll(bits));
            fn(base | off, p->values[off]);
          }
        }
      }
    }
    overflow_.for_each(fn);
  }

 private:
  /// 4096 entries per page by default: one 64-bit-word page spans 32 KiB
  /// of data, a text page spans 16 KiB of instructions — a handful of
  /// slabs covers any workload region while a stray far-away key costs
  /// one slab.
  static constexpr int kPageBits = PageBits;
  static constexpr std::size_t kPageEntries = std::size_t{1} << kPageBits;
  static constexpr Addr kPageMask = kPageEntries - 1;
  /// Directory: up to 1024 leaves of 1024 page pointers (8 KiB each),
  /// 2^20 pages in all, so the direct range is keys below 2^(20 +
  /// PageBits), 2^32 at the default. The top level grows to the highest
  /// leaf touched — 8 bytes per 2^(10 + PageBits) keys of reach — and a
  /// leaf is allocated only once one of its pages is.
  static constexpr int kLeafBits = 10;
  static constexpr std::size_t kLeafPages = std::size_t{1} << kLeafBits;
  static constexpr Addr kLeafMask = kLeafPages - 1;

  struct Page {
    V values[kPageEntries]{};
    std::uint64_t present[kPageEntries / 64]{};
    bool is_present(std::size_t off) const {
      return (present[off >> 6] >> (off & 63)) & 1;
    }
  };
  using Leaf = std::array<std::unique_ptr<Page>, kLeafPages>;

  std::vector<std::unique_ptr<Leaf>> leaves_;
  AddrMap<V> overflow_;
  std::size_t direct_size_ = 0;
};

}  // namespace safespec
