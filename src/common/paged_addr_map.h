// Paged backing array with a hash-map overflow, for the simulator's
// hottest per-access lookups (memory words, page permissions, program
// text). AddrMap already beats std::unordered_map, but it still pays a
// hash mix and a probe per lookup. The address streams these tables serve
// are overwhelmingly *dense* — a workload's data region, a program's
// text — so a page directory indexed directly by the key's high bits
// turns the common lookup into shift / bounds-check / load. Keys past the
// directory's reach (sparse, huge — e.g. synthetic high addresses) fall
// back to an AddrMap so correctness never depends on density.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/addr_map.h"
#include "common/types.h"

namespace safespec {

/// Insert/lookup-only map keyed by Addr (no per-key erase; clear() drops
/// everything — the same contract as AddrMap). Values must be
/// default-constructible. Iteration order is unspecified. A page holds
/// 2^PageBits consecutive keys and is allocated when its first key is
/// inserted.
template <typename V, int PageBits = 12>
class PagedAddrMap {
 public:
  PagedAddrMap() = default;
  PagedAddrMap(PagedAddrMap&&) = default;
  PagedAddrMap& operator=(PagedAddrMap&&) = default;
  // Deep copies: Program and MainMemory are value types the harnesses
  // copy freely (one machine per cell), so the backing pages must clone.
  PagedAddrMap(const PagedAddrMap& other) { *this = other; }
  PagedAddrMap& operator=(const PagedAddrMap& other) {
    if (this == &other) return *this;
    dir_.clear();
    dir_.reserve(other.dir_.size());
    for (const auto& page : other.dir_) {
      dir_.push_back(page ? std::make_unique<Page>(*page) : nullptr);
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
    if (page < dir_.size()) {
      const Page* p = dir_[page].get();
      if (p == nullptr) return nullptr;
      const std::size_t off = key & kPageMask;
      return p->is_present(off) ? &p->values[off] : nullptr;
    }
    if (page < kMaxDirectPages) return nullptr;  // direct range, never set
    return overflow_.find(key);
  }
  V* find(Addr key) {
    return const_cast<V*>(static_cast<const PagedAddrMap*>(this)->find(key));
  }

  /// Value for `key`, default-constructed and inserted when absent.
  V& operator[](Addr key) {
    const Addr page = key >> kPageBits;
    if (page >= kMaxDirectPages) return overflow_[key];
    if (page >= dir_.size()) dir_.resize(page + 1);
    if (dir_[page] == nullptr) dir_[page] = std::make_unique<Page>();
    Page& p = *dir_[page];
    const std::size_t off = key & kPageMask;
    if (!p.is_present(off)) {
      p.present[off >> 6] |= 1ULL << (off & 63);
      ++direct_size_;
    }
    return p.values[off];
  }

  void clear() {
    dir_.clear();
    overflow_.clear();
    direct_size_ = 0;
  }

  /// Calls fn(key, const V&) for every element, in unspecified order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t page = 0; page < dir_.size(); ++page) {
      const Page* p = dir_[page].get();
      if (p == nullptr) continue;
      for (std::size_t off = 0; off < kPageEntries; ++off) {
        if (p->is_present(off)) {
          fn((static_cast<Addr>(page) << kPageBits) | off, p->values[off]);
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
  /// Directory reach: 2^20 pages (an 8 MiB pointer directory at worst)
  /// covers keys below 2^(20 + PageBits), 2^32 at the default; anything
  /// higher goes to the overflow map.
  static constexpr Addr kMaxDirectPages = Addr{1} << 20;

  struct Page {
    V values[kPageEntries]{};
    std::uint64_t present[kPageEntries / 64]{};
    bool is_present(std::size_t off) const {
      return (present[off >> 6] >> (off & 63)) & 1;
    }
  };

  std::vector<std::unique_ptr<Page>> dir_;
  AddrMap<V> overflow_;
  std::size_t direct_size_ = 0;
};

}  // namespace safespec
