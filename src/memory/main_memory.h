// Architectural backing store: memory contents plus per-page permissions.
//
// This is the substrate the paper gets "for free" from QEMU inside
// MARSSx86. We model exactly what the attacks require:
//   * real data at addresses (a speculatively loaded secret has a value),
//   * per-page user/kernel permission bits whose check is *deferred* to
//     commit (property P1 exploited by Meltdown),
//   * unmapped pages (speculation down garbage paths must not crash the
//     simulator).
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/paged_addr_map.h"
#include "common/types.h"

namespace safespec::memory {

/// Access privilege required to *architecturally* read/write a page.
enum class PagePerm : std::uint8_t {
  kUser,    ///< accessible from user and kernel mode
  kKernel,  ///< kernel-only; user access faults at commit time
};

/// Privilege level the core currently runs at.
enum class PrivLevel : std::uint8_t { kUser, kKernel };

/// Sparse 64-bit-word-granular physical memory with page permissions.
///
/// Addresses given to read/write are byte addresses; storage is at 8-byte
/// granularity with unaligned accesses rounded down (the micro-ISA only
/// performs aligned 64-bit accesses, which the workload generators and
/// attack PoCs respect).
class MainMemory {
 public:
  /// Marks a page readable/writable with permission `perm`. Pages default
  /// to unmapped; mapping is idempotent (re-mapping updates permission).
  void map_page(Addr page, PagePerm perm);

  bool is_mapped(Addr page) const { return perms_.contains(page); }

  /// Permission of a mapped page; nullopt when unmapped.
  std::optional<PagePerm> page_perm(Addr page) const;

  /// True when `level` may architecturally access `page`. Unmapped pages
  /// are never accessible.
  bool access_ok(Addr page, PrivLevel level) const;

  /// Reads the 64-bit word containing byte address `addr`. Unwritten
  /// words read as zero (like zero-fill-on-demand).
  std::uint64_t read64(Addr addr) const;

  /// Writes the 64-bit word containing byte address `addr`.
  void write64(Addr addr, std::uint64_t value);

  /// Canonical architectural snapshot: every word holding a nonzero
  /// value, as (byte address, value) pairs sorted by address. Zero-valued
  /// words are skipped because an explicitly written zero is
  /// indistinguishable from untouched zero-fill memory — exactly the
  /// equivalence the differential harness needs when comparing final
  /// memory images across machines. Costs one pass over the written
  /// words: the paged range is visited in address order, and only words
  /// above it (past 32 GiB) are sorted.
  std::vector<std::pair<Addr, std::uint64_t>> nonzero_words() const;

 private:
  static Addr word_of(Addr addr) { return addr >> 3; }

  // Paged backing arrays: workload data and page maps are dense, so the
  // per-load/store lookup is a direct index in the common case.
  PagedAddrMap<std::uint64_t> words_;   // keyed by word index
  PagedAddrMap<PagePerm> perms_;        // keyed by page number
};

}  // namespace safespec::memory
