#include "memory/main_memory.h"

#include <algorithm>

namespace safespec::memory {

void MainMemory::map_page(Addr page, PagePerm perm) { perms_[page] = perm; }

std::optional<PagePerm> MainMemory::page_perm(Addr page) const {
  const PagePerm* perm = perms_.find(page);
  if (perm == nullptr) return std::nullopt;
  return *perm;
}

bool MainMemory::access_ok(Addr page, PrivLevel level) const {
  const auto perm = page_perm(page);
  if (!perm.has_value()) return false;
  if (*perm == PagePerm::kKernel && level == PrivLevel::kUser) return false;
  return true;
}

std::uint64_t MainMemory::read64(Addr addr) const {
  const std::uint64_t* word = words_.find(word_of(addr));
  return word == nullptr ? 0 : *word;
}

void MainMemory::write64(Addr addr, std::uint64_t value) {
  words_[word_of(addr)] = value;
}

std::vector<std::pair<Addr, std::uint64_t>> MainMemory::nonzero_words()
    const {
  std::vector<std::pair<Addr, std::uint64_t>> out;
  out.reserve(words_.size());
  words_.for_each([&out](Addr word, std::uint64_t value) {
    if (value != 0) out.emplace_back(word << 3, value);
  });
  // The direct range arrives in ascending order; only the overflow tail,
  // whose words all lie above it, needs sorting.
  constexpr Addr kPagedBytes = PagedAddrMap<std::uint64_t>::kDirectKeys << 3;
  const auto overflow = std::partition_point(
      out.begin(), out.end(), [](const std::pair<Addr, std::uint64_t>& w) {
        return w.first < kPagedBytes;
      });
  std::sort(overflow, out.end());
  return out;
}

}  // namespace safespec::memory
