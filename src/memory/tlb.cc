#include "memory/tlb.h"

#include <stdexcept>

namespace safespec::memory {

namespace {

int checked_num_sets(const TlbConfig& config) {
  if (config.entries <= 0 || config.ways <= 0 ||
      config.entries % config.ways != 0) {
    throw std::invalid_argument("Tlb: entries must divide evenly into ways");
  }
  return config.num_sets();
}

}  // namespace

Tlb::Tlb(const TlbConfig& config)
    : config_(config), num_sets_(checked_num_sets(config)),
      sets_(config.policy, num_sets_, config.ways, config.seed) {}

int Tlb::find_way(int set, Addr vpage) const {
  const Way* ways = sets_.find(set);
  if (ways == nullptr) return -1;
  for (int w = 0; w < config_.ways; ++w) {
    if (ways[w].valid && ways[w].entry.vpage == vpage) return w;
  }
  return -1;
}

std::optional<TlbEntry> Tlb::access(Addr vpage) {
  const int set = set_of(vpage);
  const int way = find_way(set, vpage);
  if (way >= 0) {
    sets_.replacement(set).touch(way, ++tick_);
    ++pending_hits_;
    return sets_.ways(set)[way].entry;
  }
  ++pending_misses_;
  return std::nullopt;
}

bool Tlb::probe(Addr vpage) const {
  return find_way(set_of(vpage), vpage) >= 0;
}

std::optional<Addr> Tlb::fill(const TlbEntry& entry) {
  ++tick_;
  const int set = set_of(entry.vpage);
  Way* ways = sets_.ways(set);
  ReplacementState repl = sets_.replacement(set);

  if (const int existing = find_way(set, entry.vpage); existing >= 0) {
    ways[existing].entry = entry;
    repl.fill(existing, tick_);
    return std::nullopt;
  }
  for (int w = 0; w < config_.ways; ++w) {
    if (!ways[w].valid) {
      ways[w] = {entry, true};
      repl.fill(w, tick_);
      return std::nullopt;
    }
  }
  const int victim = repl.victim(tick_);
  const Addr evicted = ways[victim].entry.vpage;
  ways[victim].entry = entry;
  repl.fill(victim, tick_);
  return evicted;
}

bool Tlb::invalidate(Addr vpage) {
  const int set = set_of(vpage);
  const int way = find_way(set, vpage);
  if (way < 0) return false;
  sets_.ways(set)[way].valid = false;
  return true;
}

void Tlb::flush_all() { sets_.flush_all(); }

std::size_t Tlb::occupancy() const { return sets_.occupancy(); }

}  // namespace safespec::memory
