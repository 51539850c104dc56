#include "memory/cache.h"

#include <stdexcept>

namespace safespec::memory {

namespace {

int checked_num_sets(const CacheConfig& config) {
  const int num_sets = config.num_sets();
  if (num_sets <= 0 || config.ways <= 0) {
    throw std::invalid_argument("Cache: size/ways/line geometry invalid");
  }
  if (config.size_bytes % (static_cast<std::uint64_t>(config.ways) *
                           config.line_bytes) !=
      0) {
    throw std::invalid_argument("Cache: size not divisible by way size");
  }
  return num_sets;
}

}  // namespace

Cache::Cache(const CacheConfig& config)
    : config_(config), num_sets_(checked_num_sets(config)),
      sets_(config.policy, num_sets_, config.ways, config.seed) {}

int Cache::find_way(int set, Addr line) const {
  const Way* ways = sets_.find(set);
  if (ways == nullptr) return -1;
  for (int w = 0; w < config_.ways; ++w) {
    if (ways[w].valid && ways[w].tag == line) return w;
  }
  return -1;
}

bool Cache::access(Addr line, bool update_replacement, bool count_stats,
                   int owner) {
  const int set = set_of(line);
  const int way = find_way(set, line);
  if (way >= 0) {
    if (update_replacement) sets_.replacement(set).touch(way, ++tick_, owner);
    if (count_stats) ++pending_hits_;
    return true;
  }
  if (count_stats) ++pending_misses_;
  return false;
}

bool Cache::probe(Addr line) const { return find_way(set_of(line), line) >= 0; }

int Cache::owner_of(Addr line) const {
  const int set = set_of(line);
  const int way = find_way(set, line);
  return way < 0 ? -1 : sets_.owner_of(set, way);
}

std::optional<Addr> Cache::fill(Addr line, int owner) {
  ++tick_;
  const int set = set_of(line);
  Way* ways = sets_.ways(set);
  ReplacementState repl = sets_.replacement(set);

  // Already present: refresh recency, no eviction.
  if (const int existing = find_way(set, line); existing >= 0) {
    repl.fill(existing, tick_, owner);
    return std::nullopt;
  }
  // Free way available.
  for (int w = 0; w < config_.ways; ++w) {
    if (!ways[w].valid) {
      ways[w] = {line, true};
      repl.fill(w, tick_, owner);
      return std::nullopt;
    }
  }
  // Evict. Under kSharp the victim prefers requester-owned ways and a
  // forced cross-owner eviction raises an alarm; kDetectOnly keeps the
  // owner-blind choice (timing identical to kNone) but alarms on every
  // cross-owner eviction it observes.
  int victim;
  bool forced = false;
  if (config_.protection == CacheProtection::kSharp) {
    const VictimChoice choice = repl.protected_victim(tick_, owner);
    victim = choice.way;
    forced = choice.forced;
  } else {
    victim = repl.victim(tick_, owner);
  }
  if (repl.owner_of(victim) != owner) {
    ++cross_owner_evictions_;
    if (config_.protection == CacheProtection::kDetectOnly) record_alarm();
  }
  if (forced) record_alarm();
  const Addr evicted = ways[victim].tag;
  ways[victim].tag = line;
  repl.fill(victim, tick_, owner);
  return evicted;
}

void Cache::record_alarm() {
  ++sharp_alarms_;
  if (tick_ - epoch_start_tick_ >= config_.alarm_epoch_ticks) {
    epoch_start_tick_ = tick_;
    epoch_alarms_ = 0;
  }
  if (++epoch_alarms_ == config_.alarm_threshold) ++sharp_detections_;
}

bool Cache::invalidate(Addr line) {
  const int set = set_of(line);
  const int way = find_way(set, line);
  if (way < 0) return false;
  sets_.ways(set)[way].valid = false;
  return true;
}

void Cache::flush_all() { sets_.flush_all(); }

std::size_t Cache::occupancy() const { return sets_.occupancy(); }

}  // namespace safespec::memory
