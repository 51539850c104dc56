#include "memory/replacement.h"

namespace safespec::memory {

int ReplacementState::draw_below(int bound) {
  if (!rng_->has_value()) rng_->emplace(rng_seed_);
  return static_cast<int>(
      (*rng_)->below(static_cast<std::uint64_t>(bound)));
}

int ReplacementState::victim(std::uint64_t /*tick*/, int owner) {
  (void)owner;
  if (policy_ == ReplPolicy::kRandom) {
    return draw_below(num_ways_);
  }
  // LRU and FIFO both evict the smallest stamp.
  int best = 0;
  for (int w = 1; w < num_ways_; ++w) {
    if (meta_[w].stamp < meta_[best].stamp) best = w;
  }
  return best;
}

VictimChoice ReplacementState::protected_victim(std::uint64_t /*tick*/,
                                                int owner) {
  int candidates = 0;
  for (int w = 0; w < num_ways_; ++w) {
    if (meta_[w].owner == owner) ++candidates;
  }
  if (candidates == 0) {
    return {draw_below(num_ways_), true};
  }
  if (policy_ == ReplPolicy::kRandom) {
    int nth = draw_below(candidates);
    for (int w = 0; w < num_ways_; ++w) {
      if (meta_[w].owner == owner && nth-- == 0) return {w, false};
    }
  }
  // LRU and FIFO both evict the smallest stamp among the candidates,
  // lowest way on ties — the same rule victim() applies to all ways.
  int best = -1;
  for (int w = 0; w < num_ways_; ++w) {
    if (meta_[w].owner != owner) continue;
    if (best < 0 || meta_[w].stamp < meta_[best].stamp) best = w;
  }
  return {best, false};
}

}  // namespace safespec::memory
