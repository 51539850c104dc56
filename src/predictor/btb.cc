#include "predictor/btb.h"

#include <stdexcept>

namespace safespec::predictor {

Btb::Btb(const BtbConfig& config) : config_(config) {
  // Checked before num_sets() divides by ways.
  if (config_.entries <= 0 || config_.ways <= 0 ||
      config_.entries % config_.ways != 0) {
    throw std::invalid_argument("Btb: entries must divide evenly into ways");
  }
  num_sets_ = config_.num_sets();
  entries_.resize(static_cast<std::size_t>(config_.entries));
}

std::optional<Addr> Btb::lookup(Addr pc) {
  ++tick_;
  const std::size_t base =
      static_cast<std::size_t>(set_of(pc)) * config_.ways;
  for (int w = 0; w < config_.ways; ++w) {
    Entry& e = entries_[base + w];
    if (e.valid && e.pc == pc) {
      e.stamp = tick_;
      return e.target;
    }
  }
  return std::nullopt;
}

void Btb::update(Addr pc, Addr target) {
  ++tick_;
  const std::size_t base =
      static_cast<std::size_t>(set_of(pc)) * config_.ways;
  // Update in place if tagged.
  for (int w = 0; w < config_.ways; ++w) {
    Entry& e = entries_[base + w];
    if (e.valid && e.pc == pc) {
      e.target = target;
      e.stamp = tick_;
      return;
    }
  }
  // Free way, else LRU victim.
  Entry* victim = nullptr;
  for (int w = 0; w < config_.ways; ++w) {
    Entry& e = entries_[base + w];
    if (!e.valid) {
      victim = &e;
      break;
    }
    if (victim == nullptr || e.stamp < victim->stamp) victim = &e;
  }
  victim->valid = true;
  victim->pc = pc;
  victim->target = target;
  victim->stamp = tick_;
}

void Btb::reset() {
  for (Entry& e : entries_) e.valid = false;
  tick_ = 0;
}

void Rsb::push(Addr return_addr) {
  stack_[top_] = return_addr;
  top_ = (top_ + 1) % static_cast<int>(stack_.size());
  if (occupancy_ < static_cast<int>(stack_.size())) ++occupancy_;
}

std::optional<Addr> Rsb::pop() {
  if (occupancy_ == 0) return std::nullopt;
  top_ = (top_ - 1 + static_cast<int>(stack_.size())) %
         static_cast<int>(stack_.size());
  --occupancy_;
  return stack_[top_];
}

void Rsb::reset() {
  top_ = 0;
  occupancy_ = 0;
}

}  // namespace safespec::predictor
