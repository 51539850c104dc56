// Branch target buffer and return stack buffer.
//
// The BTB is the structure Spectre v2 poisons: any code sharing the core
// can install a target for a victim's indirect branch (threat model P3).
// We model a direct-mapped-by-set, set-associative BTB tagged by pc with
// no privilege separation — faithfully insecure, as on pre-mitigation
// hardware.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.h"

namespace safespec::predictor {

struct BtbConfig {
  int entries = 1024;
  int ways = 4;
  int num_sets() const { return entries / ways; }
};

/// Branch target buffer. Lookup by branch pc; returns predicted target.
class Btb {
 public:
  explicit Btb(const BtbConfig& config);

  std::optional<Addr> lookup(Addr pc);

  /// Installs / updates the target for `pc`. This is both the legitimate
  /// training path and the Spectre-v2 poisoning path — the hardware
  /// cannot tell them apart, which is the point.
  void update(Addr pc, Addr target);

  void reset();
  const BtbConfig& config() const { return config_; }

 private:
  struct Entry {
    Addr pc = 0;
    Addr target = 0;
    bool valid = false;
    std::uint64_t stamp = 0;
  };

  int set_of(Addr pc) const {
    return static_cast<int>((pc >> 2) % static_cast<Addr>(num_sets_));
  }

  BtbConfig config_;
  int num_sets_ = 0;
  std::vector<Entry> entries_;
  std::uint64_t tick_ = 0;
};

/// Return stack buffer: a small circular stack of return addresses used
/// to predict kRet targets (the structure retpoline deliberately
/// repurposes; modelled so the related-work behaviours are expressible).
class Rsb {
 public:
  explicit Rsb(int depth = 16) : stack_(depth) {}

  void push(Addr return_addr);
  /// Predicted return target; nullopt when empty (underflow).
  std::optional<Addr> pop();
  void reset();

  int depth() const { return static_cast<int>(stack_.size()); }
  int occupancy() const { return occupancy_; }

 private:
  std::vector<Addr> stack_;
  int top_ = 0;
  int occupancy_ = 0;
};

}  // namespace safespec::predictor
