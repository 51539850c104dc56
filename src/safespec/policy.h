// Pluggable protection policies (§III, §IV-B).
//
// The paper evaluates a *family* of protection designs — insecure
// baseline, wait-for-branch and wait-for-commit, crossed with shadow
// sizing and full-table handling. Rather than hard-coding that family as
// an enum switched inside cpu::Core, each member is a ProtectionPolicy:
// an object answering the four decision points the core consults —
//
//   * may speculative fills go straight into the primary structures?
//     (shadows_speculation: the baseline answers no-shadowing)
//   * when does an instruction's shadow state become promotable?
//     (promote_at_branch_resolution: WFB promotes once no older branch
//     is unresolved; WFC only at the instruction's own commit)
//   * what happens to shadow state on squash?
//     (annul_on_squash: every SafeSpec policy annuls in place, Fig 3)
//   * what happens when a shadow table fills up?
//     (full_policy_override: §V — drop the update or stall the
//     requester; nullopt keeps the per-structure configuration)
//
// A fifth decision point, cache_protection(), lets a policy defend at
// the replacement level instead of shadowing speculation — the SHARP
// family ("SHARP" protects + alarms, "detect-only" only alarms) lives
// there; see docs/mitigations.md for the family comparison.
//
// Policies are stateless singletons registered under a string key, so a
// new variant is selectable from a config file or --set flag without
// recompiling anything that builds machines. The registry ships the
// three paper policies plus "WFB-stall" (WFB whose shadows stall on
// full — the §V closure of the TSA channel applied to WFB sizing
// studies), "SHARP" and "detect-only".
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "memory/replacement.h"
#include "safespec/shadow_structures.h"

namespace safespec::memory {
struct HierarchyConfig;
}  // namespace safespec::memory

namespace safespec::policy {

/// One member of the protection-design family. Implementations are
/// stateless and shared by every core built with the policy's name.
class ProtectionPolicy {
 public:
  virtual ~ProtectionPolicy() = default;

  /// Registry key ("baseline", "WFB", "WFC", "WFB-stall", ...).
  virtual const char* name() const = 0;
  virtual const char* description() const = 0;

  /// False for the insecure baseline: speculative fills go straight
  /// into the primary caches/TLBs and no shadow state exists.
  virtual bool shadows_speculation() const = 0;

  /// True for wait-for-branch: shadow state is promotable as soon as no
  /// older branch is unresolved. False for wait-for-commit: promotion
  /// happens only when the producing instruction commits.
  virtual bool promote_at_branch_resolution() const = 0;

  /// Squash handling: true (every shipped policy) annuls shadow state in
  /// place; false would promote it anyway — the insecure strawman a
  /// sizing ablation can use to isolate the cost of annulment.
  virtual bool annul_on_squash() const { return true; }

  /// Full-table handling this policy imposes on every shadow structure
  /// (§V); nullopt keeps the per-structure configuration.
  virtual std::optional<shadow::FullPolicy> full_policy_override() const {
    return std::nullopt;
  }

  /// Cache-level protection applied at replacement victim selection: the
  /// SHARP family defends here instead of (not in addition to) shadowing
  /// speculation. kNone for the baseline and every shadow-based policy.
  virtual memory::CacheProtection cache_protection() const {
    return memory::CacheProtection::kNone;
  }

  /// Applies full_policy_override() to one shadow-structure config.
  void tune(shadow::ShadowConfig& config) const {
    if (const auto fp = full_policy_override()) config.full_policy = *fp;
  }

  /// Applies cache_protection() and the SHARP detector configuration to
  /// every cache level of a hierarchy config (idempotent — both the core
  /// and the shared-level builder run it on the same spec).
  void tune(memory::HierarchyConfig& config, std::uint64_t alarm_threshold,
            std::uint64_t alarm_epoch_ticks) const;
};

/// Looks up a registered policy. Throws std::out_of_range with a message
/// listing every registered name when `name` is unknown.
const ProtectionPolicy& named_policy(const std::string& name);

bool is_registered_policy(const std::string& name);

/// All registered names, sorted (the three paper policies plus any
/// registered variants).
std::vector<std::string> registered_policy_names();

/// Registers a new policy under policy->name(). Throws
/// std::invalid_argument if the name is already taken.
void register_policy(std::unique_ptr<const ProtectionPolicy> policy);

}  // namespace safespec::policy
