// High-level run harness: wires Programs, MainMemories, PageTables and
// cpu::Cores together, provides address-space setup helpers, and extracts
// the result summary the benchmarks and examples consume.
//
// Multi-core model: the simulator owns one context (program copy, private
// memory image, page table, core with private L1s/TLBs/shadows) per core,
// plus one memory::SharedLevels holding the L2/L3 every core attaches to.
// Cores advance under a deterministic round-robin interleaving: one cycle
// per live core per global cycle, core 0 first. Each core runs its own
// program against its own architectural memory — a private "process" — so
// per-core architectural state is independent of the interleaving and
// only *timing* couples cores (through the shared levels). The one
// stepping loop (Simulator::schedule) serves every core count, cores=1
// included, and the detailed windows of sampled runs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "cpu/core.h"
#include "isa/program.h"
#include "memory/main_memory.h"
#include "memory/page_table.h"

namespace safespec::sim {

struct ArchCheckpoint;   // sim/functional.h
class FunctionalEngine;  // sim/functional.h

/// a - b clamped at zero: counter pairs sampled from different structures
/// can disagree transiently (e.g. a shadow hit recorded for a load whose
/// L1 miss was annulled), and the rate helpers must not underflow.
constexpr std::uint64_t saturating_sub(std::uint64_t a, std::uint64_t b) {
  return a > b ? a - b : 0;
}

/// SMARTS-style sampled-simulation schedule: repeat [fast-forward
/// `fast_forward_interval` instructions functionally -> run
/// `warmup_instrs` in full detail unmeasured (re-warming caches,
/// predictors and shadows staled by the gap) -> run `detail_instrs` in
/// full detail, measured]. One IPC sample per measured window; the run
/// reports their mean with a confidence interval (SimResult::sampling).
///
/// fast_forward_interval == 0 disables sampling entirely:
/// Simulator::run_sampled degenerates to the plain detailed run and
/// reproduces its cycle counts bit-identically.
struct SamplingSpec {
  std::uint64_t fast_forward_interval = 0;  ///< functional instrs per gap
  std::uint64_t warmup_instrs = 2'000;      ///< detailed, unmeasured
  std::uint64_t detail_instrs = 10'000;     ///< detailed, measured

  bool enabled() const { return fast_forward_interval > 0; }

  /// Throws std::invalid_argument when sampling is enabled with a zero
  /// measured window (nothing would ever be measured).
  void validate() const;
};

/// Sampled-run accounting attached to SimResult. The IPC estimate is the
/// mean of per-window IPC samples; ipc_ci95 is the +/- half-width of the
/// 95% confidence interval on that mean (normal approximation,
/// 1.96 * stddev / sqrt(windows); stddev and ci95 are exactly zero when
/// fewer than two windows were measured — one sample has no dispersion).
struct SamplingStats {
  bool enabled = false;
  std::uint64_t windows = 0;             ///< measured detail windows
  std::uint64_t fast_forwarded = 0;      ///< functional-engine commits
  std::uint64_t warmup_commits = 0;      ///< detailed, unmeasured commits
  std::uint64_t measured_commits = 0;    ///< detailed, measured commits
  Cycle measured_cycles = 0;             ///< cycles in measured windows
  double ipc_mean = 0.0;
  double ipc_stddev = 0.0;               ///< sample stddev across windows
  double ipc_ci95 = 0.0;
};

/// Everything the figures need from one run, flattened out of the core's
/// structures. Per-core counters describe core 0 (the primary core);
/// `committed_all_cores` and `cross_core_evictions` aggregate over the
/// whole machine (equal to committed_instrs / 0 at cores=1).
struct SimResult {
  cpu::StopReason stop = cpu::StopReason::kMaxCycles;
  Cycle cycles = 0;
  std::uint64_t committed_instrs = 0;
  double ipc = 0.0;

  /// Sum of committed instructions over every core (machine throughput).
  std::uint64_t committed_all_cores = 0;
  /// Shared-level (L2+L3) fills that evicted another core's line.
  std::uint64_t cross_core_evictions = 0;

  /// SHARP telemetry, summed over the shared L2/L3 and every core's L1s:
  /// alarms (forced cross-owner evictions under "SHARP"; every observed
  /// cross-owner eviction under "detect-only") and detections (epochs
  /// whose alarm count crossed CoreConfig::sharp_alarm_threshold). Zero
  /// under every non-SHARP-family policy.
  std::uint64_t sharp_alarms = 0;
  std::uint64_t sharp_detections = 0;

  // d-cache (Fig 12/13): reads only; miss rate "including the shadow".
  std::uint64_t dcache_accesses = 0;
  std::uint64_t dcache_misses = 0;       ///< L1D misses
  std::uint64_t shadow_dcache_hits = 0;  ///< of which served by shadow
  double dcache_miss_rate_incl_shadow() const {
    return dcache_accesses == 0
               ? 0.0
               : static_cast<double>(
                     saturating_sub(dcache_misses, shadow_dcache_hits)) /
                     dcache_accesses;
  }
  double shadow_dcache_hit_fraction() const {
    const auto hits =
        saturating_sub(dcache_accesses, dcache_misses) + shadow_dcache_hits;
    return hits == 0 ? 0.0
                     : static_cast<double>(shadow_dcache_hits) / hits;
  }

  // i-cache (Fig 14/15): per-instruction fetch accounting — each fetched
  // instruction is served by exactly one of L1I, shadow i-cache, or a
  // lower level; `icache_misses` already excludes shadow hits.
  std::uint64_t icache_accesses = 0;
  std::uint64_t icache_misses = 0;
  std::uint64_t shadow_icache_hits = 0;
  double icache_miss_rate_incl_shadow() const {
    return icache_accesses == 0
               ? 0.0
               : static_cast<double>(icache_misses) / icache_accesses;
  }
  double shadow_icache_hit_fraction() const {
    const auto hits = saturating_sub(icache_accesses, icache_misses);
    return hits == 0 ? 0.0
                     : static_cast<double>(shadow_icache_hits) / hits;
  }

  // Shadow lifecycle (Fig 16) and occupancy percentiles (Figs 6-9).
  double shadow_dcache_commit_rate = 0.0;
  double shadow_icache_commit_rate = 0.0;
  std::uint64_t shadow_dcache_p9999 = 0;
  std::uint64_t shadow_icache_p9999 = 0;
  std::uint64_t shadow_dtlb_p9999 = 0;
  std::uint64_t shadow_itlb_p9999 = 0;

  std::uint64_t mispredicts = 0;
  std::uint64_t squashed_instrs = 0;
  std::uint64_t faults = 0;

  /// Sampled-run accounting; `sampling.enabled` is false for plain
  /// detailed runs. When enabled, `committed_instrs` counts every
  /// architectural instruction (fast-forwarded + detailed), `cycles`
  /// counts only detailed cycles, and `ipc` is the sampled point
  /// estimate (sampling.ipc_mean).
  SamplingStats sampling;
};

/// Owns the full simulated machine for one experiment.
class Simulator {
 public:
  /// Homogeneous machine: config.cores cores (≥1), each running its own
  /// copy of `program` against a private memory image, sharing the L2/L3.
  Simulator(const cpu::CoreConfig& config, isa::Program program);
  /// Heterogeneous machine (cross-core attack harnesses): one core per
  /// program in `programs` (must be non-empty); config.cores is ignored.
  Simulator(const cpu::CoreConfig& config,
            std::vector<isa::Program> programs);
  // Out of line: FunctionalEngine is incomplete here. The explicit
  // destructor would otherwise suppress the moves tests rely on.
  ~Simulator();
  Simulator(Simulator&&) noexcept;
  Simulator& operator=(Simulator&&) noexcept;

  int num_cores() const { return static_cast<int>(ctx_.size()); }

  /// Maps [base, base+bytes) as user or kernel pages, identity-translated
  /// — in every core's address space (the homogeneous setup path).
  void map_region(Addr base, std::uint64_t bytes,
                  memory::PagePerm perm = memory::PagePerm::kUser);
  /// Same, in core `c`'s address space only.
  void map_region_on(int c, Addr base, std::uint64_t bytes,
                     memory::PagePerm perm = memory::PagePerm::kUser);

  /// Convenience: in each core's address space, map the pages every
  /// instruction of that core's program sits on.
  void map_text();

  /// Writes a 64-bit value into every core's architectural memory
  /// (pre-run setup; the images are private per core).
  void poke(Addr addr, std::uint64_t value);
  /// Core-targeted variants (cross-core attack setup / inspection).
  void poke_on(int c, Addr addr, std::uint64_t value) {
    mem(c).write64(addr, value);
  }
  std::uint64_t peek(Addr addr) const { return mem(0).read64(addr); }
  std::uint64_t peek_on(int c, Addr addr) const { return mem(c).read64(addr); }

  /// Runs to completion (halt/fault/wedge/budget) and snapshots the
  /// result. Cores step round-robin (core 0 first) until every core is
  /// finished or wedged, or a budget trips; `max_cycles` bounds schedule
  /// cycles and `max_instrs` bounds core 0's committed instructions, both
  /// counted from this call; the stop reason reports core 0's fate. A
  /// core already finished on entry is not stepped.
  SimResult run(Cycle max_cycles = 50'000'000,
                std::uint64_t max_instrs = ~0ULL);

  /// Sampled run (see SamplingSpec): alternates functional fast-forward
  /// with checkpoint-restored detailed windows on the same memory image
  /// and core. With `spec` disabled (fast_forward_interval == 0) this is
  /// exactly run() — bit-identical cycle counts. `max_cycles` bounds the
  /// *detailed* cycles only (the functional engine has no clock);
  /// `max_instrs` bounds total architectural instructions. Single-core
  /// only: throws std::invalid_argument when enabled at cores>1.
  SimResult run_sampled(const SamplingSpec& spec,
                        Cycle max_cycles = 50'000'000,
                        std::uint64_t max_instrs = ~0ULL);

  /// Restores a functional-engine checkpoint into the detailed machine
  /// (core 0): applies the memory delta (if any), installs the register
  /// file, and restarts the core at cp.pc. Microarchitectural warming
  /// state survives, as in Core::restart_at.
  void restore(const ArchCheckpoint& cp);

  cpu::Core& core() { return *ctx_[0]->core; }
  const cpu::Core& core() const { return *ctx_[0]->core; }
  cpu::Core& core(int c) { return *ctx_[c]->core; }
  const cpu::Core& core(int c) const { return *ctx_[c]->core; }
  memory::MainMemory& memory() { return mem(0); }
  const memory::MainMemory& memory() const { return mem(0); }
  memory::MainMemory& memory(int c) { return mem(c); }
  const memory::MainMemory& memory(int c) const { return mem(c); }
  memory::PageTable& page_table() { return ctx_[0]->page_table; }
  memory::PageTable& page_table(int c) { return ctx_[c]->page_table; }
  const isa::Program& program() const { return ctx_[0]->program; }
  const isa::Program& program(int c) const { return ctx_[c]->program; }

  /// The L2/L3 every core's hierarchy attaches to.
  memory::SharedLevels& shared_levels() { return *shared_levels_; }
  const memory::SharedLevels& shared_levels() const {
    return *shared_levels_;
  }

  /// Snapshot of the current statistics without running (used after
  /// driving core().step() manually in tests).
  SimResult snapshot(cpu::StopReason stop) const;

  /// The simulator's functional engine over core 0's context, built (and
  /// its predecode pass paid) on first use, then cached for the
  /// simulator's lifetime. run_sampled resets it at the start of every
  /// call, so repeated sampled runs behave exactly like the historical
  /// engine-per-call code without re-predecoding. Harnesses that remap
  /// the page table mid-experiment call invalidate_translations() on it,
  /// as ever.
  FunctionalEngine& functional_engine();

 private:
  /// One core's private world: program copy, architectural memory, page
  /// table, the core itself, and its state in the current schedule()
  /// call. Held by pointer so the core's borrowed program/memory/page-table
  /// addresses survive Simulator moves.
  struct CoreContext {
    explicit CoreContext(isa::Program p) : program(std::move(p)) {}
    isa::Program program;
    memory::MainMemory mem;
    memory::PageTable page_table;
    std::unique_ptr<cpu::Core> core;
    bool done = false;                ///< finished or wedged: not stepped
    Cycle last_progress = 0;          ///< schedule cycle after last commit
    std::uint64_t last_committed = 0; ///< committed count at last_progress
  };

  void build_cores(const cpu::CoreConfig& config,
                   std::vector<isa::Program> programs);

  /// The stepping loop behind run() and run_sampled(), at every core
  /// count: deterministic round-robin, one cycle per live core per
  /// schedule cycle, core 0 first, with idle stretches skipped in one
  /// jump. Budgets count from the call; returns core 0's stop reason.
  cpu::StopReason schedule(Cycle max_cycles, std::uint64_t max_instrs);

  memory::MainMemory& mem(int c) { return ctx_[c]->mem; }
  const memory::MainMemory& mem(int c) const { return ctx_[c]->mem; }

  std::unique_ptr<memory::SharedLevels> shared_levels_;
  std::vector<std::unique_ptr<CoreContext>> ctx_;
  std::unique_ptr<FunctionalEngine> engine_;  ///< lazy; see functional_engine()
};

}  // namespace safespec::sim
