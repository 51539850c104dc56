// Cycle-level out-of-order core with optional SafeSpec protection.
//
// The pipeline models the structures from Table I (6-wide issue/commit,
// 96-entry IQ, 224-entry ROB, 72/56-entry LDQ/STQ, 64-entry TLBs) over the
// Table II memory hierarchy, with an execute-driven micro-ISA so that
// speculative data flow — the substrate of every speculation attack — is
// real. Three protection modes share one datapath:
//
//   * Baseline:  speculative memory accesses fill caches/TLBs directly
//                (classic insecure behaviour; the paper's baseline).
//   * WFB/WFC:   speculative fills land in shadow structures and are only
//                promoted to the primary hierarchy once the producing
//                instruction is past its last unresolved older branch
//                (WFB) or commits (WFC). Squashes annul shadow state in
//                place (§III, Fig 3).
//
// Timing-model simplifications (documented per DESIGN.md):
//   * Memory side effects apply at issue time; there are therefore no
//     delayed responses needing the §III "filter" — squash of an issued
//     load simply releases its shadow reference.
//   * Store data is written (and the line installed) at commit — the TSO
//     behaviour the paper relies on to leave stores unshadowed (§IV-B).
//   * The shadow lookup costs the same as an L1 hit (4 cycles), matching
//     the paper's conservative assumption.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <vector>

#include "common/ring_buffer.h"
#include "common/stats.h"
#include "common/types.h"
#include "cpu/dyn_inst.h"
#include "isa/program.h"
#include "memory/cache_hierarchy.h"
#include "memory/main_memory.h"
#include "memory/page_table.h"
#include "memory/tlb.h"
#include "predictor/predictor_unit.h"
#include "safespec/policy.h"
#include "safespec/shadow_structures.h"

namespace safespec::cpu {

/// Deliberate defect injection for mutation-testing the differential
/// fuzzing harness (src/fuzz/): each flag corrupts exactly one thing a
/// harness invariant must catch, so the harness's detection power is
/// itself testable. All off in normal operation; never serialized into
/// MachineSpec documents.
struct MutationHooks {
  /// Squashes leak their shadow references instead of annulling them —
  /// caught by the empty-shadows-after-drain invariant.
  bool skip_squash_release = false;
  /// XORed into every committed register writeback — caught by the
  /// oracle-equivalence invariant (and invisible to the cross-policy
  /// comparison, since every policy corrupts identically: the reason the
  /// harness needs an architectural oracle at all).
  std::uint64_t commit_xor = 0;
};

/// Core pipeline configuration (Table I defaults).
struct CoreConfig {
  /// Machine-level: number of cores sharing the L2/L3. Each core gets
  /// this same per-core configuration (private L1s/TLBs/shadows). Lives
  /// on CoreConfig — not beside it — so every harness that carries one
  /// (experiment cells, the workload runner, fuzz cells, attack configs)
  /// inherits the axis without plumbing; MachineSpec serializes it as the
  /// top-level "cores" field and validates the range. The Core itself
  /// ignores it.
  int cores = 1;
  int fetch_width = 6;
  int issue_width = 6;
  int commit_width = 6;
  int iq_entries = 96;
  int rob_entries = 224;
  int ldq_entries = 72;
  int stq_entries = 56;
  int fetch_to_dispatch_delay = 5;  ///< front-end depth (mispredict penalty)
  /// Cycles between an instruction's completion (writeback) and its
  /// earliest retirement. Real retirement logic is pipelined; this gap is
  /// precisely the race window Meltdown exploits — dependent transmitting
  /// uops issue while the faulting load awaits retirement (P1, §II-B4).
  int commit_delay = 4;
  /// Decoded-instruction buffer (DIB) lines in fetch: a direct-mapped
  /// host-side cache of decoded-instruction lookups keyed by virtual
  /// 64-byte fetch line, so loop iterations stop re-walking the program
  /// map every cycle. Purely a simulator optimisation — it models no
  /// hardware and never changes a cycle count (proven by test). 0
  /// disables it; other values round up to a power of two. The default
  /// covers the largest synthetic code footprint (gcc, ~263 lines)
  /// without direct-map aliasing. Lines are allocated on demand, in
  /// blocks of 64 (a line is 136 host bytes, a block ~8.7 KB), the first
  /// time a fetch maps to one, so a short run pays only for the blocks
  /// its code touches, not ~140 KB per core.
  int dib_lines = 1024;

  Cycle alu_latency = 1;
  Cycle mul_latency = 3;
  Cycle div_latency = 20;
  Cycle shadow_hit_latency = 4;  ///< conservative: same as an L1 hit

  predictor::PredictorConfig predictor;
  memory::HierarchyConfig hierarchy;
  memory::TlbConfig itlb{.name = "iTLB", .entries = 64, .ways = 4};
  memory::TlbConfig dtlb{.name = "dTLB", .entries = 64, .ways = 4};

  // ---- SafeSpec --------------------------------------------------------
  /// Registry key of the protection policy ("baseline", "WFB", "WFC",
  /// "WFB-stall", or any policy::register_policy() addition). Resolved
  /// through policy::named_policy() when the core is built.
  std::string policy = "baseline";
  /// Worst-case ("Secure") sizing by default: LDQ-bound for the d-side,
  /// ROB-bound for the i-side (§V / §VII). Benchmarks shrink these to
  /// study 99.99%-sizing and TSAs.
  shadow::ShadowConfig shadow_dcache{.name = "shadow-dcache", .entries = 72};
  shadow::ShadowConfig shadow_icache{.name = "shadow-icache", .entries = 224};
  shadow::ShadowConfig shadow_dtlb{.name = "shadow-dtlb", .entries = 72};
  shadow::ShadowConfig shadow_itlb{.name = "shadow-itlb", .entries = 224};

  // ---- SHARP detector --------------------------------------------------
  /// Alarms within one epoch before the SHARP detector flags a detection
  /// (the exemplar's 2,000-alarms-per-epoch recommendation), and the
  /// epoch length in replacement stamps. Applied to every cache level by
  /// the policy's hierarchy tune(); inert unless the policy selects a
  /// CacheProtection (SHARP / detect-only).
  std::uint64_t sharp_alarm_threshold = 2000;
  std::uint64_t sharp_alarm_epoch = 1'000'000'000;

  /// Mutation-testing defect injection (see MutationHooks).
  MutationHooks mutation;
};

/// Why a run ended.
enum class StopReason : std::uint8_t {
  kHalted,        ///< committed a kHalt
  kFaultNoHandler,///< unhandled fault committed
  kMaxCycles,     ///< hit the cycle budget
  kMaxInstrs,     ///< hit the instruction budget
};

/// Short stable label ("halted", "fault", "max-cycles", "max-instrs") —
/// result sinks use it to flag non-converged cells.
const char* to_string(StopReason reason);

/// Aggregate statistics of one run.
struct CoreStats {
  Cycle cycles = 0;
  std::uint64_t committed_instrs = 0;
  std::uint64_t committed_loads = 0;
  std::uint64_t committed_stores = 0;
  std::uint64_t committed_branches = 0;
  std::uint64_t fetched_instrs = 0;
  std::uint64_t squashed_instrs = 0;
  std::uint64_t squashes = 0;
  std::uint64_t mispredicts = 0;
  std::uint64_t faults = 0;
  std::uint64_t shadow_stall_cycles = 0;  ///< issue stalls from kStall

  // Per-instruction fetch accounting (Figs 14/15): each fetched
  // instruction is served by exactly one of L1I / shadow i-cache / below.
  std::uint64_t fetch_accesses = 0;
  std::uint64_t fetch_l1i_hits = 0;
  std::uint64_t fetch_shadow_hits = 0;
  std::uint64_t fetch_misses = 0;  ///< went to L2/L3/memory

  // Host-side decoded-instruction buffer effectiveness (no timing role).
  std::uint64_t dib_hits = 0;
  std::uint64_t dib_fills = 0;

  double ipc() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(committed_instrs) / cycles;
  }
};

/// The core. Owns all microarchitectural state; borrows the program,
/// architectural memory and page table (which the attack harnesses also
/// manipulate directly, playing the role of the OS / other processes).
class Core {
 public:
  /// `shared_levels == nullptr` gives the core a private L2/L3 (the
  /// historical single-core shape); otherwise its hierarchy attaches to
  /// the external shared levels and stamps requests with `core_id`.
  Core(const CoreConfig& config, const isa::Program* program,
       memory::MainMemory* mem, memory::PageTable* page_table,
       memory::SharedLevels* shared_levels = nullptr, int core_id = 0);

  /// Advances one cycle. sim::Simulator::run drives every core through
  /// step() and idle_to(); tests may also drive it directly.
  void step();

  /// Returned by next_event_cycle() when no stage can ever act again.
  static constexpr Cycle kNeverCycle = ~Cycle{0};
  /// Simulator::run's wedge backstop: a core that commits nothing for
  /// longer than this many cycles is stopped (only malformed programs get
  /// there).
  static constexpr Cycle kWedgeCycles = 100'000;

  /// The earliest cycle at or after now() at which any stage can change
  /// state. Contract: no stage changes any state before the returned
  /// cycle — every step() until then only advances the cycle count and
  /// records the unchanged shadow occupancies — so idle_to() may jump
  /// straight to it. Returns now() when some stage has work this cycle
  /// (an entry ready to issue, WFB promotions pending, a fetch-buffer
  /// head that can dispatch, a ROB head due to retire); otherwise the
  /// nearest of the next completion, the ROB head's retirement, the
  /// fetch-buffer head's dispatch time and the end of a fetch miss;
  /// kNeverCycle when none is pending. The answer is a lower bound: a
  /// step at the returned cycle may still find nothing to do.
  Cycle next_event_cycle() const;

  /// Advances an idle core to `target` in one call, with exactly the
  /// effect of stepping there: the cycle counts move and each shadow
  /// occupancy histogram takes one sample per skipped cycle. `target`
  /// must lie in [now(), next_event_cycle()].
  void idle_to(Cycle target);

  bool halted() const { return halted_; }
  Cycle now() const { return cycle_; }
  int core_id() const { return core_id_; }

  /// Why the core halted: kHalted or kFaultNoHandler, set at the
  /// halt/fault commit sites. Meaningful only when halted(); budget stops
  /// and wedges are reported by Simulator::run, which enforces them.
  StopReason stop_reason() const { return stop_reason_; }

  /// True when the core can make no further progress by stepping:
  /// halted, or committed control flow reached a pc with no instruction
  /// (the front end is stalled with an empty pipeline and can never
  /// refill). Simulator::run stops stepping a core once it is finished,
  /// and never steps one that is finished on entry.
  bool finished() const {
    return halted_ || (fetch_stalled_ && rob_.empty() && fetch_queue_.empty());
  }

  /// Architectural register read (post-run inspection by harnesses).
  std::uint64_t reg(RegIndex r) const { return regs_[r]; }
  void set_reg(RegIndex r, std::uint64_t v) {
    if (r != kZeroReg) regs_[r] = v;
  }

  memory::PrivLevel priv_level() const { return priv_; }
  void set_priv_level(memory::PrivLevel p) { priv_ = p; }

  const CoreStats& stats() const { return stats_; }
  CoreStats& stats() { return stats_; }

  // ---- structures exposed for attacks / tests / benches ----------------
  memory::CacheHierarchy& hierarchy() { return hierarchy_; }
  const memory::CacheHierarchy& hierarchy() const { return hierarchy_; }
  memory::Tlb& itlb() { return itlb_; }
  memory::Tlb& dtlb() { return dtlb_; }
  predictor::PredictorUnit& predictor() { return predictor_; }
  shadow::ShadowCache& shadow_dcache() { return shadow_dcache_; }
  shadow::ShadowCache& shadow_icache() { return shadow_icache_; }
  shadow::ShadowTlb& shadow_dtlb() { return shadow_dtlb_; }
  shadow::ShadowTlb& shadow_itlb() { return shadow_itlb_; }
  const shadow::ShadowCache& shadow_dcache() const { return shadow_dcache_; }
  const shadow::ShadowCache& shadow_icache() const { return shadow_icache_; }
  const shadow::ShadowTlb& shadow_dtlb() const { return shadow_dtlb_; }
  const shadow::ShadowTlb& shadow_itlb() const { return shadow_itlb_; }

  const CoreConfig& config() const { return config_; }
  const policy::ProtectionPolicy& protection_policy() const {
    return *policy_;
  }

  /// Restarts control flow at `pc` with empty pipeline (between attack
  /// phases). Microarchitectural state (caches, predictors, shadows) is
  /// deliberately preserved — that persistence is what attacks exploit.
  void restart_at(Addr pc);

  /// The next architecturally-correct pc: the oldest in-flight
  /// instruction's pc (in-order commit means everything older has
  /// committed, so the ROB head is always on the committed path), the
  /// oldest fetched-but-undispatched instruction's pc when the ROB is
  /// empty, or the fetch pc when the whole pipeline is. At a kMaxInstrs
  /// stop, (reg state, next_commit_pc) is therefore exactly the
  /// committed architectural state — the hand-off point sampled
  /// simulation resumes the functional engine from.
  Addr next_commit_pc() const;

  /// Checkpoint restore (sampled simulation): installs the committed
  /// register file and restarts control flow at `pc`. Equivalent to 32x
  /// set_reg + restart_at — microarchitectural warming state survives,
  /// exactly like a phase restart.
  void restore_arch(const std::array<std::uint64_t, kNumArchRegs>& regs,
                    Addr pc);

  /// Drops every decoded-instruction-buffer line. Call after mutating
  /// the program text under a live core (the DIB caches Instruction
  /// pointers into it, like the functional engine's translation cache
  /// caches page-table entries).
  void invalidate_dib();

 private:
  struct FetchedInst {
    Addr pc = 0;
    isa::Instruction inst;
    bool predicted_taken = false;
    Addr predicted_next = 0;
    Cycle ready_at = 0;
    int shadow_iline = DynInst::kNoShadow;
    int shadow_itlb = DynInst::kNoShadow;
  };

  // ---- pipeline stages (called newest-to-oldest each cycle) -----------
  /// WFB promotion of what the frontier passed or what became promotable
  /// behind it (ascending seq), then in-order retirement.
  void stage_commit();
  /// Writes back the in_flight_ entries whose latency elapsed, oldest
  /// first, resolving branches; stops at a mispredict's squash.
  void stage_complete();
  /// Tries the ready_ entries oldest-first, up to issue_width issues.
  void stage_issue();
  void stage_dispatch();
  void stage_fetch();

  // ---- helpers ---------------------------------------------------------
  bool rob_full() const {
    return static_cast<int>(rob_.size()) >= config_.rob_entries;
  }
  /// True when a structural hazard keeps `fi` out of the ROB whatever its
  /// ready_at: an active fence, or a full ROB, IQ, LDQ or STQ. Each
  /// clears only through an issue, a commit or a squash.
  bool dispatch_blocked(const FetchedInst& fi) const;
  /// O(1): ROB sequence numbers are contiguous (dispatch appends
  /// next_seq_++; squash/commit only pop the ends), so an in-flight seq's
  /// slot is seq - rob_.front().seq.
  DynInst* find_by_seq(SeqNum seq);
  void wake_dependents(const DynInst& producer);
  bool older_unresolved_branch_exists(SeqNum seq) const;

  /// Issues one instruction (computes result / performs memory access
  /// side effects). Returns false when the instruction cannot issue this
  /// cycle (memory ordering or shadow-stall) and must retry.
  bool execute(DynInst& di);

  /// Load/store address translation through dTLB (+walk). Returns the
  /// added latency; sets di.physical_addr / di.fault / shadow_dtlb.
  /// `stall` is set when the shadow dTLB is full under kStall.
  Cycle translate_data(DynInst& di, bool& stall);

  /// Page-walk timing: kWalkLevels accesses through the d-side hierarchy.
  /// Speculative walks under SafeSpec use non-filling accesses whose
  /// lines land in the shadow d-cache *unreferenced by any instruction* —
  /// conservatively freed on squash via the walker ref held by `di`.
  Cycle walk_page_table(DynInst* di, Addr vpage);

  /// The d-side cache access for an issued load. Returns latency.
  /// `stall` set when the shadow d-cache is full under kStall.
  Cycle access_dcache(DynInst& di, bool& stall);

  /// Promotes every shadow entry the instruction references into the
  /// primary structures (commit or WFB-resolution path).
  void promote_shadow(DynInst& di);
  /// Releases shadow references without promotion (squash path).
  void release_shadow(DynInst& di);

  /// DIB-accelerated program_->at(): identical results, one map walk
  /// per 64-byte line instead of per instruction.
  const isa::Instruction* fetch_decode(Addr pc);

  void resolve_branch(DynInst& di);
  void release_pending_fetch_refs();
  void squash_younger_than(SeqNum seq, Addr redirect_pc);
  void rebuild_rename_map();
  void raise_fault(DynInst& head);
  void commit_one(DynInst& head);

  /// Reads an operand at dispatch: value or producer seq. In-flight
  /// producers additionally record `consumer` on their wakeup list.
  void bind_operand(SeqNum consumer, RegIndex reg, std::uint64_t& value,
                    bool& ready, SeqNum& producer);

  bool protection_on() const { return protection_on_; }

  /// WFB event hook, called when `di` becomes promotable (a non-branch
  /// issues, a branch resolves): queues it on wfb_pending_ if the
  /// frontier has already passed it.
  void note_promotable(const DynInst& di);

  /// Removes `seq` from a sorted seq vector (no-op when absent).
  static void erase_seq(std::vector<SeqNum>& seqs, SeqNum seq);
  /// Inserts `seq` into a sorted seq vector (O(1) when it is the
  /// youngest, the common case).
  static void insert_seq(std::vector<SeqNum>& seqs, SeqNum seq);
  /// Drops every seq above `seq` from a sorted seq vector.
  static void truncate_above(std::vector<SeqNum>& seqs, SeqNum seq);

  // ---- configuration / substrate ---------------------------------------
  CoreConfig config_;
  const policy::ProtectionPolicy* policy_;  ///< registry singleton
  // Policy decision points cached out of the virtual calls — consulted
  // several times per simulated cycle, fixed for the core's lifetime.
  bool protection_on_ = false;
  bool promote_at_resolution_ = false;
  bool annul_on_squash_ = true;
  const isa::Program* program_;
  memory::MainMemory* mem_;
  memory::PageTable* page_table_;
  int core_id_ = 0;

  // ---- microarchitectural structures ------------------------------------
  memory::CacheHierarchy hierarchy_;
  memory::Tlb itlb_;
  memory::Tlb dtlb_;
  predictor::PredictorUnit predictor_;
  shadow::ShadowCache shadow_dcache_;
  shadow::ShadowCache shadow_icache_;
  shadow::ShadowTlb shadow_dtlb_;
  shadow::ShadowTlb shadow_itlb_;

  // ---- architectural state ----------------------------------------------
  std::uint64_t regs_[kNumArchRegs] = {};
  memory::PrivLevel priv_ = memory::PrivLevel::kUser;

  // ---- pipeline state -----------------------------------------------------
  Cycle cycle_ = 0;
  SeqNum next_seq_ = 1;
  // Pre-sized rings: the ROB and fetch buffer have hard architectural
  // bounds, so their storage is one contiguous slab each.
  RingBuffer<DynInst> rob_;
  RingBuffer<FetchedInst> fetch_queue_;

  // Scheduler worklists: seq lists naming ROB entries, kept current by
  // the events that change them so that no stage rescans the ROB. Every
  // list drops the seqs above a squash point in squash_younger_than (the
  // rewind reuses them) and clears in restart_at.
  /// Seqs of unresolved kBranch/kBranchIndirect/kRet entries, ascending
  /// (dispatch appends monotonically; front() is the WFB frontier).
  std::vector<SeqNum> unresolved_branches_;
  /// Seqs of kWaiting entries whose operands are all ready, ascending.
  /// Dispatch appends an entry born ready; wake_dependents inserts one
  /// when its last operand arrives. stage_issue tries only these, so an
  /// entry that cannot issue yet (a fence off the ROB head, a load behind
  /// an unknown store address, a shadow-table stall) stays for a retry.
  std::vector<SeqNum> ready_;
  /// Seqs of kIssued entries, ascending (issue inserts). stage_complete
  /// retires from this list only.
  std::vector<SeqNum> in_flight_;
  /// Issue-queue occupancy: kWaiting entries, ready or not.
  int waiting_ = 0;
  /// Earliest done_cycle over in_flight_ (lower bound; may be stale low
  /// after a squash). stage_complete is a no-op until then.
  Cycle next_complete_cycle_ = kNeverCycle;
  /// Seqs of the in-flight stores, ascending: the STQ. Dispatch appends,
  /// the head store's commit or fault pops the front. A load checks only
  /// the older stores on this list for an unknown address or a word to
  /// forward from.
  std::vector<SeqNum> stores_;
  /// WFB frontier high-water mark: the frontier has already passed every
  /// live seq below this. An entry it passed while still kWaiting, or as
  /// an unresolved jump/call, is promoted later: its issue or resolve
  /// event queues it on wfb_pending_.
  SeqNum promoted_below_seq_ = 0;
  /// Seqs the frontier passed earlier that became promotable since the
  /// last stage_commit, ascending.
  std::vector<SeqNum> wfb_pending_;

  // Rename: arch reg -> producing seq (0 = value lives in regs_).
  SeqNum rename_[kNumArchRegs] = {};

  /// One decoded-instruction-buffer line: the program-map lookup result
  /// for every instruction slot of one 64-byte virtual line. The tag
  /// sentinel ~0 can never match a real line index.
  struct DibLine {
    Addr tag = ~Addr{0};
    std::array<const isa::Instruction*, kLineSize / isa::kInstrBytes>
        slots{};
  };
  /// Lines per DIB block: blocks are allocated when a fetch first maps
  /// to one of their lines (see CoreConfig::dib_lines).
  static constexpr std::size_t kDibBlockLines = 64;
  /// Direct-mapped, in blocks of min(kDibBlockLines, lines) lines (a
  /// DIB smaller than one block is one short block); null until first
  /// touched, and no blocks at all when the DIB is disabled.
  std::vector<std::unique_ptr<DibLine[]>> dib_blocks_;
  std::size_t dib_block_lines_ = 0;
  Addr dib_mask_ = 0;
  /// L0 over the DIB: the line the previous fetch_decode hit.
  /// Sequential fetches within a 64-byte line — the common case at any
  /// fetch width — resolve with one compare and one load. The pointer
  /// stays valid because a block never moves or is freed before the
  /// core is.
  const DibLine* dib_last_ = nullptr;
  Addr dib_last_line_ = ~Addr{0};

  Addr fetch_pc_ = 0;
  bool fetch_stalled_ = false;      ///< barrier (halt / unknown target)
  Cycle fetch_busy_until_ = 0;      ///< i-cache/iTLB miss in progress
  /// Shadow references acquired by an in-progress fetch (miss pending);
  /// handed to the next FetchedInst, or released on squash/restart.
  int pending_iline_ = -1;
  int pending_itlb_ = -1;
  int loads_in_flight_ = 0;         ///< LDQ occupancy
  bool fence_active_ = false;       ///< a kFence is in the ROB
  bool halted_ = false;
  StopReason stop_reason_ = StopReason::kMaxCycles;

  CoreStats stats_;
};

}  // namespace safespec::cpu
