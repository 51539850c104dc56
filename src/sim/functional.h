// Fast functional (architecture-only) execution engine.
//
// The fuzz harness's in-order reference interpreter (the differential
// "oracle", src/fuzz/differential.h): one instruction per step, no
// microarchitecture, producing exactly the committed architectural state
// the out-of-order core produces. It is also the sampled-simulation
// fast-forward path, so it gets the detailed core's hot-path treatment:
//
//   * the program text is predecoded into a dense table of 24-byte ops
//     indexed by (pc - base) / kInstrBytes, so the per-instruction fetch
//     is a bounds check + load instead of a PagedAddrMap probe;
//   * each op carries one fused code (class x ALU op x operand form, or
//     branch x condition), so the step loop is a single switch whose
//     cases call isa::eval_alu / eval_cond with a constant selector;
//   * data translations go through a small direct-mapped cache in front
//     of PageTable::translate, so the per-access cost is one tag
//     compare in the (overwhelmingly common) re-touched-page case;
//   * the step loop allocates nothing.
//
// Two consumers: the differential fuzzer's reference state (nightly 10k
// seeds), and sampled simulation (Simulator::run_sampled) where this
// engine fast-forwards between detailed sample windows and hands the
// architectural state across via ArchCheckpoint.
//
// Semantics: faults bite at the faulting instruction's commit point and
// redirect to the program's fault handler (or end the run with
// kFaultNoHandler); committed control flow reaching a pc with no
// instruction ends the run; division by zero yields all-ones; the zero
// register never writes; execution is always user-level. The one
// deliberate divergence stands: kRdCycle reads the committed-instruction
// count, as no cycle exists here.
//
// The engine caches translations: if the page table is remapped between
// runs (attack-harness style), call invalidate_translations().
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/addr_map.h"
#include "common/types.h"
#include "cpu/core.h"
#include "isa/program.h"
#include "memory/main_memory.h"
#include "memory/page_table.h"

namespace safespec::sim {

/// Committed architectural state at a sample-window boundary, as emitted
/// by FunctionalEngine::checkpoint() and consumed by
/// Simulator::restore() / FunctionalEngine::restore().
///
/// Memory is carried as a *delta*: the words written since the previous
/// checkpoint (recorded only while record_memory_delta(true) is active —
/// the shared-memory fast path leaves it empty because both engines
/// mutate the same MainMemory). Microarchitectural warming state
/// (caches, TLBs, predictors, shadows) is deliberately not captured: in
/// sampled simulation it lives in the persistent detailed Core across
/// windows, and each window's warmup interval re-warms whatever the
/// fast-forwarded gap staled.
struct ArchCheckpoint {
  std::array<std::uint64_t, kNumArchRegs> regs{};
  Addr pc = 0;                  ///< next instruction to execute
  std::uint64_t committed = 0;  ///< instructions committed so far
  std::uint64_t faults = 0;     ///< architectural faults raised so far
  bool started = false;         ///< false = pristine (pc not yet valid)

  /// One recorded memory word: enough to apply the delta forward onto a
  /// cold memory image (new_value) or roll it back (old_value).
  struct MemWrite {
    Addr addr = 0;  ///< byte address of the 64-bit word
    std::uint64_t old_value = 0;
    std::uint64_t new_value = 0;
  };
  /// First-write-per-word since the previous checkpoint, in write order.
  std::vector<MemWrite> mem_delta;
};

class FunctionalEngine {
 public:
  /// Ceiling on the dense predecode table (ops, i.e. instructions).
  /// Every real program here — workload text, fuzz programs, attack PoCs
  /// — spans a few KiB to a few hundred KiB of pc range; 1M ops (4 MiB of
  /// pc range, 24 MB of table) is far above all of them while bounding
  /// the cost of a pathological far-flung gadget. Programs that exceed it
  /// keep a partial table over the lowest pcs, and run() decodes a pc
  /// past it from the Program.
  static constexpr Addr kMaxDenseSlots = Addr{1} << 20;

  /// Borrows everything; `mem` is mutated by stores.
  FunctionalEngine(const isa::Program* program, memory::MainMemory* mem,
                   const memory::PageTable* page_table);

  /// Runs from the program entry (or wherever the previous run/restore
  /// left off) until halt, unrecoverable fault, or `max_instrs` further
  /// committed instructions. Resumable, like Simulator::run.
  cpu::StopReason run(std::uint64_t max_instrs);

  std::uint64_t reg(RegIndex r) const { return regs_[r]; }
  void set_reg(RegIndex r, std::uint64_t v) {
    if (r != kZeroReg) regs_[r] = v;
  }

  /// Committed instruction count (faulting instructions never commit,
  /// matching CoreStats::committed_instrs).
  std::uint64_t committed() const { return committed_; }
  /// Architecturally raised faults (matching CoreStats::faults).
  std::uint64_t faults() const { return faults_; }
  Addr pc() const { return pc_; }

  // ---- checkpoints ------------------------------------------------------
  /// Snapshots the architectural state. When delta recording is on, the
  /// checkpoint carries every word written since the previous
  /// checkpoint() (or since recording started) and a new delta epoch
  /// begins.
  ArchCheckpoint checkpoint();

  /// Restores registers, pc and counters from `cp` (memory is not
  /// touched — apply cp.mem_delta to the target memory separately, or
  /// use Simulator::restore which does both). Starts a new delta epoch.
  void restore(const ArchCheckpoint& cp);

  /// Enables/disables memory-delta recording (default off: the sampled
  /// fast path shares one MainMemory with the detailed core and needs no
  /// delta). Turning it on starts a fresh epoch.
  void record_memory_delta(bool on);

  /// Rolls back every memory word written in the current epoch to its
  /// value at the last checkpoint()/restore()/record start, and clears
  /// the epoch. Requires recording to be on; registers/pc are untouched
  /// (pair with restore()).
  void rollback_memory();

  /// Drops cached translations. Call after remapping the page table
  /// between runs.
  void invalidate_translations();

  /// Back to the pristine post-construction state — zero registers and
  /// counters, next run() starts at the program entry, translations
  /// dropped, delta epoch cleared. The predecoded text is kept (the
  /// program is borrowed and immutable), which is the point: a cached
  /// engine reset() + run() behaves bit-identically to a freshly
  /// constructed one without re-paying the predecode pass.
  void reset();

 private:
  /// One predecoded instruction. `code` fuses the operation class with
  /// its ALU op and operand form or its branch condition (see Code in
  /// functional.cc), so the step loop dispatches once per instruction;
  /// code 0 is a hole in the text. A register write to r0 is predecoded
  /// to the sink register kSinkReg, so no case tests for r0.
  struct Op {
    std::uint8_t code = 0;
    RegIndex dst = kZeroReg;
    RegIndex src1 = kZeroReg;
    RegIndex src2 = kZeroReg;
    std::int64_t imm = 0;  ///< operand, displacement, or kCall's link value
    Addr target = 0;       ///< static target of a direct branch
  };
  static_assert(sizeof(Op) <= 24, "Op is the step loop's per-pc load");

  /// Register-file slot that absorbs writes to r0; never read.
  static constexpr RegIndex kSinkReg = kNumArchRegs;

  static Op decode(const isa::Instruction& inst, Addr pc);

  /// Translates a data address through the translation cache; returns
  /// false when the access must fault (unmapped, or kernel-only at the
  /// engine's fixed user level).
  bool translate(Addr vaddr, Addr& paddr);

  /// Records the word containing `addr` into the current delta epoch
  /// (first write per word only). Called before the store mutates it.
  void log_word(Addr addr);

  void predecode();

  const isa::Program* program_;
  memory::MainMemory* mem_;
  const memory::PageTable* page_table_;

  // Predecoded text, indexed by (pc - text_base_) / kInstrBytes.
  // `dense_covers_all_` means every instruction of the program landed in
  // text_, so a miss is authoritative; otherwise run() decodes a pc past
  // the table from the Program.
  std::vector<Op> text_;
  Addr text_base_ = 0;
  bool dense_covers_all_ = false;

  // Direct-mapped translation cache: tag = vpage + 1 (0 = empty), value
  // = ppage. Only successful user-level translations are cached, so the
  // hit path needs no permission re-check.
  static constexpr std::size_t kXlatEntries = 256;  // power of two
  std::array<Addr, kXlatEntries> xlat_tag_{};
  std::array<Addr, kXlatEntries> xlat_ppage_{};

  std::uint64_t regs_[kNumArchRegs + 1] = {};  ///< + kSinkReg
  Addr pc_ = 0;
  std::uint64_t committed_ = 0;
  std::uint64_t faults_ = 0;
  bool started_ = false;

  // Memory-delta epoch (off by default; see record_memory_delta).
  bool record_delta_ = false;
  std::vector<ArchCheckpoint::MemWrite> delta_;  ///< old_value filled
  AddrMap<char> delta_seen_;                     ///< word addr -> logged
};

}  // namespace safespec::sim
