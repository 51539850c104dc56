#include "sim/functional.h"

#include <algorithm>

#include "isa/instruction.h"

namespace safespec::sim {

using cpu::StopReason;
using isa::OpClass;

namespace {
/// Ceiling on the dense predecode table (slots, i.e. instructions).
/// Every real program here — workload text, fuzz programs, attack PoCs —
/// spans a few KiB to a few hundred KiB of pc range; 1M slots (4 MiB of
/// pc range, ~40 MB of table) is far above all of them while bounding
/// the cost of a pathological far-flung gadget. Programs that exceed it
/// keep a partial table over the densest prefix and fall back to the
/// Program map past it.
constexpr Addr kMaxDenseSlots = Addr{1} << 20;
}  // namespace

FunctionalEngine::FunctionalEngine(const isa::Program* program,
                                   memory::MainMemory* mem,
                                   const memory::PageTable* page_table)
    : program_(program), mem_(mem), page_table_(page_table) {
  predecode();
}

void FunctionalEngine::predecode() {
  const std::vector<Addr> pcs = program_->pcs();
  text_.clear();
  dense_covers_all_ = false;
  if (pcs.empty()) return;

  text_base_ = pcs.front();
  const Addr span = (pcs.back() - pcs.front()) / isa::kInstrBytes + 1;
  const Addr slots = std::min(span, kMaxDenseSlots);
  text_.resize(static_cast<std::size_t>(slots));
  std::size_t covered = 0;
  for (const Addr pc : pcs) {
    const Addr slot = (pc - text_base_) / isa::kInstrBytes;
    if (slot >= slots) break;  // pcs ascend; the rest overflow too
    text_[static_cast<std::size_t>(slot)] = {*program_->at(pc), true};
    ++covered;
  }
  dense_covers_all_ = covered == pcs.size();
}

bool FunctionalEngine::translate(Addr vaddr, Addr& paddr) {
  const Addr vpage = page_of(vaddr);
  const std::size_t way = static_cast<std::size_t>(vpage) % kXlatEntries;
  if (xlat_tag_[way] == vpage + 1) {
    paddr = (xlat_ppage_[way] << kPageShift) + page_offset(vaddr);
    return true;
  }
  const auto xlat = page_table_->translate(vpage);
  // The engine always runs at user level, like the harness's cores, so a
  // kernel-only page faults and is never worth caching.
  if (!xlat.present || xlat.kernel_only) return false;
  xlat_tag_[way] = vpage + 1;
  xlat_ppage_[way] = xlat.ppage;
  paddr = (xlat.ppage << kPageShift) + page_offset(vaddr);
  return true;
}

void FunctionalEngine::invalidate_translations() {
  xlat_tag_.fill(0);
}

bool FunctionalEngine::handle_fault() {
  ++faults_;
  const auto handler = program_->fault_handler();
  if (!handler.has_value()) return false;
  pc_ = *handler;
  return true;
}

void FunctionalEngine::log_word(Addr addr) {
  const Addr word = addr & ~Addr{7};
  if (delta_seen_.contains(word)) return;
  delta_seen_[word] = 1;
  delta_.push_back({word, mem_->read64(word), 0});
}

ArchCheckpoint FunctionalEngine::checkpoint() {
  ArchCheckpoint cp;
  std::copy(std::begin(regs_), std::end(regs_), cp.regs.begin());
  cp.pc = pc_;
  cp.committed = committed_;
  cp.faults = faults_;
  cp.started = started_;
  for (auto& w : delta_) w.new_value = mem_->read64(w.addr);
  cp.mem_delta = std::move(delta_);
  delta_.clear();
  delta_seen_.clear();
  return cp;
}

void FunctionalEngine::restore(const ArchCheckpoint& cp) {
  std::copy(cp.regs.begin(), cp.regs.end(), std::begin(regs_));
  regs_[kZeroReg] = 0;
  pc_ = cp.pc;
  committed_ = cp.committed;
  faults_ = cp.faults;
  started_ = cp.started;
  delta_.clear();
  delta_seen_.clear();
}

void FunctionalEngine::reset() {
  std::fill(std::begin(regs_), std::end(regs_), 0);
  pc_ = 0;
  committed_ = 0;
  faults_ = 0;
  started_ = false;
  invalidate_translations();
  delta_.clear();
  delta_seen_.clear();
}

void FunctionalEngine::record_memory_delta(bool on) {
  record_delta_ = on;
  delta_.clear();
  delta_seen_.clear();
}

void FunctionalEngine::rollback_memory() {
  for (auto it = delta_.rbegin(); it != delta_.rend(); ++it) {
    mem_->write64(it->addr, it->old_value);
  }
  delta_.clear();
  delta_seen_.clear();
}

StopReason FunctionalEngine::run(std::uint64_t max_instrs) {
  if (!started_) {
    pc_ = program_->entry();
    started_ = true;
  }
  // Budget on *committed* instructions, like Simulator::run: a faulting
  // instruction never commits and does not consume budget.
  const std::uint64_t headroom = ~std::uint64_t{0} - committed_;
  const std::uint64_t budget_end =
      committed_ + std::min(max_instrs, headroom);

  while (committed_ < budget_end) {
    const isa::Instruction* inst = fetch(pc_);
    if (inst == nullptr) {
      // Committed control flow reached a pc with no instruction — the
      // core's front end stalls with an empty pipeline and its run loop
      // reports an unhandled fault.
      return StopReason::kFaultNoHandler;
    }

    Addr next_pc = pc_ + isa::kInstrBytes;
    switch (inst->op) {
      case OpClass::kNop:
      case OpClass::kFence:
        break;
      case OpClass::kAlu:
      case OpClass::kMul:
      case OpClass::kDiv: {
        const std::uint64_t b =
            inst->use_imm ? static_cast<std::uint64_t>(inst->imm)
                          : regs_[inst->src2];
        set_reg(inst->dst, isa::eval_alu(inst->alu, regs_[inst->src1], b));
        break;
      }
      case OpClass::kRdCycle:
        // Documented divergence: no cycle exists here. See header.
        set_reg(inst->dst, committed_);
        break;
      case OpClass::kLoad: {
        const Addr vaddr =
            regs_[inst->src1] + static_cast<std::uint64_t>(inst->imm);
        Addr paddr = 0;
        if (!translate(vaddr, paddr)) {
          if (!handle_fault()) return StopReason::kFaultNoHandler;
          continue;  // faulting instruction never commits
        }
        set_reg(inst->dst, mem_->read64(paddr));
        break;
      }
      case OpClass::kStore: {
        const Addr vaddr =
            regs_[inst->src1] + static_cast<std::uint64_t>(inst->imm);
        Addr paddr = 0;
        if (!translate(vaddr, paddr)) {
          if (!handle_fault()) return StopReason::kFaultNoHandler;
          continue;
        }
        if (record_delta_) log_word(paddr);
        mem_->write64(paddr, regs_[inst->src2]);
        break;
      }
      case OpClass::kFlush: {
        // No architectural effect, but the address still translates and
        // can fault — exactly as the core's commit path behaves.
        const Addr vaddr =
            regs_[inst->src1] + static_cast<std::uint64_t>(inst->imm);
        Addr paddr = 0;
        if (!translate(vaddr, paddr)) {
          if (!handle_fault()) return StopReason::kFaultNoHandler;
          continue;
        }
        break;
      }
      case OpClass::kBranch:
        if (isa::eval_cond(inst->cond, regs_[inst->src1],
                           regs_[inst->src2])) {
          next_pc = inst->target;
        }
        break;
      case OpClass::kJump:
        next_pc = inst->target;
        break;
      case OpClass::kCall:
        set_reg(inst->dst, pc_ + isa::kInstrBytes);  // link value
        next_pc = inst->target;
        break;
      case OpClass::kBranchIndirect:
        next_pc = regs_[inst->src1] + static_cast<Addr>(inst->imm);
        break;
      case OpClass::kRet:
        next_pc = regs_[inst->src1];
        break;
      case OpClass::kHalt:
        ++committed_;
        return StopReason::kHalted;
    }

    ++committed_;
    pc_ = next_pc;
  }
  return StopReason::kMaxInstrs;
}

}  // namespace safespec::sim
