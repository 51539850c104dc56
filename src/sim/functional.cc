#include "sim/functional.h"

#include <algorithm>
#include <optional>

#include "isa/instruction.h"

namespace safespec::sim {

using cpu::StopReason;
using isa::OpClass;

namespace {
/// Fused op codes of FunctionalEngine::Op. 0 is a hole in the text (the
/// run ends with kFaultNoHandler). A class with nothing to fuse has one
/// code; kAlu, kMul and kDiv fuse their AluOp with the operand form and
/// share these codes, since they differ only in latency, which this
/// engine has none of; kBranch fuses its CondOp.
constexpr int kHole = 0;
constexpr int class_code(OpClass op) { return 1 + static_cast<int>(op); }
constexpr int kAluReg = class_code(OpClass::kHalt) + 1;  ///< b = R[src2]
constexpr int kAluImm = kAluReg + isa::kNumAluOps;       ///< b = imm
constexpr int kBranchCond = kAluImm + isa::kNumAluOps;
static_assert(kBranchCond + isa::kNumCondOps <= 256, "codes fit a byte");

constexpr int alu_code(isa::AluOp op, bool use_imm) {
  return (use_imm ? kAluImm : kAluReg) + static_cast<int>(op);
}
constexpr int branch_code(isa::CondOp cond) {
  return kBranchCond + static_cast<int>(cond);
}
}  // namespace

FunctionalEngine::Op FunctionalEngine::decode(const isa::Instruction& inst,
                                              Addr pc) {
  Op op;
  op.dst = inst.writes_register() ? inst.dst : kSinkReg;
  op.src1 = inst.src1;
  op.src2 = inst.src2;
  op.imm = inst.imm;
  op.target = inst.target;
  int code = class_code(inst.op);
  switch (inst.op) {
    case OpClass::kAlu:
    case OpClass::kMul:
    case OpClass::kDiv:
      code = alu_code(inst.alu, inst.use_imm);
      break;
    case OpClass::kBranch:
      code = branch_code(inst.cond);
      break;
    case OpClass::kCall:
      op.imm = static_cast<std::int64_t>(pc + isa::kInstrBytes);  // link
      break;
    default:
      break;
  }
  op.code = static_cast<std::uint8_t>(code);
  return op;
}

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
    text_[static_cast<std::size_t>(slot)] = decode(*program_->at(pc), pc);
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

void FunctionalEngine::log_word(Addr addr) {
  const Addr word = addr & ~Addr{7};
  if (delta_seen_.contains(word)) return;
  delta_seen_[word] = 1;
  delta_.push_back({word, mem_->read64(word), 0});
}

ArchCheckpoint FunctionalEngine::checkpoint() {
  ArchCheckpoint cp;
  std::copy(regs_, regs_ + kNumArchRegs, cp.regs.begin());
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
  const std::optional<Addr> fault_handler = program_->fault_handler();

  // The loop runs on locals (memory stores may alias members as far as
  // the compiler knows) and writes them back on every exit.
  Addr pc = pc_;
  std::uint64_t committed = committed_;
  std::uint64_t* const regs = regs_;
  const Op* const text = text_.data();
  const Addr text_slots = text_.size();
  Op scratch;
  const auto stop = [&](StopReason why) {
    pc_ = pc;
    committed_ = committed;
    return why;
  };
  // Fault dispatch: redirect to the handler, or end the run.
  const auto fault = [&] {
    ++faults_;
    if (!fault_handler.has_value()) return false;
    pc = *fault_handler;
    return true;
  };

  while (committed < budget_end) {
    // Rotating the offset right by log2(kInstrBytes) maps a misaligned pc
    // past the table, so one compare checks alignment and range.
    static_assert(isa::kInstrBytes == 4);
    const Addr offset = pc - text_base_;
    const Addr slot = (offset >> 2) | (offset << 62);
    const Op* op = &scratch;
    if (slot < text_slots) {
      op = &text[slot];
    } else {
      const isa::Instruction* inst =
          dense_covers_all_ ? nullptr : program_->at(pc);
      // Committed control flow reached a pc with no instruction: the
      // core's front end stalls with an empty pipeline and its run loop
      // reports an unhandled fault.
      if (inst == nullptr) return stop(StopReason::kFaultNoHandler);
      scratch = decode(*inst, pc);
    }

    Addr next_pc = pc + isa::kInstrBytes;
    Addr vaddr = 0;
    Addr paddr = 0;
    switch (op->code) {
      case kHole:
        return stop(StopReason::kFaultNoHandler);
      case class_code(OpClass::kNop):
      case class_code(OpClass::kFence):
        break;
#define SAFESPEC_ALU_CASES(A)                                              \
  case alu_code(isa::AluOp::A, false):                                     \
    regs[op->dst] =                                                        \
        isa::eval_alu(isa::AluOp::A, regs[op->src1], regs[op->src2]);      \
    break;                                                                 \
  case alu_code(isa::AluOp::A, true):                                      \
    regs[op->dst] = isa::eval_alu(isa::AluOp::A, regs[op->src1],           \
                                  static_cast<std::uint64_t>(op->imm));    \
    break;
      SAFESPEC_ALU_CASES(kAdd)
      SAFESPEC_ALU_CASES(kSub)
      SAFESPEC_ALU_CASES(kAnd)
      SAFESPEC_ALU_CASES(kOr)
      SAFESPEC_ALU_CASES(kXor)
      SAFESPEC_ALU_CASES(kShl)
      SAFESPEC_ALU_CASES(kShr)
      SAFESPEC_ALU_CASES(kMul)
      SAFESPEC_ALU_CASES(kDiv)
      SAFESPEC_ALU_CASES(kMovImm)
#undef SAFESPEC_ALU_CASES
#define SAFESPEC_BRANCH_CASE(C)                                            \
  case branch_code(isa::CondOp::C):                                        \
    if (isa::eval_cond(isa::CondOp::C, regs[op->src1], regs[op->src2])) {  \
      next_pc = op->target;                                                \
    }                                                                      \
    break;
      SAFESPEC_BRANCH_CASE(kEq)
      SAFESPEC_BRANCH_CASE(kNe)
      SAFESPEC_BRANCH_CASE(kLt)
      SAFESPEC_BRANCH_CASE(kGe)
      SAFESPEC_BRANCH_CASE(kLtu)
      SAFESPEC_BRANCH_CASE(kGeu)
#undef SAFESPEC_BRANCH_CASE
      case class_code(OpClass::kRdCycle):
        // Documented divergence: no cycle exists here. See header.
        regs[op->dst] = committed;
        break;
      case class_code(OpClass::kLoad):
        vaddr = regs[op->src1] + static_cast<std::uint64_t>(op->imm);
        if (!translate(vaddr, paddr)) {
          if (!fault()) return stop(StopReason::kFaultNoHandler);
          continue;  // faulting instruction never commits
        }
        regs[op->dst] = mem_->read64(paddr);
        break;
      case class_code(OpClass::kStore):
        vaddr = regs[op->src1] + static_cast<std::uint64_t>(op->imm);
        if (!translate(vaddr, paddr)) {
          if (!fault()) return stop(StopReason::kFaultNoHandler);
          continue;  // faulting instruction never commits
        }
        if (record_delta_) log_word(paddr);
        mem_->write64(paddr, regs[op->src2]);
        break;
      case class_code(OpClass::kFlush):
        // No architectural effect, but the address still translates and
        // can fault — exactly as the core's commit path behaves.
        vaddr = regs[op->src1] + static_cast<std::uint64_t>(op->imm);
        if (!translate(vaddr, paddr)) {
          if (!fault()) return stop(StopReason::kFaultNoHandler);
          continue;  // faulting instruction never commits
        }
        break;
      case class_code(OpClass::kJump):
        next_pc = op->target;
        break;
      case class_code(OpClass::kCall):
        regs[op->dst] = static_cast<std::uint64_t>(op->imm);  // link value
        next_pc = op->target;
        break;
      case class_code(OpClass::kBranchIndirect):
        next_pc = regs[op->src1] + static_cast<Addr>(op->imm);
        break;
      case class_code(OpClass::kRet):
        next_pc = regs[op->src1];
        break;
      case class_code(OpClass::kHalt):
        ++committed;
        return stop(StopReason::kHalted);
    }
    ++committed;
    pc = next_pc;
  }
  return stop(StopReason::kMaxInstrs);
}

}  // namespace safespec::sim
