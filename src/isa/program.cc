#include "isa/program.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace safespec::isa {

void Program::place(Addr pc, const Instruction& inst, bool overwrite) {
  if (pc % kInstrBytes != 0) {
    throw std::invalid_argument("Program::place: misaligned pc");
  }
  if (!overwrite && contains(pc)) {
    throw std::invalid_argument("Program::place: pc already occupied");
  }
  if (text_.use_count() > 1) {
    text_ = std::make_shared<PagedAddrMap<Instruction>>(*text_);
  }
  (*text_)[pc / kInstrBytes] = inst;
}

std::vector<Addr> Program::pcs() const {
  std::vector<Addr> out;
  out.reserve(text_->size());
  text_->for_each([&out](Addr slot, const Instruction&) {
    out.push_back(slot * kInstrBytes);
  });
  std::sort(out.begin(), out.end());
  return out;
}

std::string to_string(const Program& program) {
  std::ostringstream oss;
  for (const Addr pc : program.pcs()) {
    oss << "0x" << std::hex << pc << std::dec;
    if (pc == program.entry()) oss << " <entry>";
    if (program.fault_handler() && *program.fault_handler() == pc) {
      oss << " <fault-handler>";
    }
    oss << ": " << to_string(*program.at(pc)) << "\n";
  }
  return oss.str();
}

ProgramBuilder& ProgramBuilder::emit(const Instruction& inst) {
  program_.place(cursor_, inst);
  cursor_ += kInstrBytes;
  return *this;
}

ProgramBuilder& ProgramBuilder::nop() { return emit({}); }

ProgramBuilder& ProgramBuilder::movi(RegIndex dst, std::int64_t imm) {
  Instruction i;
  i.op = OpClass::kAlu;
  i.alu = AluOp::kMovImm;
  i.dst = dst;
  i.imm = imm;
  i.use_imm = true;
  return emit(i);
}

ProgramBuilder& ProgramBuilder::alu(AluOp op, RegIndex dst, RegIndex a,
                                    RegIndex b) {
  Instruction i;
  i.op = (op == AluOp::kMul)   ? OpClass::kMul
         : (op == AluOp::kDiv) ? OpClass::kDiv
                               : OpClass::kAlu;
  i.alu = op;
  i.dst = dst;
  i.src1 = a;
  i.src2 = b;
  return emit(i);
}

ProgramBuilder& ProgramBuilder::alui(AluOp op, RegIndex dst, RegIndex a,
                                     std::int64_t imm) {
  Instruction i;
  i.op = (op == AluOp::kMul)   ? OpClass::kMul
         : (op == AluOp::kDiv) ? OpClass::kDiv
                               : OpClass::kAlu;
  i.alu = op;
  i.dst = dst;
  i.src1 = a;
  i.imm = imm;
  i.use_imm = true;
  return emit(i);
}

ProgramBuilder& ProgramBuilder::load(RegIndex dst, RegIndex base,
                                     std::int64_t imm) {
  Instruction i;
  i.op = OpClass::kLoad;
  i.dst = dst;
  i.src1 = base;
  i.imm = imm;
  return emit(i);
}

ProgramBuilder& ProgramBuilder::store(RegIndex src, RegIndex base,
                                      std::int64_t imm) {
  Instruction i;
  i.op = OpClass::kStore;
  i.src1 = base;
  i.src2 = src;
  i.imm = imm;
  return emit(i);
}

ProgramBuilder& ProgramBuilder::branch(CondOp cond, RegIndex a, RegIndex b,
                                       const std::string& label) {
  Instruction i;
  i.op = OpClass::kBranch;
  i.cond = cond;
  i.src1 = a;
  i.src2 = b;
  fixups_.push_back({cursor_, label});
  return emit(i);
}

ProgramBuilder& ProgramBuilder::jump(const std::string& label) {
  Instruction i;
  i.op = OpClass::kJump;
  fixups_.push_back({cursor_, label});
  return emit(i);
}

ProgramBuilder& ProgramBuilder::jump_reg(RegIndex base, std::int64_t imm) {
  Instruction i;
  i.op = OpClass::kBranchIndirect;
  i.src1 = base;
  i.imm = imm;
  return emit(i);
}

ProgramBuilder& ProgramBuilder::call(const std::string& label) {
  Instruction i;
  i.op = OpClass::kCall;
  i.dst = kLinkReg;
  fixups_.push_back({cursor_, label});
  return emit(i);
}

ProgramBuilder& ProgramBuilder::ret() {
  Instruction i;
  i.op = OpClass::kRet;
  i.src1 = kLinkReg;
  return emit(i);
}

ProgramBuilder& ProgramBuilder::flush(RegIndex base, std::int64_t imm) {
  Instruction i;
  i.op = OpClass::kFlush;
  i.src1 = base;
  i.imm = imm;
  return emit(i);
}

ProgramBuilder& ProgramBuilder::fence() {
  Instruction i;
  i.op = OpClass::kFence;
  return emit(i);
}

ProgramBuilder& ProgramBuilder::rdcycle(RegIndex dst) {
  Instruction i;
  i.op = OpClass::kRdCycle;
  i.dst = dst;
  return emit(i);
}

ProgramBuilder& ProgramBuilder::halt() {
  Instruction i;
  i.op = OpClass::kHalt;
  return emit(i);
}

ProgramBuilder& ProgramBuilder::label(const std::string& name) {
  if (labels_.count(name) != 0) {
    throw std::invalid_argument("ProgramBuilder: duplicate label " + name);
  }
  labels_[name] = cursor_;
  return *this;
}

Addr ProgramBuilder::label_addr(const std::string& name) const {
  auto it = labels_.find(name);
  if (it == labels_.end()) {
    throw std::runtime_error("ProgramBuilder: unknown label " + name);
  }
  return it->second;
}

ProgramBuilder& ProgramBuilder::at(Addr pc) {
  if (pc % kInstrBytes != 0) {
    throw std::invalid_argument("ProgramBuilder::at: misaligned pc");
  }
  cursor_ = pc;
  return *this;
}

Program ProgramBuilder::build() {
  for (const auto& fixup : fixups_) {
    auto it = labels_.find(fixup.label);
    if (it == labels_.end()) {
      throw std::runtime_error("ProgramBuilder: unbound label " + fixup.label);
    }
    const Instruction* existing = program_.at(fixup.pc);
    Instruction patched = *existing;
    patched.target = it->second;
    program_.place(fixup.pc, patched, /*overwrite=*/true);
  }
  fixups_.clear();
  return program_;
}

}  // namespace safespec::isa
