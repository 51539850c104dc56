#include "isa/instruction.h"

#include <sstream>

namespace safespec::isa {

namespace {
const char* op_name(OpClass op) {
  switch (op) {
    case OpClass::kNop:
      return "nop";
    case OpClass::kAlu:
      return "alu";
    case OpClass::kMul:
      return "mul";
    case OpClass::kDiv:
      return "div";
    case OpClass::kLoad:
      return "load";
    case OpClass::kStore:
      return "store";
    case OpClass::kBranch:
      return "br";
    case OpClass::kJump:
      return "jmp";
    case OpClass::kBranchIndirect:
      return "br.ind";
    case OpClass::kCall:
      return "call";
    case OpClass::kRet:
      return "ret";
    case OpClass::kFlush:
      return "clflush";
    case OpClass::kFence:
      return "fence";
    case OpClass::kRdCycle:
      return "rdcycle";
    case OpClass::kHalt:
      return "halt";
  }
  return "?";
}
}  // namespace

std::string to_string(const Instruction& inst) {
  std::ostringstream oss;
  oss << op_name(inst.op) << " d=r" << static_cast<int>(inst.dst) << " s1=r"
      << static_cast<int>(inst.src1) << " s2=r" << static_cast<int>(inst.src2)
      << " imm=" << inst.imm;
  if (inst.is_branch()) oss << " tgt=0x" << std::hex << inst.target;
  return oss.str();
}

}  // namespace safespec::isa
