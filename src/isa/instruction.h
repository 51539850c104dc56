// The SafeSpec micro-ISA.
//
// The simulator is execute-driven: instructions carry real semantics
// (register values, memory contents, permission faults) because the
// speculation attacks fundamentally depend on data flow — a speculatively
// loaded secret steering the address of a dependent load. A trace-driven
// model cannot express that.
//
// The ISA is deliberately small (RISC-flavoured, 32 integer registers,
// 4-byte fixed encoding for i-cache footprint purposes) but sufficient to
// express every PoC in the paper: bounds-checked gadgets (Spectre v1),
// indirect-branch hijack (Spectre v2), kernel reads with delayed faults
// (Meltdown), data-dependent branch fans (the Fig 5 i-cache variant),
// page-granular probes (TLB variants) and in-program timing (rdtscp).
#pragma once

#include <cstdint>
#include <string>

#include "common/types.h"

namespace safespec::isa {

/// Architected size of one instruction in bytes; a 64 B i-cache line holds
/// 16 instructions.
inline constexpr Addr kInstrBytes = 4;

/// Major operation class. Determines which pipeline resources an
/// instruction uses and how the core executes it.
enum class OpClass : std::uint8_t {
  kNop,             ///< no effect, 1-cycle ALU slot
  kAlu,             ///< integer ALU op, 1 cycle
  kMul,             ///< integer multiply, 3 cycles
  kDiv,             ///< integer divide, 20 cycles
  kLoad,            ///< memory read:  dst = MEM64[R[src1] + imm]
  kStore,           ///< memory write: MEM64[R[src1] + imm] = R[src2]
  kBranch,          ///< conditional direct branch on cond(R[src1], R[src2])
  kJump,            ///< unconditional direct branch
  kBranchIndirect,  ///< indirect branch: target = R[src1] + imm
  kCall,            ///< direct call: link reg <- pc+4, jump to target
  kRet,             ///< return: target = R[link]
  kFlush,           ///< clflush: evict line at R[src1] + imm from all caches
  kFence,           ///< serializing fence: dispatch stalls until ROB drains
  kRdCycle,         ///< dst = current core cycle (rdtscp analogue)
  kHalt,            ///< stop simulation
};

/// ALU operation selector for kAlu / kMul / kDiv.
enum class AluOp : std::uint8_t {
  kAdd,
  kSub,
  kAnd,
  kOr,
  kXor,
  kShl,
  kShr,
  kMul,
  kDiv,
  kMovImm,  ///< dst = imm (src operands ignored)
};
inline constexpr int kNumAluOps = static_cast<int>(AluOp::kMovImm) + 1;

/// Comparison predicate for conditional branches.
enum class CondOp : std::uint8_t {
  kEq,   ///< R[src1] == R[src2]
  kNe,
  kLt,   ///< signed less-than
  kGe,
  kLtu,  ///< unsigned less-than
  kGeu,
};
inline constexpr int kNumCondOps = static_cast<int>(CondOp::kGeu) + 1;

/// Link register used by kCall / kRet (like RISC ra).
inline constexpr RegIndex kLinkReg = 31;

/// One static instruction. Plain value type; `Program` owns the stream.
struct Instruction {
  OpClass op = OpClass::kNop;
  AluOp alu = AluOp::kAdd;
  CondOp cond = CondOp::kEq;
  RegIndex dst = kZeroReg;
  RegIndex src1 = kZeroReg;
  RegIndex src2 = kZeroReg;
  /// Immediate operand: ALU operand-2 when use_imm, load/store/indirect
  /// displacement, or kMovImm payload.
  std::int64_t imm = 0;
  /// Static target of kBranch (taken direction), kJump, kCall.
  Addr target = 0;
  /// ALU operand 2 comes from imm instead of R[src2].
  bool use_imm = false;

  bool is_branch() const {
    return op == OpClass::kBranch || op == OpClass::kJump ||
           op == OpClass::kBranchIndirect || op == OpClass::kCall ||
           op == OpClass::kRet;
  }
  bool is_memory() const {
    return op == OpClass::kLoad || op == OpClass::kStore ||
           op == OpClass::kFlush;
  }
  bool writes_register() const {
    return (op == OpClass::kAlu || op == OpClass::kMul ||
            op == OpClass::kDiv || op == OpClass::kLoad ||
            op == OpClass::kRdCycle || op == OpClass::kCall) &&
           dst != kZeroReg;
  }
};

/// Evaluates an ALU/MUL/DIV operation. Division by zero yields all-ones
/// (matching x86's #DE being out of scope — workloads never divide by 0;
/// the total function keeps the simulator exception-free here). Inline so
/// a caller that passes a constant `op` (the functional engine's fused
/// cases) folds the switch away.
inline std::uint64_t eval_alu(AluOp op, std::uint64_t a, std::uint64_t b) {
  switch (op) {
    case AluOp::kAdd:
      return a + b;
    case AluOp::kSub:
      return a - b;
    case AluOp::kAnd:
      return a & b;
    case AluOp::kOr:
      return a | b;
    case AluOp::kXor:
      return a ^ b;
    case AluOp::kShl:
      return a << (b & 63);
    case AluOp::kShr:
      return a >> (b & 63);
    case AluOp::kMul:
      return a * b;
    case AluOp::kDiv:
      return b == 0 ? ~0ULL : a / b;
    case AluOp::kMovImm:
      return b;
  }
  return 0;
}

/// Evaluates a branch predicate. Inline for the same reason as eval_alu.
inline bool eval_cond(CondOp op, std::uint64_t a, std::uint64_t b) {
  switch (op) {
    case CondOp::kEq:
      return a == b;
    case CondOp::kNe:
      return a != b;
    case CondOp::kLt:
      return static_cast<std::int64_t>(a) < static_cast<std::int64_t>(b);
    case CondOp::kGe:
      return static_cast<std::int64_t>(a) >= static_cast<std::int64_t>(b);
    case CondOp::kLtu:
      return a < b;
    case CondOp::kGeu:
      return a >= b;
  }
  return false;
}

/// Human-readable disassembly (for logs and test failure messages).
std::string to_string(const Instruction& inst);

}  // namespace safespec::isa
