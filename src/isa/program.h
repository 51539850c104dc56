// A `Program` maps instruction addresses to static instructions, plus the
// entry point and an optional fault-handler address (the micro-ISA's
// analogue of a SIGSEGV handler, which Meltdown-style PoCs need to recover
// from the delayed permission fault).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/paged_addr_map.h"
#include "common/types.h"
#include "isa/instruction.h"

namespace safespec::isa {

/// A complete static program image. Instructions live at 4-byte-aligned
/// virtual addresses; fetch walks this map.
class Program {
 public:
  /// Places `inst` at `pc` (must be kInstrBytes-aligned and unoccupied
  /// unless `overwrite`).
  void place(Addr pc, const Instruction& inst, bool overwrite = false);

  /// Fetch lookup; nullptr when no instruction exists at `pc` (the core
  /// treats that as a halt with an error flag so runaway speculation on
  /// garbage targets terminates cleanly). Misaligned pcs — reachable only
  /// through speculated indirect targets — are never occupied.
  const Instruction* at(Addr pc) const {
    if (pc % kInstrBytes != 0) return nullptr;
    return text_->find(pc / kInstrBytes);
  }

  bool contains(Addr pc) const { return at(pc) != nullptr; }
  std::size_t size() const { return text_->size(); }

  Addr entry() const { return entry_; }
  void set_entry(Addr pc) { entry_ = pc; }

  /// Commit-time permission faults redirect here when set (user-level
  /// fault recovery, as Meltdown PoCs rely on). Unset => fault halts.
  std::optional<Addr> fault_handler() const { return fault_handler_; }
  void set_fault_handler(Addr pc) { fault_handler_ = pc; }

  /// All occupied PCs in ascending order (used by tests/tools).
  std::vector<Addr> pcs() const;

 private:
  /// Fetch looks this up every instruction. Keyed by pc / kInstrBytes so
  /// consecutive instructions pack densely into the backing pages.
  ///
  /// Copies of a Program share one text: every machine built from a
  /// program reads the same instructions, so copying a Program (once per
  /// machine, and per core) costs a reference count rather than a copy
  /// of its pages. place() copies the text first while it is shared.
  std::shared_ptr<PagedAddrMap<Instruction>> text_ =
      std::make_shared<PagedAddrMap<Instruction>>();
  Addr entry_ = 0;
  std::optional<Addr> fault_handler_;
};

/// Full disassembly listing, one "0xPC: <instruction>" line per occupied
/// address in ascending order. The fuzz driver prints this for failing
/// seeds so a repro comes with the program that triggered it.
std::string to_string(const Program& program);

/// Fluent builder that lays instructions out sequentially and resolves
/// forward label references. All attack PoCs and workload generators
/// construct programs through this.
class ProgramBuilder {
 public:
  /// Starts emitting at `base` (kInstrBytes aligned).
  explicit ProgramBuilder(Addr base = 0x1000) : cursor_(base) {}

  /// Current emission address.
  Addr here() const { return cursor_; }

  /// Appends an instruction at the cursor and advances it.
  ProgramBuilder& emit(const Instruction& inst);

  // ---- convenience emitters -------------------------------------------
  ProgramBuilder& nop();
  /// dst = imm
  ProgramBuilder& movi(RegIndex dst, std::int64_t imm);
  /// dst = a OP b
  ProgramBuilder& alu(AluOp op, RegIndex dst, RegIndex a, RegIndex b);
  /// dst = a OP imm
  ProgramBuilder& alui(AluOp op, RegIndex dst, RegIndex a, std::int64_t imm);
  /// dst = MEM64[base + imm]
  ProgramBuilder& load(RegIndex dst, RegIndex base, std::int64_t imm = 0);
  /// MEM64[base + imm] = src
  ProgramBuilder& store(RegIndex src, RegIndex base, std::int64_t imm = 0);
  /// conditional branch to `label` (resolved later) when cond(a, b)
  ProgramBuilder& branch(CondOp cond, RegIndex a, RegIndex b,
                         const std::string& label);
  ProgramBuilder& jump(const std::string& label);
  /// indirect jump to R[base] + imm
  ProgramBuilder& jump_reg(RegIndex base, std::int64_t imm = 0);
  ProgramBuilder& call(const std::string& label);
  ProgramBuilder& ret();
  /// clflush line containing R[base] + imm
  ProgramBuilder& flush(RegIndex base, std::int64_t imm = 0);
  ProgramBuilder& fence();
  ProgramBuilder& rdcycle(RegIndex dst);
  ProgramBuilder& halt();

  /// Binds `label` to the cursor. Labels may be referenced before or
  /// after binding; build() patches everything.
  ProgramBuilder& label(const std::string& name);

  /// Address a label resolved to (label must already be bound).
  Addr label_addr(const std::string& name) const;

  /// Moves the cursor to an arbitrary aligned address (e.g. to lay out a
  /// far-away gadget for BTB-collision experiments).
  ProgramBuilder& at(Addr pc);

  /// Resolves all label references and returns the finished program.
  /// Throws std::runtime_error on unbound labels.
  Program build();

 private:
  struct Fixup {
    Addr pc;
    std::string label;
  };

  Addr cursor_;
  Program program_;
  std::unordered_map<std::string, Addr> labels_;
  std::vector<Fixup> fixups_;
};

}  // namespace safespec::isa
