// Tests for the differential fuzzing subsystem: the architectural
// oracle's semantics (hand-computed final states covering every opcode
// class), the random program generator's determinism and termination,
// the differential harness's invariants, and — via the core's mutation
// hooks — the harness's ability to actually *catch* a corrupted core.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "fuzz/differential.h"
#include "fuzz/fuzz_spec.h"
#include "fuzz/generator.h"
#include "isa/program.h"
#include "memory/main_memory.h"
#include "memory/page_table.h"
#include "safespec/policy.h"
#include "sim/functional.h"
#include "sim/machine.h"

namespace safespec::fuzz {
namespace {

using isa::AluOp;
using isa::CondOp;
using isa::ProgramBuilder;

/// All-zero scenario weights ({} would re-apply the 1.0 defaults).
ScenarioWeights zero_weights() {
  ScenarioWeights w;
  w.branch_heavy = 0;
  w.pointer_chase = 0;
  w.protected_window = 0;
  w.self_confusing = 0;
  w.mixed_compute = 0;
  w.mem_storm = 0;
  return w;
}

constexpr Addr kText = 0x1000;
constexpr Addr kData = 0x10000;
constexpr Addr kKernel = 0x20000;

/// One oracle environment: user pages for text and data, one kernel
/// page, identity-translated.
struct OracleEnv {
  memory::MainMemory mem;
  memory::PageTable pt;

  OracleEnv() {
    for (const Addr base : {kText, kData}) {
      mem.map_page(page_of(base), memory::PagePerm::kUser);
      pt.map_identity(page_of(base), /*kernel_only=*/false);
    }
    mem.map_page(page_of(kKernel), memory::PagePerm::kKernel);
    pt.map_identity(page_of(kKernel), /*kernel_only=*/true);
  }

  cpu::StopReason run(const isa::Program& program,
                      sim::FunctionalEngine*& out,
                      std::uint64_t max_instrs = 100000) {
    oracle_storage.push_back(
        std::make_unique<sim::FunctionalEngine>(&program, &mem, &pt));
    out = oracle_storage.back().get();
    return out->run(max_instrs);
  }

  std::vector<std::unique_ptr<sim::FunctionalEngine>> oracle_storage;
};

// ---- FunctionalEngine as the oracle: hand-computed states per opcode class

TEST(OracleTest, MoviAndAluChain) {
  ProgramBuilder b(kText);
  b.movi(1, 10);
  b.alui(AluOp::kAdd, 2, 1, 5);        // r2 = 15
  b.alu(AluOp::kSub, 3, 2, 1);         // r3 = 5
  b.alui(AluOp::kShl, 4, 3, 4);        // r4 = 80
  b.alu(AluOp::kXor, 5, 4, 3);         // r5 = 80 ^ 5 = 85
  b.alui(AluOp::kAnd, 6, 5, 0xF);      // r6 = 5
  b.alui(AluOp::kOr, 7, 6, 0x30);      // r7 = 0x35
  b.alui(AluOp::kShr, 8, 7, 4);        // r8 = 3
  b.movi(0, 99);                        // r0 ignores writes
  b.halt();
  auto p = b.build();
  p.set_entry(kText);

  OracleEnv env;
  sim::FunctionalEngine* o = nullptr;
  EXPECT_EQ(env.run(p, o), cpu::StopReason::kHalted);
  EXPECT_EQ(o->reg(2), 15u);
  EXPECT_EQ(o->reg(3), 5u);
  EXPECT_EQ(o->reg(4), 80u);
  EXPECT_EQ(o->reg(5), 85u);
  EXPECT_EQ(o->reg(6), 5u);
  EXPECT_EQ(o->reg(7), 0x35u);
  EXPECT_EQ(o->reg(8), 3u);
  EXPECT_EQ(o->reg(0), 0u);
  EXPECT_EQ(o->committed(), 10u);  // including the halt
}

TEST(OracleTest, MulDivAndDivideByZero) {
  ProgramBuilder b(kText);
  b.movi(1, 7);
  b.alui(AluOp::kMul, 2, 1, 6);   // r2 = 42
  b.alui(AluOp::kDiv, 3, 2, 5);   // r3 = 8
  b.alu(AluOp::kDiv, 4, 2, 0);    // r4 = 42 / r0(=0) = all-ones
  b.halt();
  auto p = b.build();
  p.set_entry(kText);

  OracleEnv env;
  sim::FunctionalEngine* o = nullptr;
  EXPECT_EQ(env.run(p, o), cpu::StopReason::kHalted);
  EXPECT_EQ(o->reg(2), 42u);
  EXPECT_EQ(o->reg(3), 8u);
  EXPECT_EQ(o->reg(4), ~0ULL);
}

TEST(OracleTest, LoadStoreAndMemoryImage) {
  ProgramBuilder b(kText);
  b.movi(1, static_cast<std::int64_t>(kData));
  b.movi(2, 0xABCD);
  b.store(2, 1, 8);     // MEM[kData+8] = 0xABCD
  b.load(3, 1, 8);      // r3 = 0xABCD (just stored)
  b.load(4, 1, 0);      // r4 = 0x1111 (poked below)
  b.alu(AluOp::kAdd, 5, 3, 4);
  b.store(5, 1, 16);    // MEM[kData+16] = 0xABCD + 0x1111
  b.halt();
  auto p = b.build();
  p.set_entry(kText);

  OracleEnv env;
  env.mem.write64(kData, 0x1111);
  sim::FunctionalEngine* o = nullptr;
  EXPECT_EQ(env.run(p, o), cpu::StopReason::kHalted);
  EXPECT_EQ(o->reg(3), 0xABCDu);
  EXPECT_EQ(o->reg(4), 0x1111u);
  const auto words = env.mem.nonzero_words();
  ASSERT_EQ(words.size(), 3u);
  EXPECT_EQ(words[0], (std::pair<Addr, std::uint64_t>{kData, 0x1111}));
  EXPECT_EQ(words[1], (std::pair<Addr, std::uint64_t>{kData + 8, 0xABCD}));
  EXPECT_EQ(words[2],
            (std::pair<Addr, std::uint64_t>{kData + 16, 0xABCD + 0x1111}));
}

TEST(OracleTest, BranchLoopSumsCorrectly) {
  // r2 = sum of 1..5 via a counted backward branch; the not-taken exit
  // covers both directions of kBranch.
  ProgramBuilder b(kText);
  b.movi(1, 5);
  b.movi(2, 0);
  b.label("loop");
  b.alu(AluOp::kAdd, 2, 2, 1);
  b.alui(AluOp::kSub, 1, 1, 1);
  b.branch(CondOp::kNe, 1, 0, "loop");
  b.halt();
  auto p = b.build();
  p.set_entry(kText);

  OracleEnv env;
  sim::FunctionalEngine* o = nullptr;
  EXPECT_EQ(env.run(p, o), cpu::StopReason::kHalted);
  EXPECT_EQ(o->reg(2), 15u);
  EXPECT_EQ(o->committed(), 2u + 3u * 5u + 1u);
}

TEST(OracleTest, JumpAndIndirectBranch) {
  ProgramBuilder b(kText);
  b.movi(1, 0);
  b.jump("over");
  b.movi(1, 111);  // skipped
  b.label("over");
  b.movi(2, static_cast<std::int64_t>(kText + 7 * isa::kInstrBytes));
  b.jump_reg(2);                        // to "landing"
  b.movi(1, 222);                       // skipped
  b.nop();                              // pc = kText + 6*4 — also skipped
  // pc = kText + 7*4:
  b.label("landing");
  b.movi(3, 42);
  b.halt();
  auto p = b.build();
  p.set_entry(kText);
  ASSERT_EQ(b.label_addr("landing"), kText + 7 * isa::kInstrBytes);

  OracleEnv env;
  sim::FunctionalEngine* o = nullptr;
  EXPECT_EQ(env.run(p, o), cpu::StopReason::kHalted);
  EXPECT_EQ(o->reg(1), 0u);
  EXPECT_EQ(o->reg(3), 42u);
}

TEST(OracleTest, CallLinksAndRetReturns) {
  ProgramBuilder b(kText);
  b.movi(1, 1);
  b.call("fn");            // pc = kText+4; link = kText+8
  b.alui(AluOp::kAdd, 1, 1, 100);  // after return: r1 = 1 + 10 + 100
  b.halt();
  b.label("fn");
  b.alui(AluOp::kAdd, 1, 1, 10);
  b.ret();
  auto p = b.build();
  p.set_entry(kText);

  OracleEnv env;
  sim::FunctionalEngine* o = nullptr;
  EXPECT_EQ(env.run(p, o), cpu::StopReason::kHalted);
  EXPECT_EQ(o->reg(1), 111u);
  EXPECT_EQ(o->reg(isa::kLinkReg), kText + 2 * isa::kInstrBytes);
}

TEST(OracleTest, FlushFenceNopHaveNoArchitecturalEffect) {
  ProgramBuilder b(kText);
  b.movi(1, static_cast<std::int64_t>(kData));
  b.movi(2, 5);
  b.store(2, 1, 0);
  b.nop();
  b.fence();
  b.flush(1, 0);
  b.load(3, 1, 0);
  b.halt();
  auto p = b.build();
  p.set_entry(kText);

  OracleEnv env;
  sim::FunctionalEngine* o = nullptr;
  EXPECT_EQ(env.run(p, o), cpu::StopReason::kHalted);
  EXPECT_EQ(o->reg(3), 5u);
  EXPECT_EQ(o->committed(), 8u);
}

TEST(OracleTest, RdCycleReturnsCommittedCount) {
  // Documented oracle-only semantics (the generator never emits
  // kRdCycle precisely because its real value is timing-dependent).
  ProgramBuilder b(kText);
  b.nop();
  b.nop();
  b.rdcycle(1);  // two instructions committed before this one
  b.halt();
  auto p = b.build();
  p.set_entry(kText);

  OracleEnv env;
  sim::FunctionalEngine* o = nullptr;
  EXPECT_EQ(env.run(p, o), cpu::StopReason::kHalted);
  EXPECT_EQ(o->reg(1), 2u);
}

TEST(OracleTest, KernelLoadFaultsIntoHandler) {
  ProgramBuilder b(kText);
  b.movi(1, static_cast<std::int64_t>(kKernel));
  b.movi(2, 7);               // r2 keeps 7: the faulting load never commits
  b.load(2, 1, 0);            // permission fault
  b.movi(3, 111);             // dead: control goes to the handler
  b.halt();
  b.label("handler");
  b.movi(4, 222);
  b.halt();
  auto p = b.build();
  p.set_entry(kText);
  p.set_fault_handler(b.label_addr("handler"));

  OracleEnv env;
  env.mem.write64(kKernel, 0x5EC7E7);  // the secret is there...
  sim::FunctionalEngine* o = nullptr;
  EXPECT_EQ(env.run(p, o), cpu::StopReason::kHalted);
  EXPECT_EQ(o->reg(2), 7u);   // ...but never architecturally visible
  EXPECT_EQ(o->reg(3), 0u);
  EXPECT_EQ(o->reg(4), 222u);
  EXPECT_EQ(o->faults(), 1u);
  EXPECT_EQ(o->committed(), 4u);  // movi, movi, handler movi, halt
}

TEST(OracleTest, KernelStoreFaultsAndWritesNothing) {
  ProgramBuilder b(kText);
  b.movi(1, static_cast<std::int64_t>(kKernel));
  b.movi(2, 0xBAD);
  b.store(2, 1, 0);
  b.halt();
  auto p = b.build();
  p.set_entry(kText);

  OracleEnv env;
  sim::FunctionalEngine* o = nullptr;
  EXPECT_EQ(env.run(p, o), cpu::StopReason::kFaultNoHandler);
  EXPECT_EQ(o->faults(), 1u);
  EXPECT_TRUE(env.mem.nonzero_words().empty());
}

TEST(OracleTest, UnmappedLoadWithoutHandlerStops) {
  ProgramBuilder b(kText);
  b.movi(1, 0x7777000);  // unmapped
  b.load(2, 1, 0);
  b.halt();
  auto p = b.build();
  p.set_entry(kText);

  OracleEnv env;
  sim::FunctionalEngine* o = nullptr;
  EXPECT_EQ(env.run(p, o), cpu::StopReason::kFaultNoHandler);
  EXPECT_EQ(o->committed(), 1u);  // only the movi
  EXPECT_EQ(o->reg(2), 0u);
}

TEST(OracleTest, RunningOffTextStops) {
  ProgramBuilder b(kText);
  b.movi(1, 1);
  b.nop();  // falls off the end: no instruction at the next pc
  auto p = b.build();
  p.set_entry(kText);

  OracleEnv env;
  sim::FunctionalEngine* o = nullptr;
  EXPECT_EQ(env.run(p, o), cpu::StopReason::kFaultNoHandler);
  EXPECT_EQ(o->committed(), 2u);
}

TEST(OracleTest, InstructionBudgetIsResumable) {
  ProgramBuilder b(kText);
  b.label("spin");
  b.alui(AluOp::kAdd, 1, 1, 1);
  b.jump("spin");
  auto p = b.build();
  p.set_entry(kText);

  OracleEnv env;
  sim::FunctionalEngine* o = nullptr;
  EXPECT_EQ(env.run(p, o, /*max_instrs=*/10), cpu::StopReason::kMaxInstrs);
  EXPECT_EQ(o->committed(), 10u);
  EXPECT_EQ(o->run(10), cpu::StopReason::kMaxInstrs);
  EXPECT_EQ(o->committed(), 20u);
}

// ---- generator ------------------------------------------------------------

TEST(GeneratorTest, DeterministicForSameSeed) {
  const FuzzSpec spec;
  const auto a = generate_program(42, spec);
  const auto b = generate_program(42, spec);
  EXPECT_EQ(isa::to_string(a.program), isa::to_string(b.program));
  EXPECT_EQ(a.classes, b.classes);
  ASSERT_EQ(a.pokes.size(), b.pokes.size());
  for (std::size_t i = 0; i < a.pokes.size(); ++i) {
    EXPECT_EQ(a.pokes[i].addr, b.pokes[i].addr);
    EXPECT_EQ(a.pokes[i].value, b.pokes[i].value);
  }
}

TEST(GeneratorTest, DifferentSeedsDiffer) {
  const FuzzSpec spec;
  const auto a = generate_program(1, spec);
  const auto b = generate_program(2, spec);
  EXPECT_NE(isa::to_string(a.program), isa::to_string(b.program));
}

TEST(GeneratorTest, GeneratedProgramsHaltWithinHint) {
  const FuzzSpec spec;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto fp = generate_program(seed, spec);
    memory::MainMemory mem;
    memory::PageTable pt;
    apply_address_space(fp, mem, pt);
    sim::FunctionalEngine oracle(&fp.program, &mem, &pt);
    EXPECT_EQ(oracle.run(fp.max_instrs_hint), cpu::StopReason::kHalted)
        << "seed " << seed;
  }
}

TEST(GeneratorTest, WeightsSelectScenarioClasses) {
  FuzzSpec spec;
  spec.weights = zero_weights();
  spec.weights.mem_storm = 1.0;  // ...except one
  const auto fp = generate_program(7, spec);
  ASSERT_FALSE(fp.classes.empty());
  for (const auto& c : fp.classes) EXPECT_EQ(c, "mem-storm");
}

TEST(GeneratorTest, FaultingScenariosActuallyFault) {
  FuzzSpec spec;
  spec.weights = zero_weights();
  spec.weights.protected_window = 1.0;
  spec.fault_frac = 1.0;
  std::uint64_t total_faults = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto fp = generate_program(seed, spec);
    memory::MainMemory mem;
    memory::PageTable pt;
    apply_address_space(fp, mem, pt);
    sim::FunctionalEngine oracle(&fp.program, &mem, &pt);
    EXPECT_EQ(oracle.run(fp.max_instrs_hint), cpu::StopReason::kHalted);
    total_faults += oracle.faults();
  }
  EXPECT_GT(total_faults, 0u);
}

TEST(FuzzSpecTest, JsonRoundTrip) {
  FuzzSpec spec;
  spec.weights.branch_heavy = 2.5;
  spec.weights.mem_storm = 0.0;
  spec.min_blocks = 4;
  spec.max_blocks = 9;
  spec.loop_iterations = 5;
  spec.data_bytes = 128 * 1024;
  spec.kernel_bytes = 8192;
  spec.fault_frac = 0.5;
  spec.install_fault_handler = false;

  const auto round = FuzzSpec::from_json(spec.to_json());
  EXPECT_EQ(round.weights.branch_heavy, 2.5);
  EXPECT_EQ(round.weights.mem_storm, 0.0);
  EXPECT_EQ(round.min_blocks, 4);
  EXPECT_EQ(round.max_blocks, 9);
  EXPECT_EQ(round.loop_iterations, 5);
  EXPECT_EQ(round.data_bytes, 128u * 1024u);
  EXPECT_EQ(round.kernel_bytes, 8192u);
  EXPECT_EQ(round.fault_frac, 0.5);
  EXPECT_FALSE(round.install_fault_handler);
}

TEST(FuzzSpecTest, RejectsNonsense) {
  EXPECT_THROW(FuzzSpec::from_json("{\"min_blocks\": 0}"),
               std::invalid_argument);
  EXPECT_THROW(
      FuzzSpec::from_json("{\"weights\": {\"branch_heavy\": -1}}"),
      std::invalid_argument);
  FuzzSpec all_zero;
  all_zero.weights = zero_weights();
  EXPECT_THROW(all_zero.validate(), std::invalid_argument);
}

// A misspelt key must be refused, naming its dotted path, rather than
// leave its field at the default.
TEST(FuzzSpecTest, RejectsUnknownKeysByPath) {
  const auto message = [](const std::string& text) -> std::string {
    try {
      FuzzSpec::from_json(text);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "accepted";
  };
  EXPECT_NE(message("{\"min_blokcs\": 3}").find("\"min_blokcs\""),
            std::string::npos);
  EXPECT_NE(message("{\"weights\": {\"branch_hevy\": 2}}")
                .find("\"weights.branch_hevy\""),
            std::string::npos);
  EXPECT_NE(message("{\"weights\": 2}").find("weights"), std::string::npos);
  EXPECT_EQ(message("{\"min_blocks\": 3, \"weights\": {\"mem_storm\": 2}}"),
            "accepted");
}

// ---- differential harness -------------------------------------------------

TEST(DifferentialTest, SeedRangePassesAllInvariants) {
  const FuzzSpec spec;
  const DifferentialConfig config;
  const auto report = run_fuzz(1, 8, spec, config, /*threads=*/2);
  for (const auto& failure : report.failures) {
    ADD_FAILURE() << "seed " << failure.seed << ": "
                  << failure.violations.front();
  }
  EXPECT_TRUE(report.ok());
  // All registered policies x presets ran for every seed.
  EXPECT_EQ(report.total_cells, 8u * sim::machine_preset_names().size() *
                                    policy::registered_policy_names().size());
}

TEST(DifferentialTest, ReportIsThreadCountInvariant) {
  const FuzzSpec spec;
  const DifferentialConfig config;
  const auto serial = run_fuzz(1, 6, spec, config, /*threads=*/1);
  const auto parallel = run_fuzz(1, 6, spec, config, /*threads=*/4);
  EXPECT_EQ(serial.failures.size(), parallel.failures.size());
  EXPECT_EQ(serial.total_cells, parallel.total_cells);
  EXPECT_EQ(serial.total_committed, parallel.total_committed);
}

TEST(DifferentialTest, GeneratedProgramsExerciseSpeculation) {
  // The shadow-drain invariant only has teeth if squashes happen; check
  // a real cell misspeculates.
  const auto fp = generate_program(1, FuzzSpec{});
  auto builder = sim::MachineBuilder::from_preset("skylake").policy("WFC");
  for (const auto& region : fp.regions) {
    builder.map_region(region.base, region.bytes, region.perm);
  }
  for (const auto& poke : fp.pokes) builder.poke(poke.addr, poke.value);
  const auto sim = builder.build(fp.program);
  const auto result = sim->run(4'000'000, 4 * fp.max_instrs_hint);
  EXPECT_EQ(result.stop, cpu::StopReason::kHalted);
  EXPECT_GT(result.mispredicts, 0u);
  EXPECT_GT(result.squashed_instrs, 0u);
}

TEST(DifferentialTest, PolicyAndPresetSubsetsAreHonoured) {
  const FuzzSpec spec;
  DifferentialConfig config;
  config.policies = {"WFC"};
  config.presets = {"skylake"};
  const auto verdict = check_seed(3, spec, config);
  EXPECT_TRUE(verdict.ok);
  EXPECT_EQ(verdict.cells, 1u);
}

// ---- mutation testing: the harness must catch a corrupted core ------------

TEST(MutationTest, CorruptedWritebackIsCaughtByOracle) {
  const FuzzSpec spec;
  DifferentialConfig config;
  config.mutation.commit_xor = 0xDEADBEEF;
  const auto verdict = check_seed(1, spec, config);
  ASSERT_FALSE(verdict.ok);
  bool oracle_divergence = false;
  for (const auto& violation : verdict.violations) {
    if (violation.find("diverges from oracle") != std::string::npos) {
      oracle_divergence = true;
    }
  }
  EXPECT_TRUE(oracle_divergence);
}

TEST(MutationTest, SkippedSquashIsCaughtByShadowDrainInvariant) {
  // The classic SafeSpec implementation bug: a squash that forgets to
  // annul its shadow references. Architectural state is untouched — only
  // the drain invariant can see it.
  const FuzzSpec spec;
  DifferentialConfig config;
  config.mutation.skip_squash_release = true;
  config.policies = {"WFC", "WFB"};
  bool caught = false;
  for (std::uint64_t seed = 1; seed <= 5 && !caught; ++seed) {
    const auto verdict = check_seed(seed, spec, config);
    for (const auto& violation : verdict.violations) {
      if (violation.find("shadow structures not empty") !=
          std::string::npos) {
        caught = true;
      }
    }
  }
  EXPECT_TRUE(caught);
}

TEST(MutationTest, CleanCoreStillPassesWithMutationStructArmedOff) {
  const FuzzSpec spec;
  DifferentialConfig config;
  config.mutation = cpu::MutationHooks{};
  const auto verdict = check_seed(1, spec, config);
  EXPECT_TRUE(verdict.ok) << (verdict.violations.empty()
                                  ? ""
                                  : verdict.violations.front());
}

}  // namespace
}  // namespace safespec::fuzz
