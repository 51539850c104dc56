// Focused behavioural tests of the SafeSpec policies inside the core:
// promotion timing, TLB isolation, store-queue details, and control-flow
// corner cases that the end-to-end attack tests exercise only indirectly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "isa/program.h"
#include "memory/cache.h"
#include "safespec/policy.h"
#include "sim/machine.h"
#include "sim/simulator.h"
#include "workloads/runner.h"
#include "workloads/workload.h"

namespace safespec {
namespace {

using isa::AluOp;
using isa::CondOp;
using isa::ProgramBuilder;

/// The "skylake" preset's core (Tables I and II) under a registered
/// policy.
cpu::CoreConfig skylake(const std::string& policy = "baseline") {
  cpu::CoreConfig config = sim::machine_preset("skylake").core;
  config.policy = policy;
  return config;
}

sim::Simulator make_sim(isa::Program program, const std::string& policy) {
  sim::Simulator s(skylake(policy), std::move(program));
  s.map_text();
  return s;
}

TEST(TlbIsolation, SpeculativeTranslationStaysOutOfPrimaryDtlbUnderWFC) {
  // A committed load must promote its translation; under WFC nothing may
  // appear in the primary dTLB before that commit. After the run the
  // translation must be present (it committed).
  constexpr Addr kData = 0x700000;
  ProgramBuilder b(0x1000);
  b.movi(1, kData).load(2, 1, 0).fence().halt();
  auto prog = b.build();
  prog.set_entry(0x1000);
  auto s = make_sim(std::move(prog), "WFC");
  s.map_region(kData, kPageSize);
  EXPECT_FALSE(s.core().dtlb().probe(page_of(kData)));
  s.run();
  EXPECT_TRUE(s.core().dtlb().probe(page_of(kData)));
  EXPECT_EQ(s.core().shadow_dtlb().live_count(), 0);
}

TEST(TlbIsolation, SquashedTranslationNeverReachesPrimaryDtlb) {
  // A load executed only on the wrong path of a mispredicted branch must
  // leave no dTLB entry under WFC (it does leave one on the baseline —
  // that asymmetry IS the dTLB covert channel of Table IV).
  constexpr Addr kWrongPage = 0x710000;
  constexpr Addr kSlow = 0x720000;
  for (const std::string policy : {"baseline", "WFC"}) {
    ProgramBuilder b(0x1000);
    b.movi(1, kWrongPage).movi(2, kSlow);
    b.flush(2, 0).fence();
    b.load(3, 2, 0);                              // slow condition source
    b.branch(CondOp::kGeu, 3, kZeroReg, "skip");  // always taken; predicted
                                                  // not-taken (cold counters
                                                  // predict weakly-not-taken)
    b.load(4, 1, 0);                              // wrong-path only
    b.label("skip").fence().halt();
    auto prog = b.build();
    prog.set_entry(0x1000);
    auto s = make_sim(std::move(prog), policy);
    s.map_region(kWrongPage, kPageSize);
    s.map_region(kSlow, kPageSize);
    s.run();
    const bool present = s.core().dtlb().probe(page_of(kWrongPage));
    if (policy == "baseline") {
      EXPECT_TRUE(present) << "baseline should leak the dTLB entry";
    } else {
      EXPECT_FALSE(present) << "WFC must annul the speculative translation";
    }
  }
}

TEST(CacheIsolation, WrongPathLineLeaksOnBaselineOnlyDCache) {
  constexpr Addr kWrongLine = 0x730000;
  constexpr Addr kSlow = 0x740000;
  for (const std::string policy : {"baseline", "WFC"}) {
    ProgramBuilder b(0x1000);
    b.movi(1, kWrongLine).movi(2, kSlow);
    b.flush(2, 0).fence();
    b.load(3, 2, 0);
    b.branch(CondOp::kGeu, 3, kZeroReg, "skip");
    b.load(4, 1, 0);  // wrong-path only
    b.label("skip").fence().halt();
    auto prog = b.build();
    prog.set_entry(0x1000);
    auto s = make_sim(std::move(prog), policy);
    s.map_region(kWrongLine, kPageSize);
    s.map_region(kSlow, kPageSize);
    s.run();
    const bool resident =
        s.core().hierarchy().resident_l1(line_of(kWrongLine),
                                         memory::Side::kData) ||
        s.core().hierarchy().resident_l3(line_of(kWrongLine));
    EXPECT_EQ(resident, policy == "baseline");
  }
}

TEST(StoreQueue, YoungestMatchingStoreForwards) {
  constexpr Addr kData = 0x750000;
  ProgramBuilder b(0x1000);
  b.movi(1, kData);
  b.movi(2, 11).store(2, 1, 0);
  b.movi(3, 22).store(3, 1, 0);  // younger store, same word
  b.load(4, 1, 0);               // must see 22
  b.halt();
  auto prog = b.build();
  prog.set_entry(0x1000);
  auto s = make_sim(std::move(prog), "WFC");
  s.map_region(kData, kPageSize);
  s.run();
  EXPECT_EQ(s.core().reg(4), 22u);
  EXPECT_EQ(s.peek(kData), 22u);
}

TEST(StoreQueue, DifferentWordsDoNotForward) {
  constexpr Addr kData = 0x760000;
  ProgramBuilder b(0x1000);
  b.movi(1, kData);
  b.movi(2, 11).store(2, 1, 0);
  b.load(4, 1, 8);  // different word: memory value (0), not 11
  b.halt();
  auto prog = b.build();
  prog.set_entry(0x1000);
  auto s = make_sim(std::move(prog), "WFC");
  s.map_region(kData, kPageSize);
  s.run();
  EXPECT_EQ(s.core().reg(4), 0u);
}

TEST(ControlFlow, NestedCallsReturnInOrder) {
  // The micro-ISA has one link register, so nested calls save/restore it
  // through a scratch register, as real RISC calling conventions do.
  ProgramBuilder b(0x1000);
  b.call("outer").movi(10, 1).halt();
  b.label("outer");
  b.alu(AluOp::kAdd, 20, isa::kLinkReg, kZeroReg);  // save ra
  b.call("inner");
  b.alu(AluOp::kAdd, isa::kLinkReg, 20, kZeroReg);  // restore ra
  b.alui(AluOp::kAdd, 11, 12, 1).ret();
  b.label("inner").movi(12, 41).ret();
  auto prog = b.build();
  prog.set_entry(0x1000);
  auto s = make_sim(std::move(prog), "WFC");
  const auto r = s.run();
  EXPECT_EQ(r.stop, cpu::StopReason::kHalted);
  EXPECT_EQ(s.core().reg(10), 1u);
  EXPECT_EQ(s.core().reg(11), 42u);
  EXPECT_EQ(s.core().reg(12), 41u);
}

TEST(ControlFlow, RepeatedCallsFromManySitesUseRsbCorrectly) {
  // 24 call sites to one function (the micro-ISA has a single link
  // register, so calls don't nest) — exercises RSB push/pop pairing at
  // distinct return addresses well past the 16-entry depth.
  ProgramBuilder b(0x1000);
  for (int i = 0; i < 24; ++i) b.call("fn");
  b.halt();
  b.label("fn").alui(AluOp::kAdd, 5, 5, 1).ret();
  auto prog = b.build();
  prog.set_entry(0x1000);
  auto s = make_sim(std::move(prog), "WFC");
  const auto r = s.run(2'000'000);
  EXPECT_EQ(r.stop, cpu::StopReason::kHalted);
  EXPECT_EQ(s.core().reg(5), 24u);
}

TEST(Policies, WfbPromotesAfterBranchResolutionBeforeCommit) {
  // Construct: a branch whose condition is slow, followed by a load. The
  // load's line must appear in the caches under WFB once the branch
  // resolves, even while the branch (and load) cannot yet commit because
  // an even slower *older* load blocks the ROB head.
  constexpr Addr kBlock = 0x770000;   // very slow head-of-ROB load
  constexpr Addr kProbe = 0x780000;   // the line whose promotion we watch
  ProgramBuilder b(0x1000);
  b.movi(1, kBlock).movi(2, kProbe);
  b.flush(1, 0).fence();
  b.load(3, 1, 0);                          // slow: blocks commit
  b.branch(CondOp::kGeu, kZeroReg, kZeroReg, "next");  // resolves fast
  b.label("next");
  b.load(4, 2, 0);                          // promotable under WFB
  b.fence().halt();
  auto prog = b.build();
  prog.set_entry(0x1000);
  auto s = make_sim(std::move(prog), "WFB");
  s.map_region(kBlock, kPageSize);
  s.map_region(kProbe, kPageSize);
  // Step manually and look for the probe line becoming resident while
  // instructions are still in flight (committed_instrs small).
  bool promoted_before_halt = false;
  for (int i = 0; i < 20000 && !s.core().halted(); ++i) {
    s.core().step();
    if (!s.core().halted() &&
        s.core().hierarchy().resident_l3(line_of(kProbe))) {
      promoted_before_halt = true;
      break;
    }
  }
  EXPECT_TRUE(promoted_before_halt)
      << "WFB must promote once older branches resolve, pre-commit";
}

TEST(Policies, WfbStillPromotesAtResolutionAfterFaultRecovery) {
  // Regression: a committed fault squashes the (already-swept) wrong
  // path and rewinds instruction numbering; the promotion sweep's
  // progress hint must be clamped with it, or every handler-path
  // instruction reuses a seq the sweep believes it has already promoted
  // — silently degrading WFB to commit-time (WFC) promotion after any
  // fault recovery.
  constexpr Addr kKernel = 0x700000;  // kernel-only: the committed fault
  constexpr Addr kBlock = 0x7B0000;   // slow head-of-handler load
  constexpr Addr kProbe = 0x7C0000;   // handler line whose timing we watch
  ProgramBuilder b(0x1000);
  b.movi(1, kKernel);
  b.load(2, 1, 0);  // faults at commit; speculation continues past it
  // Wrong-path window: enough promotable work to advance the sweep past
  // the faulting load before it commits.
  for (int i = 0; i < 12; ++i) b.alui(AluOp::kAdd, 7, 7, 1);
  b.halt();  // wrong path only
  b.at(0x8000).label("handler");
  // No fences here: the loads must sit in the handler's *first* dispatch
  // group, where their reused seqs land below the stale hint.
  b.movi(3, kBlock).movi(4, kProbe);
  b.load(5, 3, 0);  // cold miss to memory: blocks the commit stream
  b.load(6, 4, 0);  // must promote at resolution, pre-commit
  b.halt();
  auto prog = b.build();
  prog.set_entry(0x1000);
  prog.set_fault_handler(0x8000);
  auto s = make_sim(std::move(prog), "WFB");
  s.map_region(kKernel, kPageSize, memory::PagePerm::kKernel);
  s.map_region(kBlock, kPageSize);
  s.map_region(kProbe, kPageSize);
  bool promoted_before_commit = false;
  for (int i = 0; i < 20000 && !s.core().halted(); ++i) {
    s.core().step();
    // Commits before the blocker retires: pre-fault movi + two handler
    // movis = 3. The probe line appearing while the blocker still holds
    // the commit stream proves resolution-time promotion survived the
    // recovery.
    if (s.core().stats().committed_instrs < 4 &&
        s.core().hierarchy().resident_l3(line_of(kProbe))) {
      promoted_before_commit = true;
      break;
    }
  }
  EXPECT_TRUE(promoted_before_commit)
      << "fault recovery must not disable WFB's resolution-time promotion";
}

TEST(Policies, WfcDoesNotPromoteThatEarly) {
  // Same construction under WFC: as long as the slow older load blocks
  // commit, the probe line must NOT be in the primary caches.
  constexpr Addr kBlock = 0x790000;
  constexpr Addr kProbe = 0x7A0000;
  ProgramBuilder b(0x1000);
  b.movi(1, kBlock).movi(2, kProbe);
  b.flush(1, 0).fence();
  b.load(3, 1, 0);
  b.branch(CondOp::kGeu, kZeroReg, kZeroReg, "next");
  b.label("next");
  b.load(4, 2, 0);
  b.fence().halt();
  auto prog = b.build();
  prog.set_entry(0x1000);
  auto s = make_sim(std::move(prog), "WFC");
  s.map_region(kBlock, kPageSize);
  s.map_region(kProbe, kPageSize);
  bool promoted_while_blocked = false;
  for (int i = 0; i < 20000 && !s.core().halted(); ++i) {
    s.core().step();
    // While fewer than 6 instructions committed, the slow load hasn't
    // cleared the head; the probe line must still be shadow-only.
    if (s.core().stats().committed_instrs < 6 &&
        s.core().hierarchy().resident_l3(line_of(kProbe))) {
      promoted_while_blocked = true;
      break;
    }
  }
  EXPECT_FALSE(promoted_while_blocked);
}

TEST(Flush, CommittedClflushEvictsEveryLevel) {
  constexpr Addr kData = 0x7B0000;
  ProgramBuilder b(0x1000);
  b.movi(1, kData);
  b.load(2, 1, 0).fence();   // line resident everywhere
  b.flush(1, 0).fence();
  b.halt();
  auto prog = b.build();
  prog.set_entry(0x1000);
  auto s = make_sim(std::move(prog), "WFC");
  s.map_region(kData, kPageSize);
  s.run();
  EXPECT_FALSE(s.core().hierarchy().resident_l1(line_of(kData),
                                                memory::Side::kData));
  EXPECT_FALSE(s.core().hierarchy().resident_l2(line_of(kData)));
  EXPECT_FALSE(s.core().hierarchy().resident_l3(line_of(kData)));
}

// ---- commit_xor forwarding semantics --------------------------------------
// The commit_xor mutation hook XORs a constant into every *architectural*
// register writeback — and nothing else. In-flight consumers (operand
// capture at dispatch, wakeup after completion, branch resolution, store
// data) must observe the producer's raw pre-XOR result; only a consumer
// that reads the committed register file sees the XORed value. These
// tests pin that contract across every registered policy so the scheduler
// can be restructured without silently changing forwarding semantics.

/// Runs `program` under `policy_name` with commit_xor armed; returns the
/// simulator after the run for register/memory inspection.
std::unique_ptr<sim::Simulator> run_with_commit_xor(
    const isa::Program& program, const std::string& policy_name,
    std::uint64_t commit_xor) {
  cpu::CoreConfig config = skylake(policy_name);
  config.mutation.commit_xor = commit_xor;
  auto s = std::make_unique<sim::Simulator>(config, program);
  s->map_text();
  return s;
}

constexpr std::uint64_t kXor = 0x5A5AF00D0000FFFFULL;

TEST(CommitXorForwarding, TightAluChainForwardsPreXorResults) {
  // Adjacent dependent ALU ops dispatch together, so every consumer binds
  // its operand from the in-flight producer: the chain computes on raw
  // results (7, 8, 9) and each commit XORs exactly once.
  ProgramBuilder b(0x1000);
  b.movi(1, 7);
  b.alui(AluOp::kAdd, 2, 1, 1);
  b.alui(AluOp::kAdd, 3, 2, 1);
  b.halt();
  auto prog = b.build();
  prog.set_entry(0x1000);
  for (const auto& policy : policy::registered_policy_names()) {
    auto s = run_with_commit_xor(prog, policy, kXor);
    ASSERT_EQ(s->run().stop, cpu::StopReason::kHalted) << policy;
    EXPECT_EQ(s->core().reg(1), 7u ^ kXor) << policy;
    EXPECT_EQ(s->core().reg(2), 8u ^ kXor) << policy;
    EXPECT_EQ(s->core().reg(3), 9u ^ kXor) << policy;
  }
}

TEST(CommitXorForwarding, LoadWakeupForwardsPreXorResult) {
  // The wakeup path proper: a cold load completes long after its
  // dependents dispatched, so they sit in the issue queue and are woken
  // by the completing producer — with the raw loaded value, not the
  // XORed one the register file will hold.
  constexpr Addr kData = 0x7D0000;
  ProgramBuilder b(0x1000);
  b.movi(1, kData);
  b.load(2, 1, 0);               // cold miss: wakes r3/r4 much later
  b.alui(AluOp::kAdd, 3, 2, 1);
  b.alu(AluOp::kAdd, 4, 2, 2);   // both operands from the same producer
  b.halt();
  auto prog = b.build();
  prog.set_entry(0x1000);
  for (const auto& policy : policy::registered_policy_names()) {
    auto s = run_with_commit_xor(prog, policy, kXor);
    s->map_region(kData, kPageSize);
    s->poke(kData, 0x1000u);
    ASSERT_EQ(s->run().stop, cpu::StopReason::kHalted) << policy;
    EXPECT_EQ(s->core().reg(2), 0x1000u ^ kXor) << policy;
    EXPECT_EQ(s->core().reg(3), 0x1001u ^ kXor) << policy;
    EXPECT_EQ(s->core().reg(4), 0x2000u ^ kXor) << policy;
  }
}

TEST(CommitXorForwarding, BranchResolvesOnPreXorOperands) {
  // r1's raw result is kXor (nonzero) while its committed value is 0;
  // the branch must resolve on the raw value and be taken.
  ProgramBuilder b(0x1000);
  b.movi(1, static_cast<std::int64_t>(kXor));
  b.branch(CondOp::kNe, 1, kZeroReg, "taken");
  b.movi(2, 111);  // fall-through: only reached on post-XOR operands
  b.halt();
  b.label("taken").movi(3, 222).halt();
  auto prog = b.build();
  prog.set_entry(0x1000);
  for (const auto& policy : policy::registered_policy_names()) {
    auto s = run_with_commit_xor(prog, policy, kXor);
    ASSERT_EQ(s->run().stop, cpu::StopReason::kHalted) << policy;
    EXPECT_EQ(s->core().reg(1), 0u) << policy;
    EXPECT_EQ(s->core().reg(2), 0u) << policy;
    EXPECT_EQ(s->core().reg(3), 222u ^ kXor) << policy;
  }
}

TEST(CommitXorForwarding, StoreDataAndStoreForwardingUsePreXorValues) {
  // Store data binds from the in-flight producer (pre-XOR), the store
  // writes that raw value to memory at commit (memory is never XORed),
  // and a younger load forwarded from the store queue sees it too.
  constexpr Addr kData = 0x7E0000;
  ProgramBuilder b(0x1000);
  b.movi(1, kData);
  b.movi(2, 0x77);
  b.store(2, 1, 0);
  b.load(3, 1, 0);  // forwarded from the in-flight store
  b.halt();
  auto prog = b.build();
  prog.set_entry(0x1000);
  for (const auto& policy : policy::registered_policy_names()) {
    auto s = run_with_commit_xor(prog, policy, kXor);
    s->map_region(kData, kPageSize);
    ASSERT_EQ(s->run().stop, cpu::StopReason::kHalted) << policy;
    EXPECT_EQ(s->peek(kData), 0x77u) << policy;
    EXPECT_EQ(s->core().reg(3), 0x77u ^ kXor) << policy;
  }
}

TEST(CommitXorForwarding, PostCommitConsumersReadXoredRegisterFile) {
  // A fence drains the pipeline, so the consumer dispatches after the
  // producer committed and its rename entry cleared: it reads the
  // architectural (post-XOR) value — the one place the XOR is visible to
  // a dependent.
  ProgramBuilder b(0x1000);
  b.movi(1, 7);
  b.fence();
  b.alui(AluOp::kAdd, 2, 1, 1);
  b.halt();
  auto prog = b.build();
  prog.set_entry(0x1000);
  for (const auto& policy : policy::registered_policy_names()) {
    auto s = run_with_commit_xor(prog, policy, kXor);
    ASSERT_EQ(s->run().stop, cpu::StopReason::kHalted) << policy;
    EXPECT_EQ(s->core().reg(1), 7u ^ kXor) << policy;
    EXPECT_EQ(s->core().reg(2), ((7u ^ kXor) + 1u) ^ kXor) << policy;
  }
}

// ---- scheduler corner cases -----------------------------------------------
// Each program below drives one corner of the issue / completion / WFB
// promotion scheduler. Under every registered policy the run's cycle
// count, committed instructions and shadow-cache promoted/squashed counts
// are pinned, so a scheduler restructuring that changes which entry
// issues, completes or promotes in which cycle (or in which order —
// promotion order is LRU fill order) fails here with the diverging
// policy named. A newly registered policy fails until it is pinned too.

struct SchedulerPin {
  const char* policy;
  Cycle cycles;
  std::uint64_t committed;
  std::uint64_t dcache_promoted;
  std::uint64_t dcache_squashed;
  std::uint64_t icache_promoted;
  std::uint64_t icache_squashed;
  /// First cycle at which the case's probe line is resident in the L3
  /// (0: never). It separates the policies' fill timing: issue (the
  /// unprotected ones), resolution (WFB) or commit (WFC).
  Cycle probe_l3_cycle;
};

/// Steps `program` to its halt under every registered policy (after
/// `setup` maps and seeds its data), checks the architectural result with
/// `check`, and compares the run against the policy's pin.
template <typename Setup, typename Check>
void expect_scheduler_pins(const isa::Program& program, Addr probe,
                           Setup setup, Check check,
                           const std::vector<SchedulerPin>& pins) {
  for (const auto& policy : policy::registered_policy_names()) {
    const cpu::CoreConfig config = skylake(policy);
    sim::Simulator s(config, program);
    s.map_text();
    setup(s);
    auto& core = s.core();
    Cycle probe_l3_cycle = 0;
    while (!core.halted() && core.now() < 100'000) {
      core.step();
      if (probe_l3_cycle == 0 &&
          core.hierarchy().resident_l3(line_of(probe))) {
        probe_l3_cycle = core.now();
      }
    }
    ASSERT_EQ(core.stop_reason(), cpu::StopReason::kHalted) << policy;
    check(s, policy);
    const SchedulerPin actual{
        policy.c_str(),
        core.stats().cycles,
        core.stats().committed_instrs,
        core.shadow_dcache().stats().committed.value(),
        core.shadow_dcache().stats().squashed.value(),
        core.shadow_icache().stats().committed.value(),
        core.shadow_icache().stats().squashed.value(),
        probe_l3_cycle};
    const auto pin = std::find_if(pins.begin(), pins.end(),
                                  [&](const SchedulerPin& p) {
                                    return policy == p.policy;
                                  });
    if (pin == pins.end()) {
      ADD_FAILURE() << "no pin for policy " << policy << "; measured {\""
                    << policy << "\", " << actual.cycles << ", "
                    << actual.committed << ", " << actual.dcache_promoted
                    << ", " << actual.dcache_squashed << ", "
                    << actual.icache_promoted << ", "
                    << actual.icache_squashed << ", "
                    << actual.probe_l3_cycle << "}";
      continue;
    }
    EXPECT_EQ(actual.cycles, pin->cycles) << policy;
    EXPECT_EQ(actual.committed, pin->committed) << policy;
    EXPECT_EQ(actual.dcache_promoted, pin->dcache_promoted) << policy;
    EXPECT_EQ(actual.dcache_squashed, pin->dcache_squashed) << policy;
    EXPECT_EQ(actual.icache_promoted, pin->icache_promoted) << policy;
    EXPECT_EQ(actual.icache_squashed, pin->icache_squashed) << policy;
    EXPECT_EQ(actual.probe_l3_cycle, pin->probe_l3_cycle) << policy;
  }
}

TEST(SchedulerPins, OverflowWakeupReachesEveryConsumer) {
  // One cold load feeds 13 consumers — more than DynInst::kMaxDeps — so
  // its completion takes the dep_overflow wakeup path. Twelve consumers
  // are loads to distinct lines (each a shadow d-cache fill that WFB
  // promotes once it issues); the thirteenth is an ALU op.
  static_assert(cpu::DynInst::kMaxDeps < 13);
  constexpr Addr kPtr = 0x800000;
  constexpr Addr kArr = 0x810000;
  ProgramBuilder b(0x1000);
  b.movi(1, kPtr);
  b.load(2, 1, 0);  // cold miss: r2 = kArr
  for (int i = 0; i < 12; ++i) {
    b.load(static_cast<RegIndex>(3 + i), 2, i * 64);
  }
  b.alui(AluOp::kAdd, 15, 2, 1);
  b.halt();
  auto prog = b.build();
  prog.set_entry(0x1000);
  expect_scheduler_pins(
      prog, kArr + 11 * 64,
      [](sim::Simulator& s) {
        s.map_region(kPtr, kPageSize);
        s.map_region(kArr, kPageSize);
        s.poke(kPtr, kArr);
        for (int i = 0; i < 12; ++i) {
          s.poke(kArr + static_cast<Addr>(i) * 64,
                 static_cast<std::uint64_t>(i + 1));
        }
      },
      [](const sim::Simulator& s, const std::string& policy) {
        for (int i = 0; i < 12; ++i) {
          EXPECT_EQ(s.core().reg(static_cast<RegIndex>(3 + i)),
                    static_cast<std::uint64_t>(i + 1))
              << policy;
        }
        EXPECT_EQ(s.core().reg(15), kArr + 1) << policy;
      },
      {{"SHARP", 1757, 16, 0, 0, 0, 0, 1358},
       {"WFB", 2318, 16, 18, 4, 1, 0, 1920},
       {"WFB-stall", 2318, 16, 18, 4, 1, 0, 1920},
       {"WFC", 2318, 16, 18, 4, 1, 0, 2317},
       {"baseline", 1757, 16, 0, 0, 0, 0, 1358},
       {"detect-only", 1757, 16, 0, 0, 0, 0, 1358}});
}

TEST(SchedulerPins, ReadyFenceWaitsForRobHead) {
  // The fence has no operands, so it is ready the cycle it dispatches,
  // but it may execute only as the ROB head — behind a cold load here.
  // It retries every cycle until the load commits.
  constexpr Addr kSlow = 0x820000;
  constexpr Addr kData = 0x830000;
  ProgramBuilder b(0x1000);
  b.movi(1, kSlow).movi(3, kData);
  b.load(2, 1, 0);  // cold: holds the ROB head
  b.fence();        // ready, not at the head
  b.load(4, 3, 0);
  b.alu(AluOp::kAdd, 5, 2, 4);
  b.halt();
  auto prog = b.build();
  prog.set_entry(0x1000);
  expect_scheduler_pins(
      prog, kData,
      [](sim::Simulator& s) {
        s.map_region(kSlow, kPageSize);
        s.map_region(kData, kPageSize);
        s.poke(kSlow, 40);
        s.poke(kData, 2);
      },
      [](const sim::Simulator& s, const std::string& policy) {
        EXPECT_EQ(s.core().reg(5), 42u) << policy;
      },
      {{"SHARP", 1766, 7, 0, 0, 0, 0, 1367},
       {"WFB", 2327, 7, 7, 4, 1, 0, 1929},
       {"WFB-stall", 2327, 7, 7, 4, 1, 0, 1929},
       {"WFC", 2327, 7, 7, 4, 1, 0, 2326},
       {"baseline", 1766, 7, 0, 0, 0, 0, 1367},
       {"detect-only", 1766, 7, 0, 0, 0, 0, 1367}});
}

TEST(SchedulerPins, LoadWaitsForOlderUnknownStoreAddress) {
  // The store's address comes from a cold load, so it stays unissued for
  // a memory latency; the younger independent load is ready at once but
  // must retry until the store's address is known. The last load then
  // forwards from the store.
  constexpr Addr kPtr = 0x840000;
  constexpr Addr kDst = 0x850000;
  constexpr Addr kOther = 0x860000;
  ProgramBuilder b(0x1000);
  b.movi(1, kPtr).movi(3, 0x55).movi(4, kOther);
  b.load(2, 1, 0);   // cold: r2 = kDst
  b.store(3, 2, 0);  // address unknown until r2 arrives
  b.load(5, 4, 0);   // ready, held back by the store
  b.load(6, 2, 0);   // same word as the store: forwarded
  b.halt();
  auto prog = b.build();
  prog.set_entry(0x1000);
  expect_scheduler_pins(
      prog, kOther,
      [](sim::Simulator& s) {
        s.map_region(kPtr, kPageSize);
        s.map_region(kDst, kPageSize);
        s.map_region(kOther, kPageSize);
        s.poke(kPtr, kDst);
        s.poke(kOther, 9);
      },
      [](const sim::Simulator& s, const std::string& policy) {
        EXPECT_EQ(s.core().reg(5), 9u) << policy;
        EXPECT_EQ(s.core().reg(6), 0x55u) << policy;
        EXPECT_EQ(s.peek(kDst), 0x55u) << policy;
      },
      {{"SHARP", 1755, 8, 0, 0, 0, 0, 1357},
       {"WFB", 2316, 8, 8, 4, 1, 0, 1919},
       {"WFB-stall", 2316, 8, 8, 4, 1, 0, 1919},
       {"WFC", 2316, 8, 8, 4, 1, 0, 2316},
       {"baseline", 1755, 8, 0, 0, 0, 0, 1357},
       {"detect-only", 1755, 8, 0, 0, 0, 0, 1357}});
}

TEST(SchedulerPins, MispredictSquashesWhileOlderEntriesComplete) {
  // A taken branch the cold predictor calls not-taken resolves at the end
  // of a two-op ALU chain. Older multiplies issued alongside the chain
  // complete in the same cycle as the branch, so completion must handle
  // the older entries, then the branch, then stop at the squash. The
  // wrong path holds a load whose shadow line is annulled.
  constexpr Addr kWrong = 0x870000;
  constexpr Addr kRight = 0x880000;
  ProgramBuilder b(0x1000);
  b.movi(1, 1).movi(8, kWrong).movi(10, kRight);
  b.alu(AluOp::kMul, 2, 1, 1);
  b.alu(AluOp::kMul, 6, 1, 1);
  b.alui(AluOp::kAdd, 4, 1, 0);
  b.alui(AluOp::kAdd, 5, 4, 0);
  b.branch(CondOp::kNe, 5, kZeroReg, "taken");
  b.load(9, 8, 0);  // wrong path only
  b.halt();
  b.label("taken").load(11, 10, 0).alu(AluOp::kAdd, 12, 2, 6).halt();
  auto prog = b.build();
  prog.set_entry(0x1000);
  expect_scheduler_pins(
      prog, kRight,
      [](sim::Simulator& s) {
        s.map_region(kWrong, kPageSize);
        s.map_region(kRight, kPageSize);
        s.poke(kRight, 7);
      },
      [](const sim::Simulator& s, const std::string& policy) {
        EXPECT_EQ(s.core().reg(9), 0u) << policy;
        EXPECT_EQ(s.core().reg(11), 7u) << policy;
        EXPECT_EQ(s.core().reg(12), 2u) << policy;
        EXPECT_EQ(s.core().stats().mispredicts, 1u) << policy;
      },
      {{"SHARP", 1371, 11, 0, 0, 0, 0, 973},
       {"WFB", 1932, 11, 5, 9, 1, 0, 974},
       {"WFB-stall", 1932, 11, 5, 9, 1, 0, 974},
       {"WFC", 1932, 11, 5, 9, 1, 0, 1932},
       {"baseline", 1371, 11, 0, 0, 0, 0, 973},
       {"detect-only", 1371, 11, 0, 0, 0, 0, 973}});
}

TEST(SchedulerPins, CallAndJumpBelowFrontierPromoteAtResolution) {
  // A chain of three cold loads holds the ROB head while a call and a
  // jump dispatch behind it, each the first instruction of a new code
  // line, so each holds that line's shadow i-cache entry. No conditional
  // branch is in flight, so the WFB frontier passes them while they
  // still wait: WFB promotes their lines only when they resolve, long
  // before they commit. The probe is the call's code line (text is
  // identity-mapped).
  constexpr Addr kBlock = 0x890000;  // three pages, one per chain link
  constexpr Addr kData = 0x8C0000;
  constexpr Addr kCallSite = 0x2000;
  ProgramBuilder b(0x1000);
  b.movi(1, kBlock).movi(3, kData);
  b.load(2, 1, 0).load(2, 2, 0).load(2, 2, 0);  // cold chain: blocks commit
  b.jump("site");
  b.at(kCallSite).label("site").call("fn");
  b.load(6, 3, 64);
  b.halt();
  b.at(0x3000).label("fn").jump("tail");
  b.at(0x5000).label("tail").load(4, 3, 0).alui(AluOp::kAdd, 5, 4, 1).ret();
  auto prog = b.build();
  prog.set_entry(0x1000);
  expect_scheduler_pins(
      prog, kCallSite,
      [](sim::Simulator& s) {
        s.map_region(kBlock, 3 * kPageSize);
        s.map_region(kData, kPageSize);
        s.poke(kBlock, kBlock + kPageSize);
        s.poke(kBlock + kPageSize, kBlock + 2 * kPageSize);
        s.poke(kData, 4);
        s.poke(kData + 64, 6);
      },
      [](const sim::Simulator& s, const std::string& policy) {
        EXPECT_EQ(s.core().reg(5), 5u) << policy;
        EXPECT_EQ(s.core().reg(6), 6u) << policy;
      },
      {{"SHARP", 1985, 13, 0, 0, 0, 0, 973},
       {"WFB", 3107, 13, 10, 10, 4, 0, 1919},
       {"WFB-stall", 3107, 13, 10, 10, 4, 0, 1919},
       {"WFC", 3107, 13, 10, 10, 4, 0, 2336},
       {"baseline", 1985, 13, 0, 0, 0, 0, 973},
       {"detect-only", 1985, 13, 0, 0, 0, 0, 973}});
}

TEST(SchedulerPins, SameCyclePromotionsFillInSeqOrder) {
  // Nine loads to nine lines of one 8-way L1D set wait on a cold
  // producer, so the WFB frontier passes them before they issue; they
  // then issue six and three per cycle and promote at the next commit
  // stages. The promotion order is the LRU fill order, so it decides
  // which line the ninth fill evicts — and whether the final reload of
  // the first line hits the L1.
  constexpr Addr kPtr = 0x8D0040;
  constexpr Addr kBase = 0x900000;  // nine pages: one L1D set, 4 KB apart
  ProgramBuilder b(0x1000);
  b.movi(1, kPtr);
  b.load(2, 1, 0);  // cold: r2 = kBase
  for (int i = 0; i < 9; ++i) {
    b.load(static_cast<RegIndex>(3 + i), 2, i * static_cast<int>(kPageSize));
  }
  b.alu(AluOp::kAdd, 20, 2, 11);  // kBase + 0, once the ninth load is in
  b.load(21, 20, 0);              // reload of the first line
  b.halt();
  auto prog = b.build();
  prog.set_entry(0x1000);
  expect_scheduler_pins(
      prog, kBase,
      [](sim::Simulator& s) {
        s.map_region(kPtr, kPageSize);
        s.map_region(kBase, 9 * kPageSize);
        s.poke(kPtr, kBase);
        s.poke(kBase, 5);
      },
      [](const sim::Simulator& s, const std::string& policy) {
        EXPECT_EQ(s.core().reg(3), 5u) << policy;
        EXPECT_EQ(s.core().reg(21), 5u) << policy;
      },
      {{"SHARP", 1769, 14, 0, 0, 0, 0, 1357},
       {"WFB", 2330, 14, 18, 4, 1, 0, 1919},
       {"WFB-stall", 2330, 14, 18, 4, 1, 0, 1919},
       {"WFC", 2323, 14, 16, 4, 1, 0, 2316},
       {"baseline", 1769, 14, 0, 0, 0, 0, 1357},
       {"detect-only", 1769, 14, 0, 0, 0, 0, 1357}});
}

TEST(SchedulerPins, YoungestOlderStoreToTheWordForwards) {
  // Three stores to one word and one to the next word wait behind a cold
  // load at the ROB head, so none commits before the younger loads issue.
  // The first load must forward from the youngest store to its word, the
  // second from the one store to the neighbouring word.
  constexpr Addr kPtr = 0x940000;
  constexpr Addr kDst = 0x950000;
  ProgramBuilder b(0x1000);
  b.movi(1, kPtr).movi(7, kDst).movi(3, 1).movi(4, 2).movi(5, 3).movi(6, 4);
  b.load(2, 1, 0);  // cold: holds the ROB head
  b.store(3, 7, 0).store(4, 7, 0).store(6, 7, 8).store(5, 7, 0);
  b.load(8, 7, 0);
  b.load(9, 7, 8);
  b.halt();
  auto prog = b.build();
  prog.set_entry(0x1000);
  expect_scheduler_pins(
      prog, kDst,
      [](sim::Simulator& s) {
        s.map_region(kPtr, kPageSize);
        s.map_region(kDst, kPageSize);
      },
      [](const sim::Simulator& s, const std::string& policy) {
        EXPECT_EQ(s.core().reg(8), 3u) << policy;
        EXPECT_EQ(s.core().reg(9), 4u) << policy;
        EXPECT_EQ(s.peek(kDst), 3u) << policy;
      },
      {{"SHARP", 1362, 14, 0, 0, 0, 0, 1361},
       {"WFB", 1923, 14, 6, 4, 1, 0, 1922},
       {"WFB-stall", 1923, 14, 6, 4, 1, 0, 1922},
       {"WFC", 1923, 14, 6, 4, 1, 0, 1922},
       {"baseline", 1362, 14, 0, 0, 0, 0, 1361},
       {"detect-only", 1362, 14, 0, 0, 0, 0, 1361}});
}

TEST(SchedulerPins, UnknownStoreAddressBetweenStoresToTheWord) {
  // The middle of three stores takes its address from a cold load. The
  // younger load to the first and third stores' word must wait for that
  // address, then forward from the third store (the middle one goes to
  // another word).
  constexpr Addr kPtr = 0x960000;
  constexpr Addr kDst = 0x970000;
  constexpr Addr kOther = 0x980000;
  ProgramBuilder b(0x1000);
  b.movi(1, kPtr).movi(7, kDst).movi(3, 1).movi(4, 2).movi(5, 3);
  b.store(3, 7, 0);
  b.load(2, 1, 0);   // cold: r2 = kOther
  b.store(4, 2, 0);  // address unknown until r2 arrives
  b.store(5, 7, 0);
  b.load(8, 7, 0);
  b.halt();
  auto prog = b.build();
  prog.set_entry(0x1000);
  expect_scheduler_pins(
      prog, kOther,
      [](sim::Simulator& s) {
        s.map_region(kPtr, kPageSize);
        s.map_region(kDst, kPageSize);
        s.map_region(kOther, kPageSize);
        s.poke(kPtr, kOther);
      },
      [](const sim::Simulator& s, const std::string& policy) {
        EXPECT_EQ(s.core().reg(8), 3u) << policy;
        EXPECT_EQ(s.peek(kDst), 3u) << policy;
        EXPECT_EQ(s.peek(kOther), 2u) << policy;
      },
      {{"SHARP", 1565, 11, 0, 0, 0, 0, 1565},
       {"WFB", 1732, 11, 7, 4, 1, 0, 1732},
       {"WFB-stall", 1732, 11, 7, 4, 1, 0, 1732},
       {"WFC", 1732, 11, 7, 4, 1, 0, 1732},
       {"baseline", 1565, 11, 0, 0, 0, 0, 1565},
       {"detect-only", 1565, 11, 0, 0, 0, 0, 1565}});
}

TEST(SchedulerPins, SquashedStoresNeverForwardToReusedSeqs) {
  // A branch the cold predictor calls not-taken resolves taken once a
  // cold load returns. The wrong path issues two stores to the word the
  // right path then loads, so the right path's loads are dispatched on
  // the squashed stores' reused seqs and must read memory (or the one
  // older, right-path store) instead.
  constexpr Addr kSlow = 0x990000;
  constexpr Addr kDst = 0x9A0000;
  constexpr Addr kOld = 0x9B0000;
  ProgramBuilder b(0x1000);
  b.movi(1, kSlow).movi(7, kDst).movi(8, kOld).movi(3, 0x11).movi(4, 0x22);
  b.store(3, 8, 0);  // older than the branch: survives the squash
  b.load(2, 1, 0);   // cold: r2 = 1
  b.branch(CondOp::kNe, 2, kZeroReg, "taken");
  b.store(3, 7, 0).store(4, 7, 0);  // wrong path only
  b.load(9, 7, 0);
  b.halt();
  b.label("taken").load(10, 7, 0).load(11, 8, 0).load(12, 7, 0).halt();
  auto prog = b.build();
  prog.set_entry(0x1000);
  expect_scheduler_pins(
      prog, kDst,
      [](sim::Simulator& s) {
        s.map_region(kSlow, kPageSize);
        s.map_region(kDst, kPageSize);
        s.map_region(kOld, kPageSize);
        s.poke(kSlow, 1);
        s.poke(kDst, 7);
      },
      [](const sim::Simulator& s, const std::string& policy) {
        EXPECT_EQ(s.core().reg(9), 0u) << policy;
        EXPECT_EQ(s.core().reg(10), 7u) << policy;
        EXPECT_EQ(s.core().reg(11), 0x11u) << policy;
        EXPECT_EQ(s.core().reg(12), 7u) << policy;
        EXPECT_EQ(s.peek(kDst), 7u) << policy;
        EXPECT_EQ(s.core().stats().mispredicts, 1u) << policy;
      },
      {{"SHARP", 1560, 12, 0, 0, 0, 0, 1365},
       {"WFB", 1763, 12, 8, 5, 1, 0, 1366},
       {"WFB-stall", 1763, 12, 8, 5, 1, 0, 1366},
       {"WFC", 1763, 12, 8, 5, 1, 0, 1763},
       {"baseline", 1560, 12, 0, 0, 0, 0, 1365},
       {"detect-only", 1560, 12, 0, 0, 0, 0, 1365}});
}

TEST(SchedulerPins, FaultingStoreAtRobHeadRunsTheHandler) {
  // A user store to a kernel page faults when it reaches the ROB head;
  // the younger store behind it is squashed. The handler's stores and
  // load reuse the squashed seqs, and its load must forward from the
  // handler's own youngest store. Before them the handler fills the
  // whole STQ behind a chain of cold loads (long enough to fetch the
  // handler's cold code lines meanwhile) and then starts one more cold
  // load: an STQ slot the fault failed to free would hold the last filler
  // store, and with it that load, until the chain commits (+389 cycles
  // when the fault leaves the STQ count one too high).
  constexpr Addr kKernel = 0x9C0000;
  constexpr Addr kDst = 0x9D0000;
  constexpr Addr kSlow = 0xA30000;
  constexpr Addr kSlow2 = 0xA40000;
  constexpr int kChain = 24;  // one page per link, from kSlow
  const int stq_entries = skylake().stq_entries;
  ProgramBuilder b(0x1000);
  b.movi(1, kKernel).movi(7, kDst).movi(3, 0x33).movi(4, 0x44);
  b.movi(12, kSlow).movi(15, kSlow2);
  b.store(3, 1, 0);  // faults at commit
  b.store(4, 7, 0);  // squashed with the fault
  b.halt();
  b.label("handler");
  for (int i = 0; i < kChain; ++i) b.load(12, 12, 0);  // holds the head
  for (int i = 1; i <= stq_entries; ++i) b.store(3, 7, 8 * i);
  b.load(14, 15, 0);  // cold, overlapping the chain unless held back
  b.store(4, 7, 0).store(3, 7, 0).load(9, 7, 0).halt();
  auto prog = b.build();
  prog.set_fault_handler(b.label_addr("handler"));
  prog.set_entry(0x1000);
  expect_scheduler_pins(
      prog, kDst,
      [](sim::Simulator& s) {
        s.map_region(kKernel, kPageSize, memory::PagePerm::kKernel);
        s.map_region(kDst, kPageSize);
        s.map_region(kSlow, kChain * kPageSize);
        s.map_region(kSlow2, kPageSize);
        for (Addr i = 0; i + 1 < kChain; ++i) {
          s.poke(kSlow + i * kPageSize, kSlow + (i + 1) * kPageSize);
        }
      },
      [](const sim::Simulator& s, const std::string& policy) {
        EXPECT_EQ(s.peek(kKernel), 0u) << policy;
        EXPECT_EQ(s.core().reg(9), 0x33u) << policy;
        EXPECT_EQ(s.peek(kDst), 0x33u) << policy;
        EXPECT_EQ(s.core().stats().faults, 1u) << policy;
      },
      {{"SHARP", 6339, 91, 0, 0, 0, 0, 6329},
       {"WFB", 6972, 91, 42, 4, 6, 0, 6962},
       {"WFB-stall", 6972, 91, 42, 4, 6, 0, 6962},
       {"WFC", 7454, 91, 31, 9, 6, 0, 7444},
       {"baseline", 6339, 91, 0, 0, 0, 0, 6329},
       {"detect-only", 6339, 91, 0, 0, 0, 0, 6329}});
}

// ---- IdleSkip ---------------------------------------------------------------
// Simulator::run, the one stepping loop at every core count, may jump
// over cycles in which no pipeline stage can change state. These tests
// hold it to a plain loop of Core::step() calls, one per cycle: every
// statistic the run produces, including the per-cycle shadow occupancy
// histograms, must match.

/// Every observable a run leaves on one core, by name. Doubles are kept
/// as their bit patterns, so the comparison is exact.
using Observed = std::vector<std::pair<std::string, std::uint64_t>>;

std::uint64_t bits_of(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

void observe_histogram(Observed& out, const std::string& name,
                       const Histogram& h) {
  out.emplace_back(name + ".count", h.count());
  out.emplace_back(name + ".mean", bits_of(h.mean()));
  out.emplace_back(name + ".max", h.max());
  out.emplace_back(name + ".p9999", h.percentile(0.9999));
}

void observe_cache(Observed& out, const std::string& name,
                   const memory::Cache& cache) {
  out.emplace_back(name + ".hits", cache.stats().hits.value());
  out.emplace_back(name + ".misses", cache.stats().misses.value());
}

Observed observe(const cpu::Core& core) {
  Observed out;
  const auto add = [&out](const char* name, std::uint64_t v) {
    out.emplace_back(name, v);
  };
  const cpu::CoreStats& s = core.stats();
  add("now", core.now());
  add("halted", core.halted());
  add("cycles", s.cycles);
  add("committed_instrs", s.committed_instrs);
  add("committed_loads", s.committed_loads);
  add("committed_stores", s.committed_stores);
  add("committed_branches", s.committed_branches);
  add("fetched_instrs", s.fetched_instrs);
  add("squashed_instrs", s.squashed_instrs);
  add("squashes", s.squashes);
  add("mispredicts", s.mispredicts);
  add("faults", s.faults);
  add("shadow_stall_cycles", s.shadow_stall_cycles);
  add("fetch_accesses", s.fetch_accesses);
  add("fetch_l1i_hits", s.fetch_l1i_hits);
  add("fetch_shadow_hits", s.fetch_shadow_hits);
  add("fetch_misses", s.fetch_misses);
  add("dib_hits", s.dib_hits);
  add("dib_fills", s.dib_fills);
  observe_histogram(out, "shadow_dcache",
                    core.shadow_dcache().stats().occupancy);
  observe_histogram(out, "shadow_icache",
                    core.shadow_icache().stats().occupancy);
  observe_histogram(out, "shadow_dtlb", core.shadow_dtlb().stats().occupancy);
  observe_histogram(out, "shadow_itlb", core.shadow_itlb().stats().occupancy);
  observe_cache(out, "l1d", core.hierarchy().l1d());
  observe_cache(out, "l2", core.hierarchy().l2());
  observe_cache(out, "l3", core.hierarchy().l3());
  for (int r = 0; r < kNumArchRegs; ++r) {
    out.emplace_back("r" + std::to_string(r),
                     core.reg(static_cast<RegIndex>(r)));
  }
  return out;
}

void expect_same(const Observed& run, const Observed& stepped,
                 const std::string& what) {
  ASSERT_EQ(run.size(), stepped.size()) << what;
  for (std::size_t i = 0; i < run.size(); ++i) {
    EXPECT_EQ(run[i].second, stepped[i].second)
        << what << ": " << run[i].first;
  }
}

/// Steps every core of `sim` round-robin, core 0 first, one cycle each
/// per round, until each core has finished or `max_cycles` rounds ran —
/// the schedule of Simulator::run's stepping loop without any cycle
/// skipping or wedge backstop.
void step_to_rest(sim::Simulator& sim, Cycle max_cycles) {
  std::vector<bool> done(static_cast<std::size_t>(sim.num_cores()));
  for (Cycle t = 0; t < max_cycles; ++t) {
    bool live = false;
    for (int c = 0; c < sim.num_cores(); ++c) {
      const auto i = static_cast<std::size_t>(c);
      if (done[i]) continue;
      sim.core(c).step();
      done[i] = sim.core(c).finished();
      live = live || !done[i];
    }
    if (!live) return;
  }
}

cpu::CoreConfig idle_skip_config(const std::string& preset,
                                 const std::string& policy, int cores) {
  cpu::CoreConfig config = sim::machine_preset(preset).core;
  config.policy = policy;
  config.cores = cores;
  return config;
}

/// Runs `profile` under `config` once through Simulator::run and once by
/// stepping, and compares every core's observables. Returns the stepped
/// simulator.
std::unique_ptr<sim::Simulator> expect_run_matches_stepping(
    const workloads::WorkloadProfile& profile, const cpu::CoreConfig& config,
    std::uint64_t instrs, const std::string& what) {
  constexpr Cycle kBudget = 2'000'000;
  auto ran = workloads::make_workload_sim(profile, config, instrs);
  auto stepped = workloads::make_workload_sim(profile, config, instrs);
  const sim::SimResult result = ran->run(kBudget);
  step_to_rest(*stepped, kBudget);
  EXPECT_EQ(result.stop, cpu::StopReason::kHalted) << what;
  for (int c = 0; c < ran->num_cores(); ++c) {
    EXPECT_TRUE(stepped->core(c).halted()) << what << " core " << c;
    expect_same(observe(ran->core(c)), observe(stepped->core(c)),
                what + " core " + std::to_string(c));
  }
  return stepped;
}

TEST(IdleSkip, RunMatchesSteppingForEveryPolicyAndPreset) {
  for (const char* preset : {"skylake", "embedded"}) {
    for (const char* name : {"mcf", "gcc", "lbm"}) {
      const auto profile = workloads::profile_by_name(name);
      for (const auto& policy : policy::registered_policy_names()) {
        expect_run_matches_stepping(
            profile, idle_skip_config(preset, policy, 1), 3'000,
            std::string(preset) + "/" + name + "/" + policy);
      }
    }
  }
}

TEST(IdleSkip, RunMatchesSteppingUnderShadowStalls) {
  // Undersized kStall shadows: loads retry every cycle while the tables
  // are full, so shadow_stall_cycles counts cycles the skip must not eat.
  cpu::CoreConfig config = idle_skip_config("skylake", "WFB-stall", 1);
  config.shadow_dcache.entries = 4;
  config.shadow_dtlb.entries = 4;
  config.shadow_icache.entries = 8;
  config.shadow_itlb.entries = 4;
  const auto stepped = expect_run_matches_stepping(
      workloads::profile_by_name("mcf"), config, 3'000, "kStall");
  EXPECT_GT(stepped->core().stats().shadow_stall_cycles, 0u);
}

TEST(IdleSkip, RunMatchesSteppingAcrossAFence) {
  // A fence behind cold loads: dispatch blocks behind it and the fence
  // waits to be the ROB head, while the loads leave long idle gaps.
  constexpr Addr kA = 0xA00000;
  constexpr Addr kB = 0xA10000;
  ProgramBuilder b(0x1000);
  b.movi(1, kA).movi(3, kB);
  b.load(2, 1, 0).load(2, 2, 0);
  b.fence();
  b.load(4, 3, 0).alu(AluOp::kAdd, 5, 2, 4).rdcycle(6);
  b.halt();
  auto prog = b.build();
  prog.set_entry(0x1000);
  for (const auto& policy : policy::registered_policy_names()) {
    cpu::CoreConfig config = idle_skip_config("skylake", policy, 1);
    const auto build = [&] {
      auto s = std::make_unique<sim::Simulator>(config, prog);
      s->map_text();
      s->map_region(kA, kPageSize);
      s->map_region(kB, kPageSize);
      s->poke(kA, kA + 64);
      s->poke(kA + 64, 40);
      s->poke(kB, 2);
      return s;
    };
    auto ran = build();
    auto stepped = build();
    EXPECT_EQ(ran->run().stop, cpu::StopReason::kHalted) << policy;
    step_to_rest(*stepped, 100'000);
    EXPECT_EQ(ran->core().reg(5), 42u) << policy;
    expect_same(observe(ran->core()), observe(stepped->core()), policy);
  }
}

TEST(IdleSkip, TwoCoreRunMatchesRoundRobinStepping) {
  for (const char* name : {"mcf", "lbm"}) {
    for (const char* policy : {"baseline", "WFB", "WFC"}) {
      expect_run_matches_stepping(
          workloads::profile_by_name(name),
          idle_skip_config("skylake", policy, 2), 2'000,
          std::string(name) + "/" + policy + "/cores=2");
    }
  }
}

/// A pointer chase of cold loads: each link waits a full memory latency,
/// so the core idles for most of the run.
sim::Simulator chase_sim(const cpu::CoreConfig& config) {
  constexpr Addr kChain = 0xA20000;
  ProgramBuilder b(0x1000);
  b.movi(1, kChain);
  for (int i = 0; i < 4; ++i) b.load(1, 1, 0);
  b.halt();
  auto prog = b.build();
  prog.set_entry(0x1000);
  sim::Simulator s(config, std::move(prog));
  s.map_text();
  s.map_region(kChain, 4 * kPageSize);
  for (Addr i = 0; i < 3; ++i) {
    s.poke(kChain + i * kPageSize, kChain + (i + 1) * kPageSize);
  }
  return s;
}

TEST(IdleSkip, CycleBudgetInsideAnIdleGapStopsOnTheBudget) {
  // 700 cycles in, the chase waits on a cold link.
  constexpr Cycle kBudget = 700;
  for (const int cores : {1, 2}) {
    {
      // The budget does end inside an idle gap.
      auto probe = chase_sim(idle_skip_config("skylake", "WFC", cores));
      while (probe.core().now() < kBudget - 1) probe.core().step();
      EXPECT_GT(probe.core().next_event_cycle(), kBudget) << cores;
    }
    auto s = chase_sim(idle_skip_config("skylake", "WFC", cores));
    const sim::SimResult r = s.run(kBudget);
    EXPECT_EQ(r.stop, cpu::StopReason::kMaxCycles) << cores;
    for (int c = 0; c < cores; ++c) {
      const cpu::Core& core = s.core(c);
      EXPECT_EQ(core.stats().cycles, kBudget) << cores;
      EXPECT_EQ(core.shadow_dcache().stats().occupancy.count(), kBudget)
          << cores;
      EXPECT_EQ(core.shadow_itlb().stats().occupancy.count(), kBudget)
          << cores;
    }
    auto stepped = chase_sim(idle_skip_config("skylake", "WFC", cores));
    step_to_rest(stepped, kBudget);
    for (int c = 0; c < cores; ++c) {
      expect_same(observe(s.core(c)), observe(stepped.core(c)),
                  "cores=" + std::to_string(cores));
    }
  }
}

TEST(IdleSkip, WedgeBackstopFiresOnTheSameCycle) {
  // A 250'000-cycle memory latency: the first instruction fetch alone
  // outlasts the 100'000-cycle no-commit backstop.
  for (const int cores : {1, 2}) {
    cpu::CoreConfig config = idle_skip_config("skylake", "WFC", cores);
    config.hierarchy.memory_latency = 250'000;
    auto s = chase_sim(config);
    const sim::SimResult r = s.run();
    EXPECT_EQ(r.stop, cpu::StopReason::kFaultNoHandler) << cores;
    // The loop stops once the no-commit gap reaches 100'001 cycles, at
    // every core count.
    for (int c = 0; c < cores; ++c) {
      EXPECT_EQ(s.core(c).stats().cycles, 100'001u) << cores;
      EXPECT_EQ(s.core(c).stats().committed_instrs, 0u) << cores;
    }
  }
}

TEST(IdleSkip, RerunningACoreThatRanOffItsTextStepsNothing) {
  // No halt: committed control flow runs off the end of the text, and
  // the front end drains. A second run finds every core finished.
  ProgramBuilder b(0x1000);
  b.movi(1, 5).alui(AluOp::kAdd, 2, 1, 3);
  auto prog = b.build();
  prog.set_entry(0x1000);
  for (const int cores : {1, 2}) {
    sim::Simulator s(idle_skip_config("skylake", "WFC", cores), prog);
    s.map_text();
    const sim::SimResult first = s.run();
    ASSERT_EQ(first.stop, cpu::StopReason::kFaultNoHandler) << cores;
    ASSERT_EQ(s.core().reg(2), 8u) << cores;
    std::vector<Cycle> cycles;
    for (int c = 0; c < cores; ++c) {
      ASSERT_TRUE(s.core(c).finished()) << cores;
      cycles.push_back(s.core(c).stats().cycles);
    }
    EXPECT_EQ(s.run().stop, cpu::StopReason::kFaultNoHandler) << cores;
    for (int c = 0; c < cores; ++c) {
      EXPECT_EQ(s.core(c).stats().cycles, cycles[c]) << cores;
    }
  }
}

TEST(Restart, PreservesMicroarchitecturalState) {
  // restart_at() re-steers control flow but must keep caches warm — the
  // attack harness relies on this for multi-phase attacks.
  constexpr Addr kData = 0x7C0000;
  ProgramBuilder b(0x1000);
  b.movi(1, kData).load(2, 1, 0).fence().halt();
  b.label("phase2").movi(3, 7).halt();
  auto prog = b.build();
  prog.set_entry(0x1000);
  const Addr phase2 = b.label_addr("phase2");
  auto s = make_sim(std::move(prog), "WFC");
  s.map_region(kData, kPageSize);
  s.run();
  ASSERT_TRUE(s.core().hierarchy().resident_l1(line_of(kData),
                                               memory::Side::kData));
  s.core().restart_at(phase2);
  const auto r2 = s.run(100000);
  EXPECT_EQ(r2.stop, cpu::StopReason::kHalted);
  EXPECT_EQ(s.core().reg(3), 7u);
  EXPECT_TRUE(s.core().hierarchy().resident_l1(line_of(kData),
                                               memory::Side::kData));
}

}  // namespace
}  // namespace safespec
