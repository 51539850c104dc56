#include "fuzz/differential.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "experiment/experiment.h"
#include "fuzz/generator.h"
#include "memory/main_memory.h"
#include "memory/page_table.h"
#include "safespec/policy.h"
#include "sim/functional.h"
#include "sim/machine.h"
#include "sim/simulator.h"

namespace safespec::fuzz {

bool operator==(const ArchState& a, const ArchState& b) {
  return a.stop == b.stop && a.committed == b.committed &&
         a.faults == b.faults && a.regs == b.regs && a.memory == b.memory;
}

std::string first_difference(const ArchState& expected,
                             const ArchState& actual) {
  std::ostringstream oss;
  if (expected.stop != actual.stop) {
    oss << "stop reason " << cpu::to_string(expected.stop) << " vs "
        << cpu::to_string(actual.stop);
    return oss.str();
  }
  if (expected.committed != actual.committed) {
    oss << "committed instructions " << expected.committed << " vs "
        << actual.committed;
    return oss.str();
  }
  if (expected.faults != actual.faults) {
    oss << "fault count " << expected.faults << " vs " << actual.faults;
    return oss.str();
  }
  for (int r = 0; r < kNumArchRegs; ++r) {
    if (expected.regs[static_cast<std::size_t>(r)] !=
        actual.regs[static_cast<std::size_t>(r)]) {
      oss << "r" << r << " = 0x" << std::hex
          << expected.regs[static_cast<std::size_t>(r)] << " vs 0x"
          << actual.regs[static_cast<std::size_t>(r)];
      return oss.str();
    }
  }
  const std::size_t common =
      std::min(expected.memory.size(), actual.memory.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (expected.memory[i] != actual.memory[i]) {
      oss << "memory word @0x" << std::hex << expected.memory[i].first
          << " = 0x" << expected.memory[i].second << " vs @0x"
          << actual.memory[i].first << " = 0x" << actual.memory[i].second;
      return oss.str();
    }
  }
  if (expected.memory.size() != actual.memory.size()) {
    oss << "memory image has " << expected.memory.size() << " vs "
        << actual.memory.size() << " nonzero words";
    return oss.str();
  }
  return "";
}

namespace {

ArchState oracle_state(const FuzzProgram& fp) {
  memory::MainMemory mem;
  memory::PageTable pt;
  apply_address_space(fp, mem, pt);

  // The reference state comes straight from the promoted functional
  // engine (the optimized form of the old in-order oracle).
  sim::FunctionalEngine oracle(&fp.program, &mem, &pt);
  ArchState state;
  state.stop = oracle.run(fp.max_instrs_hint);
  state.committed = oracle.committed();
  state.faults = oracle.faults();
  for (int r = 0; r < kNumArchRegs; ++r) {
    state.regs[static_cast<std::size_t>(r)] =
        oracle.reg(static_cast<RegIndex>(r));
  }
  state.memory = mem.nonzero_words();
  return state;
}

/// Stop reason for core `c`. The SimResult carries the primary's; a
/// secondary reports its own (accurate for halted cores), maps a clean
/// front-end drain to kFaultNoHandler as Simulator::run does for core 0,
/// and otherwise inherits the run-level budget stop.
cpu::StopReason core_stop(const sim::Simulator& sim,
                          const sim::SimResult& res, int c) {
  if (c == 0) return res.stop;
  const cpu::Core& core = sim.core(c);
  if (core.halted()) return core.stop_reason();
  if (core.finished()) return cpu::StopReason::kFaultNoHandler;
  return res.stop;
}

ArchState core_state(const sim::Simulator& sim, const sim::SimResult& res,
                     int c) {
  ArchState state;
  state.stop = core_stop(sim, res, c);
  state.committed = sim.core(c).stats().committed_instrs;
  state.faults = sim.core(c).stats().faults;
  for (int r = 0; r < kNumArchRegs; ++r) {
    state.regs[static_cast<std::size_t>(r)] =
        sim.core(c).reg(static_cast<RegIndex>(r));
  }
  state.memory = sim.memory(c).nonzero_words();
  return state;
}

bool converged(cpu::StopReason stop) {
  return stop == cpu::StopReason::kHalted ||
         stop == cpu::StopReason::kFaultNoHandler;
}

}  // namespace

SeedVerdict check_seed(std::uint64_t seed, const FuzzSpec& spec,
                       const DifferentialConfig& config) {
  SeedVerdict verdict;
  verdict.seed = seed;
  const auto fail = [&verdict](const std::string& what) {
    verdict.ok = false;
    verdict.violations.push_back(what);
  };

  const FuzzProgram fp = generate_program(seed, spec);
  const ArchState oracle = oracle_state(fp);
  verdict.committed = oracle.committed;
  if (!converged(oracle.stop)) {
    // The generator guarantees termination; tripping this means the
    // generator (not a core) is broken.
    fail(std::string("oracle did not halt: ") + cpu::to_string(oracle.stop));
    return verdict;
  }

  const std::vector<std::string> policies =
      config.policies.empty() ? policy::registered_policy_names()
                              : config.policies;
  const std::vector<std::string> presets =
      config.presets.empty() ? sim::machine_preset_names() : config.presets;

  struct CellState {
    std::string name;
    ArchState state;
  };
  std::vector<CellState> cells;
  cells.reserve(policies.size() * presets.size());

  for (const auto& preset : presets) {
    // The preset's machine with the seed's address space, built once and
    // copied for each policy.
    sim::MachineBuilder preset_builder =
        sim::MachineBuilder::from_preset(preset);
    preset_builder.configure([&config](cpu::CoreConfig& c) {
      c.mutation = config.mutation;
      c.cores = config.cores;
    });
    for (const auto& region : fp.regions) {
      preset_builder.map_region(region.base, region.bytes, region.perm);
    }
    for (const auto& poke : fp.pokes) {
      preset_builder.poke(poke.addr, poke.value);
    }

    for (const auto& policy : policies) {
      const std::string name = policy + "/" + preset;
      sim::MachineBuilder builder = preset_builder;
      builder.policy(policy);

      const auto sim = builder.build(fp.program);
      const auto result =
          sim->run(config.max_cycles, 4 * fp.max_instrs_hint);

      // Every core ran the same program on private memory, so each one
      // must independently reproduce the oracle state — regardless of
      // the interleaving and shared-level contention between them.
      for (int c = 0; c < sim->num_cores(); ++c) {
        const std::string where =
            sim->num_cores() == 1 ? name
                                  : name + "[core " + std::to_string(c) + "]";
        ArchState state = core_state(*sim, result, c);
        if (!converged(state.stop)) {
          fail(where + ": did not converge: " + cpu::to_string(state.stop));
        }
        if (const std::string diff = first_difference(oracle, state);
            !diff.empty()) {
          fail(where + ": committed state diverges from oracle: " + diff);
        }
        const cpu::Core& core = sim->core(c);
        if (!core.shadow_dcache().empty() || !core.shadow_icache().empty() ||
            !core.shadow_dtlb().empty() || !core.shadow_itlb().empty()) {
          std::ostringstream oss;
          oss << where << ": shadow structures not empty after drain"
              << " (dcache=" << core.shadow_dcache().live_count()
              << " icache=" << core.shadow_icache().live_count()
              << " dtlb=" << core.shadow_dtlb().live_count()
              << " itlb=" << core.shadow_itlb().live_count() << ")";
          fail(oss.str());
        }
        if (c == 0) cells.push_back({name, std::move(state)});
      }
    }
  }
  verdict.cells = cells.size();

  // Policy invariance: every cell against the first.
  for (std::size_t i = 1; i < cells.size(); ++i) {
    if (const std::string diff =
            first_difference(cells[0].state, cells[i].state);
        !diff.empty()) {
      fail(cells[i].name + " vs " + cells[0].name +
           ": committed state differs across cells: " + diff);
    }
  }
  return verdict;
}

FuzzReport run_fuzz(std::uint64_t first_seed, int count,
                    const FuzzSpec& spec, const DifferentialConfig& config,
                    int threads) {
  FuzzReport report;
  report.first_seed = first_seed;
  report.count = count;
  if (count <= 0) return report;

  std::vector<SeedVerdict> verdicts(static_cast<std::size_t>(count));
  const experiment::ParallelRunner runner(threads);
  runner.parallel_for(static_cast<std::size_t>(count), [&](std::size_t i) {
    verdicts[i] =
        check_seed(first_seed + static_cast<std::uint64_t>(i), spec, config);
  });

  for (auto& verdict : verdicts) {
    report.total_cells += verdict.cells;
    report.total_committed += verdict.committed;
    if (!verdict.ok) report.failures.push_back(std::move(verdict));
  }
  return report;
}

}  // namespace safespec::fuzz
