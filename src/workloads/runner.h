// Builds the simulator for a workload profile on a configured core — the
// build half of experiment::run_cell, which runs every performance figure
// (Figs 6-9, 11-16).
#pragma once

#include <cstdint>
#include <memory>

#include "cpu/core.h"
#include "sim/simulator.h"
#include "workloads/workload.h"

namespace safespec::workloads {

/// The cycle budget for a run of `instrs` committed instructions:
/// generous, as the worst (pointer-chasing) profiles run well under 10
/// cycles per instruction.
constexpr std::uint64_t cycle_budget(std::uint64_t instrs) {
  return instrs * 40 + 1'000'000;
}

/// Builds the simulator for `profile` (program generated for
/// `target_instrs` committed instructions, address space mapped, chase
/// links initialised).
std::unique_ptr<sim::Simulator> make_workload_sim(
    const WorkloadProfile& profile, const cpu::CoreConfig& config,
    std::uint64_t target_instrs);

/// Builds the simulator for an already-materialised image (the
/// generate() half of make_workload_sim factored out): maps the data
/// region and every extra region, applies the init words. Used directly
/// by trace round-trip verification, where the image comes from a trace
/// file rather than the generator.
std::unique_ptr<sim::Simulator> make_image_sim(WorkloadImage image,
                                               const cpu::CoreConfig& config);

}  // namespace safespec::workloads
