// Declarative machine descriptions (the construction API).
//
// A MachineSpec is everything needed to stand up one simulated machine:
// the resolved micro-architecture (cpu::CoreConfig, including shadow
// sizing and the protection policy *name*), the address-space layout
// (memory map regions), and pre-run pokes. Specs serialize to/from JSON,
// so a sweep point is data — shippable in a config file, overridable
// with --set key=value — instead of a hand-written construction site.
//
// Every scalar field is listed once, in the field table in machine.cc,
// which drives the JSON reader, the JSON writer, the --set parser and the
// single-field range checks. A field has two spellings: its dotted JSON
// path ("caches.l1d.ways", "shadows.dcache.entries") and its --set key
// ("l1d.ways", "shadow_dcache.entries"). Unknown or mistyped keys are
// rejected under their full path, and the tools exit 2 on them.
//
// Three pieces:
//   * the preset registry: named starting points ("skylake" — Tables
//     I/II; "embedded" — a 2-wide in-order-ish little core), the one way
//     to describe a machine;
//   * MachineSpec::validate(): rejects nonsense (zero widths,
//     overlapping regions, unknown policy names) and — §V's security
//     argument — shadow sizing below the secure bound (d-side ≥ LDQ,
//     i-side ≥ ROB) unless allow_undersized_shadows is set explicitly;
//   * MachineBuilder: a fluent layer that yields a ready-to-run
//     Simulator (text + regions mapped, pokes applied).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cpu/core.h"
#include "isa/program.h"
#include "memory/main_memory.h"
#include "sim/simulator.h"

namespace safespec::sim {

/// One mapped address-space region.
struct MemRegion {
  Addr base = 0;
  std::uint64_t bytes = 0;
  memory::PagePerm perm = memory::PagePerm::kUser;
};

/// One pre-run architectural memory write.
struct Poke {
  Addr addr = 0;
  std::uint64_t value = 0;
};

/// Declarative description of one simulated machine.
struct MachineSpec {
  std::string preset = "skylake";  ///< preset this spec derives from
  cpu::CoreConfig core;            ///< resolved micro-architecture
  /// §V: d-side shadows below the LDQ bound / i-side below the ROB bound
  /// open the TSA channel; validate() rejects such sizing unless this is
  /// set explicitly (sizing studies and attack PoCs set it).
  bool allow_undersized_shadows = false;
  bool map_text = true;  ///< map the program's code pages at build time
  /// Trace workload axis: empty runs the synthetic generator; "@"
  /// round-trips each cell's synthetic image through the trace codec in
  /// memory; any other value is a trace file path. The experiment
  /// engine copies this onto every cell's WorkloadProfile::trace_file
  /// (see src/trace/). Set grammar: --set trace=PATH.
  std::string trace;
  /// Sampled-simulation schedule (disabled by default). The experiment
  /// engine copies it onto every cell, which then runs through
  /// Simulator::run_sampled. See sim::SamplingSpec.
  SamplingSpec sampling;
  std::vector<MemRegion> regions;
  std::vector<Poke> pokes;

  /// Throws std::invalid_argument on the first problem found: a field
  /// outside its range (zero widths/queue sizes, predictor geometry the
  /// predictor cannot be built with), degenerate cache, TLB or BTB
  /// geometry, overlapping or wrapping memory-map regions, or shadow
  /// sizing below the secure bound without allow_undersized_shadows. An
  /// unknown policy name throws std::out_of_range listing the registered
  /// policies (the registries' lookup error).
  void validate() const;

  /// Pretty-printed JSON document (stable key order — round-trips).
  std::string to_json() const;
  /// Starts from the document's "preset" (default skylake) and applies
  /// the fields it lists. Throws std::invalid_argument naming the full
  /// dotted path ("core.rob_entires", "memory_map[1].kernal") on an
  /// unknown key or a mistyped value.
  static MachineSpec from_json(const std::string& text);
  static MachineSpec from_json_file(const std::string& path);

  /// Applies one "key=value" override (the --set grammar). Dotted keys
  /// address nested fields: policy=WFB-stall, cores=2, rob_entries=64,
  /// l2.size_bytes=524288, shadow_dcache.entries=16,
  /// shadow_dcache.full_policy=stall, predictor.direction=perceptron,
  /// preset=embedded (re-seeds the core from that preset; apply first).
  /// Throws std::invalid_argument on unknown keys or malformed values;
  /// unknown policy=/preset= names throw std::out_of_range listing the
  /// registered names.
  void set(const std::string& key_equals_value);
  void set(const std::string& key, const std::string& value);
};

// ---- preset registry --------------------------------------------------------

/// Looks up a registered preset. Throws std::out_of_range with a message
/// listing every registered name when `name` is unknown.
MachineSpec machine_preset(const std::string& name);
std::vector<std::string> machine_preset_names();
bool is_registered_machine_preset(const std::string& name);
/// Registers a preset factory; throws std::invalid_argument if taken.
void register_machine_preset(const std::string& name,
                             std::function<MachineSpec()> factory);

// ---- builder ----------------------------------------------------------------

/// Fluent construction: preset (or explicit spec) -> tweaks -> a
/// validated, ready-to-run Simulator.
///
///   auto sim = MachineBuilder::from_preset("skylake")
///                  .policy("WFC")
///                  .map_region(kData, kPageSize)
///                  .poke(kData, 42)
///                  .build(std::move(program));
class MachineBuilder {
 public:
  MachineBuilder();  ///< starts from the "skylake" preset
  explicit MachineBuilder(MachineSpec spec);
  static MachineBuilder from_preset(const std::string& name);

  /// Selects the protection policy by registry name.
  MachineBuilder& policy(const std::string& name);
  /// Number of cores sharing the L2/L3 (see cpu::CoreConfig::cores).
  MachineBuilder& cores(int n);
  /// Sizes all four shadow structures (d-side pair, i-side pair).
  MachineBuilder& shadow_entries(int dside, int iside);
  /// Full-table handling for all four shadow structures.
  MachineBuilder& shadow_full_policy(shadow::FullPolicy full_policy);
  MachineBuilder& allow_undersized_shadows(bool allow = true);
  MachineBuilder& map_region(Addr base, std::uint64_t bytes,
                             memory::PagePerm perm = memory::PagePerm::kUser);
  MachineBuilder& poke(Addr addr, std::uint64_t value);
  /// Applies one "key=value" override (MachineSpec::set grammar).
  MachineBuilder& set(const std::string& key_equals_value);
  /// Escape hatch for fields without a dedicated fluent method.
  MachineBuilder& configure(const std::function<void(cpu::CoreConfig&)>& fn);

  const MachineSpec& spec() const { return spec_; }

  /// Validates the spec and yields a ready-to-run simulator: program
  /// text mapped (unless map_text=false), regions mapped, pokes applied.
  /// Propagates MachineSpec::validate()'s exceptions
  /// (std::invalid_argument, or std::out_of_range for unknown names).
  std::unique_ptr<Simulator> build(isa::Program program) const;

 private:
  MachineSpec spec_;
};

}  // namespace safespec::sim
