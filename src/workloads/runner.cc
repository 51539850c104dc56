#include "workloads/runner.h"

#include "sim/machine.h"

namespace safespec::workloads {

std::unique_ptr<sim::Simulator> make_workload_sim(
    const WorkloadProfile& profile, const cpu::CoreConfig& config,
    std::uint64_t target_instrs) {
  return make_image_sim(generate(profile, target_instrs), config);
}

std::unique_ptr<sim::Simulator> make_image_sim(
    WorkloadImage image, const cpu::CoreConfig& config) {
  sim::MachineSpec spec;
  spec.core = config;
  // Sweep axes legitimately undersize the shadows (sizing studies, TSA
  // grids); the strict §V bound is enforced on user-authored specs by
  // resolve_machine / from_json, not on this internal path.
  spec.allow_undersized_shadows = true;
  sim::MachineBuilder builder{std::move(spec)};
  // Trace-loaded images carry their address space in `regions` and have
  // no data_base region (validate() rejects zero-byte regions).
  if (image.data_bytes != 0) {
    builder.map_region(image.data_base, image.data_bytes);
  }
  for (const WorkloadRegion& region : image.regions) {
    builder.map_region(region.base, region.bytes,
                       region.kernel ? memory::PagePerm::kKernel
                                     : memory::PagePerm::kUser);
  }
  // The image's words go straight into the built machine's memory, as
  // build() would apply them last, rather than through a second copy in
  // the builder's spec (megabytes for the larger profiles).
  auto sim = builder.build(std::move(image.program));
  for (const auto& [addr, value] : image.init_words) sim->poke(addr, value);
  return sim;
}

}  // namespace safespec::workloads
