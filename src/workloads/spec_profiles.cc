// The 21 SPEC CPU2017 stand-in profiles, in the paper's plotting order.
//
// Parameters encode each benchmark's published behaviour class (working
// set, access pattern, branchiness, code footprint, compute density) —
// e.g. mcf is the canonical pointer-chasing cache-hostile benchmark,
// exchange2 is tiny-footprint and branch-heavy-but-predictable, lbm is a
// pure streaming stencil, gcc/xalancbmk have the largest code footprints.
// Absolute numbers are scaled to the simulated 2 MB L3 so that the same
// qualitative ordering (who misses, who doesn't) emerges.
#include <stdexcept>

#include "workloads/workload.h"

namespace safespec::workloads {

namespace {

WorkloadProfile base(const std::string& name, std::uint64_t seed) {
  WorkloadProfile p;
  p.name = name;
  p.seed = seed;
  return p;
}

}  // namespace

std::vector<WorkloadProfile> spec2017_profiles() {
  std::vector<WorkloadProfile> v;

  {  // perlbench: interpreter — medium code, branchy, small-ish data.
    auto p = base("perlbench", 101);
    p.data_footprint = 1 << 21;
    p.load_frac = 0.28;
    p.store_frac = 0.12;
    p.stream_frac = 0.2;
    p.branch_frac = 0.20;
    p.branch_random_bits = 3;
    p.code_blocks = 144;
    p.hot_frac = 0.92;
    p.hot_bytes = 24 * 1024;
    v.push_back(p);
  }
  {  // mcf: pointer-chasing over a huge graph — cache-hostile.
    auto p = base("mcf", 102);
    p.data_footprint = 1 << 22;
    p.chase_footprint = 1 << 20;
    p.load_frac = 0.35;
    p.chase_frac = 0.30;
    p.stream_frac = 0.05;
    p.store_frac = 0.08;
    p.branch_frac = 0.18;
    p.branch_random_bits = 3;
    p.code_blocks = 24;
    p.hot_frac = 0.75;
    p.hot_bytes = 16 * 1024;
    v.push_back(p);
  }
  {  // omnetpp: discrete-event simulation — pointer-heavy, large heap.
    auto p = base("omnetpp", 103);
    p.data_footprint = 1 << 22;
    p.chase_footprint = 1 << 20;
    p.load_frac = 0.30;
    p.chase_frac = 0.25;
    p.stream_frac = 0.10;
    p.store_frac = 0.12;
    p.branch_frac = 0.17;
    p.branch_random_bits = 3;
    p.code_blocks = 96;
    p.hot_frac = 0.8;
    p.hot_bytes = 16 * 1024;
    v.push_back(p);
  }
  {  // xalancbmk: XSLT — biggest code footprints, data moderate.
    auto p = base("xalancbmk", 104);
    p.data_footprint = 1 << 22;
    p.load_frac = 0.30;
    p.store_frac = 0.10;
    p.stream_frac = 0.25;
    p.branch_frac = 0.20;
    p.branch_random_bits = 4;
    p.code_blocks = 288;
    p.hot_frac = 0.85;
    p.hot_bytes = 24 * 1024;
    v.push_back(p);
  }
  {  // x264: video encode — streaming + compute.
    auto p = base("x264", 105);
    p.data_footprint = 1 << 22;
    p.load_frac = 0.30;
    p.stream_frac = 0.7;
    p.store_frac = 0.12;
    p.branch_frac = 0.08;
    p.branch_random_bits = 5;
    p.mul_frac = 0.25;
    p.code_blocks = 48;
    p.hot_frac = 0.95;
    p.hot_bytes = 16 * 1024;
    v.push_back(p);
  }
  {  // deepsjeng: chess search — branchy with poorly predictable branches.
    auto p = base("deepsjeng", 106);
    p.data_footprint = 1 << 21;
    p.load_frac = 0.25;
    p.stream_frac = 0.1;
    p.store_frac = 0.10;
    p.branch_frac = 0.24;
    p.branch_random_bits = 2;  // near-random branches
    p.code_blocks = 56;
    p.hot_frac = 0.93;
    p.hot_bytes = 16 * 1024;
    v.push_back(p);
  }
  {  // exchange2: tiny recursive solver — smallest footprint, predictable.
    auto p = base("exchange2", 107);
    p.data_footprint = 1 << 16;
    p.load_frac = 0.18;
    p.stream_frac = 0.4;
    p.store_frac = 0.10;
    p.branch_frac = 0.22;
    p.branch_random_bits = 6;
    p.code_blocks = 32;
    p.hot_frac = 0.99;
    p.hot_bytes = 8 * 1024;
    v.push_back(p);
  }
  {  // xz: compression — mixed random access, medium footprint.
    auto p = base("xz", 108);
    p.data_footprint = 1 << 22;
    p.load_frac = 0.30;
    p.stream_frac = 0.3;
    p.store_frac = 0.14;
    p.branch_frac = 0.15;
    p.branch_random_bits = 3;
    p.code_blocks = 40;
    p.hot_frac = 0.8;
    p.hot_bytes = 32 * 1024;
    v.push_back(p);
  }
  {  // bwaves: FP stencil — streaming, very regular, mul-dense.
    auto p = base("bwaves", 109);
    p.data_footprint = 1 << 23;
    p.load_frac = 0.33;
    p.stream_frac = 0.9;
    p.store_frac = 0.12;
    p.branch_frac = 0.05;
    p.branch_random_bits = 7;
    p.mul_frac = 0.35;
    p.code_blocks = 24;
    p.hot_frac = 0.92;
    p.hot_bytes = 16 * 1024;
    v.push_back(p);
  }
  {  // cactuBSSN: relativity solver — large code, streaming FP.
    auto p = base("cactuBSSN", 110);
    p.data_footprint = 1 << 22;
    p.load_frac = 0.32;
    p.stream_frac = 0.8;
    p.store_frac = 0.14;
    p.branch_frac = 0.04;
    p.branch_random_bits = 7;
    p.mul_frac = 0.35;
    p.code_blocks = 192;
    p.hot_frac = 0.92;
    p.hot_bytes = 16 * 1024;
    v.push_back(p);
  }
  {  // namd: molecular dynamics — compute-dense, cache-resident.
    auto p = base("namd", 111);
    p.data_footprint = 1 << 19;
    p.load_frac = 0.28;
    p.stream_frac = 0.6;
    p.store_frac = 0.08;
    p.branch_frac = 0.05;
    p.branch_random_bits = 6;
    p.mul_frac = 0.4;
    p.code_blocks = 40;
    p.hot_frac = 0.97;
    p.hot_bytes = 12 * 1024;
    v.push_back(p);
  }
  {  // povray: ray tracing — compute, small data, some branches.
    auto p = base("povray", 112);
    p.data_footprint = 1 << 18;
    p.load_frac = 0.24;
    p.stream_frac = 0.3;
    p.store_frac = 0.08;
    p.branch_frac = 0.14;
    p.branch_random_bits = 4;
    p.mul_frac = 0.35;
    p.div_frac = 0.03;
    p.code_blocks = 64;
    p.hot_frac = 0.97;
    p.hot_bytes = 8 * 1024;
    v.push_back(p);
  }
  {  // lbm: lattice-Boltzmann — pure streaming over a huge grid.
    auto p = base("lbm", 113);
    p.data_footprint = 1 << 23;
    p.load_frac = 0.34;
    p.stream_frac = 0.95;
    p.store_frac = 0.18;
    p.branch_frac = 0.02;
    p.branch_random_bits = 8;
    p.mul_frac = 0.3;
    p.code_blocks = 16;
    p.hot_frac = 0.9;
    p.hot_bytes = 16 * 1024;
    v.push_back(p);
  }
  {  // wrf: weather — large code, mixed FP.
    auto p = base("wrf", 114);
    p.data_footprint = 1 << 22;
    p.load_frac = 0.30;
    p.stream_frac = 0.65;
    p.store_frac = 0.12;
    p.branch_frac = 0.08;
    p.branch_random_bits = 5;
    p.mul_frac = 0.3;
    p.code_blocks = 176;
    p.hot_frac = 0.9;
    p.hot_bytes = 24 * 1024;
    v.push_back(p);
  }
  {  // blender: rendering — mixed everything.
    auto p = base("blender", 115);
    p.data_footprint = 1 << 21;
    p.load_frac = 0.28;
    p.stream_frac = 0.4;
    p.store_frac = 0.10;
    p.branch_frac = 0.12;
    p.branch_random_bits = 3;
    p.mul_frac = 0.25;
    p.code_blocks = 144;
    p.hot_frac = 0.92;
    p.hot_bytes = 16 * 1024;
    v.push_back(p);
  }
  {  // cam4: atmosphere model — large code footprint FP.
    auto p = base("cam4", 116);
    p.data_footprint = 1 << 22;
    p.load_frac = 0.30;
    p.stream_frac = 0.6;
    p.store_frac = 0.12;
    p.branch_frac = 0.10;
    p.branch_random_bits = 4;
    p.mul_frac = 0.3;
    p.code_blocks = 224;
    p.hot_frac = 0.88;
    p.hot_bytes = 24 * 1024;
    v.push_back(p);
  }
  {  // pop2: ocean model — large code, streaming.
    auto p = base("pop2", 117);
    p.data_footprint = 1 << 22;
    p.load_frac = 0.30;
    p.stream_frac = 0.7;
    p.store_frac = 0.12;
    p.branch_frac = 0.08;
    p.branch_random_bits = 5;
    p.mul_frac = 0.3;
    p.code_blocks = 256;
    p.hot_frac = 0.9;
    p.hot_bytes = 24 * 1024;
    v.push_back(p);
  }
  {  // imagick: image ops — streaming compute, tight kernels.
    auto p = base("imagick", 118);
    p.data_footprint = 1 << 21;
    p.load_frac = 0.30;
    p.stream_frac = 0.85;
    p.store_frac = 0.14;
    p.branch_frac = 0.04;
    p.branch_random_bits = 7;
    p.mul_frac = 0.4;
    p.code_blocks = 20;
    p.hot_frac = 0.96;
    p.hot_bytes = 12 * 1024;
    v.push_back(p);
  }
  {  // nab: molecular modelling — compute, small data.
    auto p = base("nab", 119);
    p.data_footprint = 1 << 19;
    p.load_frac = 0.26;
    p.stream_frac = 0.5;
    p.store_frac = 0.08;
    p.branch_frac = 0.06;
    p.branch_random_bits = 6;
    p.mul_frac = 0.35;
    p.code_blocks = 32;
    p.hot_frac = 0.97;
    p.hot_bytes = 8 * 1024;
    v.push_back(p);
  }
  {  // fotonik3d: FDTD — streaming large grid.
    auto p = base("fotonik3d", 120);
    p.data_footprint = 1 << 23;
    p.load_frac = 0.33;
    p.stream_frac = 0.9;
    p.store_frac = 0.14;
    p.branch_frac = 0.03;
    p.branch_random_bits = 8;
    p.mul_frac = 0.3;
    p.code_blocks = 20;
    p.hot_frac = 0.92;
    p.hot_bytes = 16 * 1024;
    v.push_back(p);
  }
  {  // roms: ocean model — streaming FP.
    auto p = base("roms", 121);
    p.data_footprint = 1 << 23;
    p.load_frac = 0.32;
    p.stream_frac = 0.85;
    p.store_frac = 0.12;
    p.branch_frac = 0.05;
    p.branch_random_bits = 6;
    p.mul_frac = 0.3;
    p.code_blocks = 48;
    p.hot_frac = 0.92;
    p.hot_bytes = 16 * 1024;
    v.push_back(p);
  }
  {  // gcc: compiler — the branchiest large-code benchmark.
    auto p = base("gcc", 122);
    p.data_footprint = 1 << 22;
    p.chase_footprint = 1 << 19;
    p.load_frac = 0.30;
    p.chase_frac = 0.10;
    p.stream_frac = 0.15;
    p.store_frac = 0.12;
    p.branch_frac = 0.22;
    p.branch_random_bits = 3;
    p.code_blocks = 320;
    p.hot_frac = 0.85;
    p.hot_bytes = 16 * 1024;
    v.push_back(p);
  }
  return v;
}

std::vector<std::string> spec2017_profile_names() {
  std::vector<std::string> names;
  for (const auto& p : spec2017_profiles()) names.push_back(p.name);
  return names;
}

WorkloadProfile profile_by_name(const std::string& name) {
  // "trace:@NAME" — profile NAME round-tripped through the trace codec
  // in memory; "trace:PATH" — replay the trace file at PATH.
  if (name.rfind("trace:", 0) == 0) {
    const std::string arg = name.substr(6);
    if (arg.empty()) {
      throw std::out_of_range(
          "empty trace workload spec (want trace:PATH or trace:@PROFILE): " +
          name);
    }
    if (arg[0] == '@') {
      WorkloadProfile p;
      try {
        p = profile_by_name(arg.substr(1));
      } catch (const std::out_of_range& e) {
        throw std::out_of_range(
            std::string(e.what()) +
            " (in trace:@NAME, NAME must be a registered synthetic "
            "profile; use trace:PATH to replay a trace file)");
      }
      p.name = name;
      // Not `= "@"`: GCC 12 reports a false -Wrestrict overlap on that
      // assignment in sanitizer builds with _GLIBCXX_ASSERTIONS.
      p.trace_file.assign(1, '@');
      return p;
    }
    WorkloadProfile p;
    p.name = name;
    p.trace_file = arg;
    return p;
  }
  for (const auto& p : spec2017_profiles()) {
    if (p.name == name) return p;
  }
  throw std::out_of_range("unknown workload profile: " + name);
}

}  // namespace safespec::workloads
