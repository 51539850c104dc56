// Tables I & II: echoes the simulated CPU and memory-system
// configuration exactly as the evaluation uses it.
#include <cstdio>

#include "experiment/experiment.h"

namespace {

using namespace safespec;

using ull = unsigned long long;

/// Prints the simulated configuration the way the paper tabulates it.
void print_config(const cpu::CoreConfig& c) {
  std::printf("CPU (Table I)\n  Issue               %d-way issue\n"
              "  IQ                  %d-entry Issue Queue\n"
              "  Commit              up to %d micro-ops/cycle\n"
              "  ROB                 %d-entry Reorder Buffer\n",
              c.issue_width, c.iq_entries, c.commit_width, c.rob_entries);
  std::printf("  iTLB                %d-entry\n  dTLB                %d-entry\n"
              "  LDQ                 %d-entry\n  STQ                 %d-entry\n"
              "Memory system (Table II)\n",
              c.itlb.entries, c.dtlb.entries, c.ldq_entries, c.stq_entries);
  const auto cache_row = [](const char* label, const memory::CacheConfig& k,
                            std::uint64_t unit, const char* unit_name) {
    std::printf("  %-20s%llu %s, %d-way, %dB line, %llu cycle hit\n", label,
                static_cast<ull>(k.size_bytes / unit), unit_name, k.ways,
                k.line_bytes, static_cast<ull>(k.hit_latency));
  };
  cache_row("L1I-Cache", c.hierarchy.l1i, 1024, "KB");
  cache_row("L1D-Cache", c.hierarchy.l1d, 1024, "KB");
  cache_row("L2 Shared Cache", c.hierarchy.l2, 1024, "KB");
  cache_row("L3 Shared Cache", c.hierarchy.l3, 1024 * 1024, "MB");
  std::printf("  Memory              %llu cycles\nSafeSpec\n"
              "  Policy              %s\n",
              static_cast<ull>(c.hierarchy.memory_latency), c.policy.c_str());
  const auto shadow_row = [](const char* label,
                             const shadow::ShadowConfig& k) {
    std::printf("  %-20s%d entries (%s)\n", label, k.entries,
                shadow::to_string(k.full_policy));
  };
  shadow_row("shadow d-cache", c.shadow_dcache);
  shadow_row("shadow i-cache", c.shadow_icache);
  shadow_row("shadow dTLB", c.shadow_dtlb);
  shadow_row("shadow iTLB", c.shadow_itlb);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = experiment::parse_bench_args(argc, argv);

  std::printf("=== Tables I & II: simulated CPU configuration ===\n\n");
  const auto variant =
      experiment::named_variant(experiment::resolve_machine(opts), "WFC");
  const auto& c = variant.config;
  print_config(c);
  std::printf("\n");

  if (!opts.csv_path.empty() || !opts.json_path.empty()) {
    experiment::ResultTable table("Tables I & II: simulated configuration",
                                  {"value"});
    const struct {
      const char* name;
      double value;
    } params[] = {
        {"issue_width", static_cast<double>(c.issue_width)},
        {"iq_entries", static_cast<double>(c.iq_entries)},
        {"rob_entries", static_cast<double>(c.rob_entries)},
        {"ldq_entries", static_cast<double>(c.ldq_entries)},
        {"stq_entries", static_cast<double>(c.stq_entries)},
        {"itlb_entries", static_cast<double>(c.itlb.entries)},
        {"dtlb_entries", static_cast<double>(c.dtlb.entries)},
        {"l1i_kb", c.hierarchy.l1i.size_bytes / 1024.0},
        {"l1d_kb", c.hierarchy.l1d.size_bytes / 1024.0},
        {"l2_kb", c.hierarchy.l2.size_bytes / 1024.0},
        {"l3_kb", c.hierarchy.l3.size_bytes / 1024.0},
        {"memory_latency", static_cast<double>(c.hierarchy.memory_latency)},
        {"shadow_dcache", static_cast<double>(c.shadow_dcache.entries)},
        {"shadow_icache", static_cast<double>(c.shadow_icache.entries)},
        {"shadow_dtlb", static_cast<double>(c.shadow_dtlb.entries)},
        {"shadow_itlb", static_cast<double>(c.shadow_itlb.entries)},
    };
    for (const auto& p : params) table.add_row(p.name, {p.value}, "%12.0f");
    experiment::write_files({&table}, opts);
  }
  return 0;
}
