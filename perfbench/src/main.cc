// perfbench — the repository benchmark.
//
//   perfbench --workload detailed|sampled|fuzz --seed N --seconds S
//             --trace 0|1 [--source-stamp TEXT] [--out-dir DIR]
//
// Drives the simulator from outside, through its public entry points
// only, and prints one line of JSON as the last line of stdout:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (span self times, derived host costs and exact work counts).
//
// Load shape: closed loop, one client, one thread, operations back to
// back. An operation is one cell run (detailed, sampled) or one fully
// checked fuzz seed. A run repeats the workload's whole operation set in
// passes until --seconds have elapsed; every repetition starts from a
// cold machine (a fresh simulator, so modelled caches start empty). Host
// time per operation is the fastest of its untraced repetitions; see
// "Host noise" in perfbench/README.md.
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.h"
#include "cpu/core.h"
#include "fuzz/differential.h"
#include "fuzz/fuzz_spec.h"
#include "fuzz/generator.h"
#include "isa/program.h"
#include "memory/main_memory.h"
#include "memory/page_table.h"
#include "safespec/policy.h"
#include "sim/functional.h"
#include "sim/machine.h"
#include "sim/simulator.h"
#include "spans.h"
#include "workloads/runner.h"
#include "workloads/workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace safespec;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- workload definitions ------------------------------------------------

/// Committed-instruction budget of one detailed cell (per core). Short
/// cells (8-40 ms) fit the host's quiet windows; see "Host noise" in
/// perfbench/README.md.
constexpr std::uint64_t kDetailedInstrs = 25'000;
/// Architectural-instruction budget of one sampled cell, and its
/// schedule: a 2M-instruction functional gap before each of ~9 windows of
/// 2K warm-up + 10K measured detailed instructions, so the functional
/// engine does most of the host work.
constexpr std::uint64_t kSampledInstrs = 20'000'000;
constexpr std::uint64_t kSampledGap = kSampledInstrs / 10;
/// Consecutive fuzz seeds per pass.
constexpr std::uint64_t kFuzzSeeds = 100;
/// Largest accepted --seed: leaves room for the fuzz batch.
constexpr std::uint64_t kMaxSeed = (1ULL << 62);

struct Cell {
  const char* workload;
  const char* policy;
  const char* preset;
  int cores;
};

std::string cell_name(const Cell& c, const char* policy) {
  std::string name = std::string(c.workload) + "-" + policy;
  if (std::strcmp(c.preset, "skylake") != 0) {
    name += std::string("-") + c.preset;
  }
  if (c.cores > 1) name += "-c" + std::to_string(c.cores);
  return name;
}
std::string cell_name(const Cell& c) { return cell_name(c, c.policy); }

/// perf_driver's default detailed grid without its trace:@ duplicates,
/// plus a baseline twin for every protected cell that lacked one. A
/// protected cell and its twin simulate the same machine, so their host
/// ns per simulated cycle isolate what the policy costs the simulator.
const std::vector<Cell>& detailed_cells() {
  static const std::vector<Cell> cells = {
      {"mcf", "baseline", "skylake", 1},
      {"mcf", "WFC", "skylake", 1},
      {"mcf", "SHARP", "skylake", 1},
      {"gcc", "baseline", "skylake", 1},
      {"gcc", "WFC", "skylake", 1},
      {"lbm", "baseline", "skylake", 1},
      {"lbm", "WFB", "skylake", 1},
      {"exchange2", "baseline", "skylake", 1},
      {"exchange2", "WFC", "skylake", 1},
      {"xalancbmk", "baseline", "skylake", 1},
      {"xalancbmk", "WFB-stall", "skylake", 1},
      {"mcf", "baseline", "embedded", 1},
      {"mcf", "WFC", "embedded", 1},
      {"mcf", "baseline", "skylake", 2},
      {"gcc", "baseline", "skylake", 2},
      {"gcc", "WFC", "skylake", 2},
      {"gcc", "SHARP", "skylake", 2},
  };
  return cells;
}

const std::vector<Cell>& sampled_cells() {
  static const std::vector<Cell> cells = {
      {"mcf", "baseline", "skylake", 1},
      {"gcc", "WFC", "skylake", 1},
      {"lbm", "baseline", "skylake", 1},
  };
  return cells;
}

// ---- metric names --------------------------------------------------------

struct MetricDef {
  std::string name;
  const char* unit;
};

/// Span names, in the order the self-time table prints them. The root
/// span of every pass is "perfbench.pass"; its self time is the
/// benchmark's own glue (digests, teardown).
const std::vector<const char*>& span_names() {
  static const std::vector<const char*> names = {
      "perfbench.pass",         "workloads.make_workload_sim",
      "sim.run",                "sim.run_sampled",
      "sim.functional_run",     "sim.machine_build",
      "fuzz.check_seed",        "fuzz.generate_program",
      "fuzz.check",
  };
  return names;
}

const std::vector<std::pair<const char*, const char*>>& count_names() {
  static const std::vector<std::pair<const char*, const char*>> names = {
      {"cpu.cycles", "count"},
      {"cpu.committed", "count"},
      {"cpu.fetched", "count"},
      {"cpu.squashed", "count"},
      {"cpu.useful_fetch_ratio", "ratio"},
      {"cpu.dib_hit_ratio", "ratio"},
      {"predictor.mispredicts", "count"},
      {"memory.l1d_misses", "count"},
      {"memory.fetch_misses", "count"},
      {"memory.cross_core_evictions", "count"},
      {"safespec.shadow_dcache_hits", "count"},
      {"safespec.shadow_stall_cycles", "count"},
      {"safespec.sharp_alarms", "count"},
      {"sim.sampled.windows", "count"},
      {"sim.sampled.ff_instrs", "count"},
      {"fuzz.cells", "count"},
      {"fuzz.oracle_instrs", "count"},
  };
  return names;
}

// ---- digests -------------------------------------------------------------

struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  Digest& add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
    return *this;
  }
  Digest& add_double(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    return add(bits);
  }
};

/// Every simulated statistic the run exposes: the SimResult plus each
/// core's CoreStats and L1D/shadow counters. A speed-only change must
/// leave this bit-identical.
std::uint64_t sim_digest(const sim::Simulator& s, const sim::SimResult& r) {
  Digest d;
  d.add(static_cast<std::uint64_t>(r.stop)).add(r.cycles);
  d.add(r.committed_instrs).add(r.committed_all_cores);
  d.add(r.cross_core_evictions).add(r.sharp_alarms).add(r.sharp_detections);
  d.add(r.dcache_accesses).add(r.dcache_misses).add(r.shadow_dcache_hits);
  d.add(r.icache_accesses).add(r.icache_misses).add(r.shadow_icache_hits);
  d.add_double(r.shadow_dcache_commit_rate);
  d.add_double(r.shadow_icache_commit_rate);
  d.add(r.shadow_dcache_p9999).add(r.shadow_icache_p9999);
  d.add(r.shadow_dtlb_p9999).add(r.shadow_itlb_p9999);
  d.add(r.mispredicts).add(r.squashed_instrs).add(r.faults);
  d.add(r.sampling.windows).add(r.sampling.fast_forwarded);
  d.add(r.sampling.warmup_commits).add(r.sampling.measured_commits);
  d.add(r.sampling.measured_cycles).add_double(r.sampling.ipc_mean);
  d.add_double(r.sampling.ipc_ci95);
  for (int c = 0; c < s.num_cores(); ++c) {
    const cpu::Core& core = s.core(c);
    const cpu::CoreStats& st = core.stats();
    for (std::uint64_t v :
         {st.cycles, st.committed_instrs, st.committed_loads,
          st.committed_stores, st.committed_branches, st.fetched_instrs,
          st.squashed_instrs, st.squashes, st.mispredicts, st.faults,
          st.shadow_stall_cycles, st.fetch_accesses, st.fetch_l1i_hits,
          st.fetch_shadow_hits, st.fetch_misses, st.dib_hits, st.dib_fills}) {
      d.add(v);
    }
    d.add(core.hierarchy().l1d().stats().misses.value());
    d.add(core.shadow_dcache().stats().hits.value());
    for (int r2 = 0; r2 < kNumArchRegs; ++r2) {
      d.add(core.reg(static_cast<RegIndex>(r2)));
    }
  }
  return d.h;
}

/// Adds one machine's work counts, summed over its cores.
void add_counts(std::map<std::string, double>& counts,
                const sim::Simulator& s, const sim::SimResult& r) {
  for (int c = 0; c < s.num_cores(); ++c) {
    const cpu::Core& core = s.core(c);
    const cpu::CoreStats& st = core.stats();
    counts["cpu.cycles"] += static_cast<double>(st.cycles);
    counts["cpu.committed"] += static_cast<double>(st.committed_instrs);
    counts["cpu.fetched"] += static_cast<double>(st.fetched_instrs);
    counts["cpu.squashed"] += static_cast<double>(st.squashed_instrs);
    counts["cpu.dib_hits"] += static_cast<double>(st.dib_hits);
    counts["cpu.dib_lookups"] +=
        static_cast<double>(st.dib_hits + st.dib_fills);
    counts["predictor.mispredicts"] += static_cast<double>(st.mispredicts);
    counts["memory.l1d_misses"] +=
        static_cast<double>(core.hierarchy().l1d().stats().misses.value());
    counts["memory.fetch_misses"] += static_cast<double>(st.fetch_misses);
    counts["safespec.shadow_dcache_hits"] +=
        static_cast<double>(core.shadow_dcache().stats().hits.value());
    counts["safespec.shadow_stall_cycles"] +=
        static_cast<double>(st.shadow_stall_cycles);
  }
  counts["memory.cross_core_evictions"] +=
      static_cast<double>(r.cross_core_evictions);
  counts["safespec.sharp_alarms"] += static_cast<double>(r.sharp_alarms);
  counts["sim.sampled.windows"] += static_cast<double>(r.sampling.windows);
  counts["sim.sampled.ff_instrs"] +=
      static_cast<double>(r.sampling.fast_forwarded);
}

// ---- the pass engine -----------------------------------------------------

/// One operation of the workload, across every pass that ran it. Host
/// times keep the fastest untraced repetition.
struct Op {
  std::string name;
  double best_setup_s = std::numeric_limits<double>::infinity();
  double best_s = std::numeric_limits<double>::infinity();
  std::uint64_t instrs = 0;  ///< simulated instructions it is credited
  std::uint64_t cycles = 0;  ///< simulated core-cycles (0 for fuzz seeds)
  std::uint64_t digest = 0;
  /// Traced fuzz seeds only: a digest over every cell's simulated
  /// statistics, which check_seed does not expose (0 when not traced).
  std::uint64_t cells_digest = 0;
  std::string summary;
  bool seen = false;
};

struct Bench {
  std::string workload;
  std::uint64_t seed = 0;
  bool trace = false;

  std::vector<Op> ops;
  /// The bare functional engine on each sampled cell; run only under
  /// --trace 1, for the per-layer functional-engine metrics.
  std::vector<Op> functional_ops;
  std::vector<double> untraced_pass_s;  ///< wall time of untraced passes
  std::vector<double> traced_pass_s;    ///< wall time of traced passes
  /// Set-up and operation time timed inside traced passes: what the
  /// layer spans should account for.
  double traced_measured_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, double> counts;  ///< one pass worth of work
  double ipc_ci95_rel = 0.0;             ///< worst sampled cell
  std::vector<std::uint64_t> ff_instrs;  ///< per sampled cell
  Spans spans;

  /// Books one repetition of operation `i` in `list`: its set-up and
  /// operation host times, outcome and simulated digests. `cells_digest`
  /// is 0 unless the repetition has one.
  void record(std::vector<Op>& list, std::size_t i, const std::string& name,
              double setup_s, double seconds, bool traced, bool ok,
              std::uint64_t digest, std::uint64_t instrs,
              std::uint64_t cycles, const std::string& summary,
              std::uint64_t cells_digest = 0) {
    if (list.size() <= i) list.resize(i + 1);
    Op& op = list[i];
    ++attempted;
    if (!op.seen) {
      op.name = name;
      op.instrs = instrs;
      op.cycles = cycles;
      op.digest = digest;
      op.summary = summary;
      op.seen = true;
    } else if (op.digest != digest) {
      ok = false;
      failures.push_back(name + ": simulated digest changed between passes");
    }
    if (cells_digest != 0) {
      if (op.cells_digest == 0) {
        op.cells_digest = cells_digest;
      } else if (op.cells_digest != cells_digest) {
        ok = false;
        failures.push_back(name + ": cell digest changed between passes");
      }
    }
    if (!ok) {
      ++failed;
      failures.push_back(name + ": " + summary);
    }
    if (traced) {
      traced_measured_s += setup_s + seconds;
    } else {
      op.best_setup_s = std::min(op.best_setup_s, setup_s);
      op.best_s = std::min(op.best_s, seconds);
    }
  }
};

std::string hex(std::uint64_t v) {
  std::string s = "0x";
  for (int i = 15; i >= 0; --i) s += "0123456789abcdef"[(v >> (4 * i)) & 0xf];
  return s;
}

std::unique_ptr<sim::Simulator> make_cell_sim(const Cell& cell,
                                              std::uint64_t seed,
                                              std::uint64_t instrs) {
  const sim::MachineSpec machine = sim::machine_preset(cell.preset);
  workloads::WorkloadProfile profile =
      workloads::profile_by_name(cell.workload);
  profile.seed = seed;
  cpu::CoreConfig config = machine.core;
  config.policy = cell.policy;
  config.cores = cell.cores;
  return workloads::make_workload_sim(profile, config, instrs);
}

/// One pass over the detailed or sampled grid: a fresh machine per cell
/// (set-up), then the timed run.
void grid_pass(Bench& b, Spans* spans, bool first_pass) {
  const bool sampled = b.workload == "sampled";
  const auto& cells = sampled ? sampled_cells() : detailed_cells();
  const std::uint64_t instrs = sampled ? kSampledInstrs : kDetailedInstrs;
  sim::SamplingSpec spec;
  if (sampled) {
    spec.fast_forward_interval = kSampledGap;
    spec.warmup_instrs = 2'000;
    spec.detail_instrs = 10'000;
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    std::unique_ptr<sim::Simulator> s;
    auto t0 = Clock::now();
    {
      Spans::Scope scope(spans, "workloads.make_workload_sim");
      s = make_cell_sim(cell, b.seed, instrs);
    }
    const double setup_s = seconds_since(t0);
    t0 = Clock::now();
    sim::SimResult r;
    if (sampled) {
      Spans::Scope scope(spans, "sim.run_sampled");
      r = s->run_sampled(spec, instrs * 40 + 1'000'000, instrs);
    } else {
      Spans::Scope scope(spans, "sim.run");
      r = s->run(instrs * 40 + 1'000'000, instrs);
    }
    const double run_s = seconds_since(t0);
    const bool ok = r.stop == cpu::StopReason::kMaxInstrs;
    char summary[256];
    std::snprintf(summary, sizeof summary,
                  "stop=%s committed=%llu cycles=%llu", cpu::to_string(r.stop),
                  static_cast<unsigned long long>(r.committed_all_cores),
                  static_cast<unsigned long long>(r.cycles));
    std::string text = summary;
    if (sampled) {
      std::snprintf(summary, sizeof summary, " windows=%llu ipc=%.4f+-%.4f",
                    static_cast<unsigned long long>(r.sampling.windows),
                    r.sampling.ipc_mean, r.sampling.ipc_ci95);
      text += summary;
      if (r.sampling.ipc_mean > 0.0) {
        b.ipc_ci95_rel = std::max(b.ipc_ci95_rel,
                                  r.sampling.ipc_ci95 / r.sampling.ipc_mean);
      }
    }
    // Host work scales with core-cycles stepped, so cores=2 cells are
    // costed per cycle of each core.
    std::uint64_t core_cycles = 0;
    for (int c = 0; c < s->num_cores(); ++c) {
      core_cycles += s->core(c).stats().cycles;
    }
    b.record(b.ops, i, cell_name(cell), setup_s, run_s, spans != nullptr, ok,
             sim_digest(*s, r), r.committed_all_cores, core_cycles, text);
    if (first_pass) {
      add_counts(b.counts, *s, r);
      b.ff_instrs.push_back(r.sampling.fast_forwarded);
    }

    if (sampled && b.trace) {
      // The bare functional engine over the same program: its MIPS is
      // the fast-forward speed the sampled cell amortises against.
      std::unique_ptr<sim::Simulator> fs;
      t0 = Clock::now();
      {
        Spans::Scope scope(spans, "workloads.make_workload_sim");
        fs = make_cell_sim(cell, b.seed, instrs);
      }
      const double fun_setup_s = seconds_since(t0);
      sim::FunctionalEngine engine(&fs->program(), &fs->memory(),
                                   &fs->page_table());
      t0 = Clock::now();
      cpu::StopReason stop;
      {
        Spans::Scope scope(spans, "sim.functional_run");
        stop = engine.run(instrs);
      }
      const double fun_s = seconds_since(t0);
      Digest d;
      d.add(static_cast<std::uint64_t>(stop)).add(engine.committed());
      for (int reg = 0; reg < kNumArchRegs; ++reg) {
        d.add(engine.reg(static_cast<RegIndex>(reg)));
      }
      b.record(b.functional_ops, i, cell_name(cell) + "/functional",
               fun_setup_s, fun_s, spans != nullptr,
               stop == cpu::StopReason::kMaxInstrs, d.h, engine.committed(),
               0, std::string("stop=") + cpu::to_string(stop));
    }
  }
}

// ---- fuzz ----------------------------------------------------------------

bool converged(cpu::StopReason stop) {
  return stop == cpu::StopReason::kHalted ||
         stop == cpu::StopReason::kFaultNoHandler;
}

fuzz::ArchState engine_state(const sim::FunctionalEngine& e,
                             cpu::StopReason stop,
                             const memory::MainMemory& mem) {
  fuzz::ArchState s;
  s.stop = stop;
  s.committed = e.committed();
  s.faults = e.faults();
  for (int r = 0; r < kNumArchRegs; ++r) {
    s.regs[static_cast<std::size_t>(r)] = e.reg(static_cast<RegIndex>(r));
  }
  s.memory = mem.nonzero_words();
  return s;
}

fuzz::ArchState core_state(const sim::Simulator& s, cpu::StopReason stop) {
  fuzz::ArchState a;
  a.stop = stop;
  a.committed = s.core().stats().committed_instrs;
  a.faults = s.core().stats().faults;
  for (int r = 0; r < kNumArchRegs; ++r) {
    a.regs[static_cast<std::size_t>(r)] =
        s.core().reg(static_cast<RegIndex>(r));
  }
  a.memory = s.memory().nonzero_words();
  return a;
}

/// fuzz::check_seed at cores=1, recomposed from the public calls it is
/// made of so the traced run can time each one: program generation, the
/// functional-engine oracle, then per policy x preset cell machine
/// construction, the detailed run, and the state check. Returns the same
/// verdict check_seed does (the pass engine's digest check enforces it),
/// and sets `cells_digest` to a digest over every cell's simulated stats.
fuzz::SeedVerdict traced_check_seed(std::uint64_t seed,
                                    const fuzz::FuzzSpec& spec,
                                    const fuzz::DifferentialConfig& config,
                                    Spans* spans,
                                    std::map<std::string, double>* counts,
                                    std::uint64_t* cells_digest) {
  Spans::Scope seed_scope(spans, "fuzz.check_seed");
  fuzz::SeedVerdict verdict;
  verdict.seed = seed;
  const auto fail = [&verdict](const std::string& what) {
    verdict.ok = false;
    verdict.violations.push_back(what);
  };
  fuzz::FuzzProgram fp;
  {
    Spans::Scope scope(spans, "fuzz.generate_program");
    fp = fuzz::generate_program(seed, spec);
  }
  fuzz::ArchState oracle;
  {
    memory::MainMemory mem;
    memory::PageTable pt;
    fuzz::apply_address_space(fp, mem, pt);
    sim::FunctionalEngine engine(&fp.program, &mem, &pt);
    cpu::StopReason stop;
    {
      Spans::Scope scope(spans, "sim.functional_run");
      stop = engine.run(fp.max_instrs_hint);
    }
    Spans::Scope scope(spans, "fuzz.check");
    oracle = engine_state(engine, stop, mem);
  }
  verdict.committed = oracle.committed;
  if (!converged(oracle.stop)) {
    fail(std::string("oracle did not halt: ") + cpu::to_string(oracle.stop));
    return verdict;
  }
  std::vector<fuzz::ArchState> states;
  Digest cells;
  for (const std::string& preset : sim::machine_preset_names()) {
    for (const std::string& policy : policy::registered_policy_names()) {
      const std::string name = policy + "/" + preset;
      std::unique_ptr<sim::Simulator> s;
      {
        Spans::Scope scope(spans, "sim.machine_build");
        sim::MachineBuilder builder = sim::MachineBuilder::from_preset(preset);
        builder.policy(policy).configure(
            [&config](cpu::CoreConfig& c) { c.cores = config.cores; });
        for (const auto& region : fp.regions) {
          builder.map_region(region.base, region.bytes, region.perm);
        }
        for (const auto& poke : fp.pokes) builder.poke(poke.addr, poke.value);
        s = builder.build(fp.program);
      }
      sim::SimResult result;
      {
        Spans::Scope scope(spans, "sim.run");
        result = s->run(config.max_cycles, 4 * fp.max_instrs_hint);
      }
      Spans::Scope scope(spans, "fuzz.check");
      fuzz::ArchState state = core_state(*s, result.stop);
      if (!converged(state.stop)) {
        fail(name + ": did not converge: " + cpu::to_string(state.stop));
      }
      if (const std::string diff = fuzz::first_difference(oracle, state);
          !diff.empty()) {
        fail(name + ": committed state diverges from oracle: " + diff);
      }
      const cpu::Core& core = s->core();
      if (!core.shadow_dcache().empty() || !core.shadow_icache().empty() ||
          !core.shadow_dtlb().empty() || !core.shadow_itlb().empty()) {
        fail(name + ": shadow structures not empty after drain");
      }
      if (counts != nullptr) add_counts(*counts, *s, result);
      cells.add(sim_digest(*s, result));
      states.push_back(std::move(state));
    }
  }
  *cells_digest = cells.h;
  Spans::Scope scope(spans, "fuzz.check");
  verdict.cells = states.size();
  for (std::size_t i = 1; i < states.size(); ++i) {
    if (const std::string diff = fuzz::first_difference(states[0], states[i]);
        !diff.empty()) {
      fail("cell " + std::to_string(i) + " differs from cell 0: " + diff);
    }
  }
  return verdict;
}

/// One pass over kFuzzSeeds consecutive seeds. Set-up generates each
/// seed's program, outside the timed region, and fingerprints it outside
/// the set-up timer; the timed operation is fuzz::check_seed (which
/// generates the program again), or its traced recomposition.
void fuzz_pass(Bench& b, Spans* spans, bool count_pass) {
  const fuzz::FuzzSpec spec;
  fuzz::DifferentialConfig config;
  config.cores = 1;

  std::vector<std::uint64_t> program_hash(kFuzzSeeds);
  std::vector<double> setup_s(kFuzzSeeds);
  for (std::uint64_t i = 0; i < kFuzzSeeds; ++i) {
    const auto t0 = Clock::now();
    const fuzz::FuzzProgram fp = fuzz::generate_program(b.seed + i, spec);
    setup_s[i] = seconds_since(t0);
    Digest d;
    d.h = fnv1a64(isa::to_string(fp.program));
    for (const auto& region : fp.regions) {
      d.add(region.base).add(region.bytes).add(
          static_cast<std::uint64_t>(region.perm));
    }
    for (const auto& poke : fp.pokes) d.add(poke.addr).add(poke.value);
    program_hash[i] = d.add(fp.max_instrs_hint).h;
  }

  for (std::uint64_t i = 0; i < kFuzzSeeds; ++i) {
    const std::uint64_t seed = b.seed + i;
    std::uint64_t cells_digest = 0;
    const auto t0 = Clock::now();
    const fuzz::SeedVerdict v =
        spans == nullptr
            ? fuzz::check_seed(seed, spec, config)
            : traced_check_seed(seed, spec, config, spans,
                                count_pass ? &b.counts : nullptr,
                                &cells_digest);
    const double s = seconds_since(t0);
    Digest d;
    d.add(program_hash[i]).add(v.ok).add(v.cells).add(v.committed);
    std::string summary = "cells=" + std::to_string(v.cells) +
                          " oracle_instrs=" + std::to_string(v.committed) +
                          (v.ok ? " ok" : " FAIL");
    for (const std::string& violation : v.violations) {
      summary += "; " + violation;
    }
    b.record(b.ops, i, "seed-" + std::to_string(seed), setup_s[i], s,
             spans != nullptr, v.ok, d.h, v.committed * (v.cells + 1), 0,
             summary, cells_digest);
    if (count_pass) {
      b.counts["fuzz.cells"] += static_cast<double>(v.cells);
      b.counts["fuzz.oracle_instrs"] += static_cast<double>(v.committed);
    }
  }
}

// ---- run + report --------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string source_stamp = "unknown";
  std::string out_dir = ".bench_build/out";
};

constexpr const char* kUsage =
    "usage: perfbench --workload detailed|sampled|fuzz --seed N "
    "--seconds S --trace 0|1\n"
    "                 [--source-stamp TEXT] [--out-dir DIR]\n";

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n%s", message.c_str(), kUsage);
  std::exit(2);
}

bool parse_u64(const std::string& text, std::uint64_t* out) {
  if (text.empty() || text.size() > 20) return false;
  std::uint64_t v = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (v > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      return false;
    }
    v = v * 10 + digit;
  }
  *out = v;
  return true;
}

Options parse_options(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      std::fputs(kUsage, stdout);
      std::exit(0);
    }
    std::string value;
    if (const auto eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage_error("flag '" + flag + "' needs a value");
    }
    if (flag == "--workload") {
      if (value != "detailed" && value != "sampled" && value != "fuzz") {
        usage_error("unknown workload '" + value +
                    "' (detailed, sampled, fuzz)");
      }
      o.workload = value;
    } else if (flag == "--seed") {
      if (!parse_u64(value, &o.seed) || o.seed > kMaxSeed) {
        usage_error("--seed must be a whole number in [0, 2^62], got '" +
                    value + "'");
      }
      have_seed = true;
    } else if (flag == "--seconds") {
      std::uint64_t s = 0;
      if (!parse_u64(value, &s) || s < 1 || s > 600) {
        usage_error("--seconds must be a whole number in [1, 600], got '" +
                    value + "'");
      }
      o.seconds = static_cast<double>(s);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        usage_error("--trace must be 0 or 1, got '" + value + "'");
      }
      o.trace = value == "1" ? 1 : 0;
    } else if (flag == "--source-stamp") {
      o.source_stamp = value;
    } else if (flag == "--out-dir") {
      if (value.empty()) usage_error("--out-dir must not be empty");
      o.out_dir = value;
    } else {
      usage_error("unknown flag '" + flag + "'");
    }
  }
  if (o.workload.empty()) usage_error("--workload is required");
  if (!have_seed) usage_error("--seed is required");
  if (o.seconds <= 0.0) usage_error("--seconds is required");
  if (o.trace < 0) usage_error("--trace is required");
  return o;
}

void make_dirs(const std::string& path) {
  for (std::size_t p = path.find('/', 1); ; p = path.find('/', p + 1)) {
    mkdir(path.substr(0, p).c_str(), 0755);
    if (p == std::string::npos) break;
  }
}

int run(const Options& opt) {
  Bench b;
  b.workload = opt.workload;
  b.seed = opt.seed;
  b.trace = opt.trace == 1;

  const std::string stamp =
      "{\"cpu\": \"" + json_escape(cpu_model()) + "\", \"nproc\": " +
      std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) + ", \"compiler\": \"" +
      json_escape(compiler()) + "\", \"build_type\": \"" +
      PERFBENCH_BUILD_TYPE + "\", \"source\": \"" +
      json_escape(opt.source_stamp) + "\"}";
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace);
  std::printf("stamp: %s\n", stamp.c_str());
  std::printf(
      "load: closed loop, 1 client, 1 thread, operations back to back; "
      "cold machine per repetition (fresh simulator, modelled caches "
      "start empty); model unvalidated (no hardware reference results), "
      "so no accuracy figure is given\n");
  std::fflush(stdout);

  // Passes alternate untraced/traced under --trace 1 (the first is always
  // untraced), so both kinds see the same host conditions.
  const auto t0 = Clock::now();
  for (int pass = 0;; ++pass) {
    const bool traced = b.trace && pass % 2 == 1;
    const auto pass_t0 = Clock::now();
    {
      std::unique_ptr<Spans::Scope> root;
      if (traced) {
        root = std::make_unique<Spans::Scope>(&b.spans, "perfbench.pass");
      }
      Spans* spans = traced ? &b.spans : nullptr;
      if (b.workload == "fuzz") {
        // Work counts come from the traced recomposition (check_seed
        // keeps its machines private); elsewhere from the first pass.
        fuzz_pass(b, spans, traced && pass == 1);
      } else {
        grid_pass(b, spans, pass == 0);
      }
    }
    (traced ? b.traced_pass_s : b.untraced_pass_s)
        .push_back(seconds_since(pass_t0));
    const bool enough = !b.trace || pass >= 1;
    if (enough && seconds_since(t0) >= opt.seconds) break;
  }

  // ---- per-operation table
  double best_total_s = 0.0;
  double best_setup_s = 0.0;
  std::uint64_t instrs_total = 0;
  for (const Op& op : b.ops) {
    best_total_s += op.best_s;
    best_setup_s += op.best_setup_s;
    instrs_total += op.instrs;
    const std::string cells =
        op.cells_digest != 0 ? " cells_digest=" + hex(op.cells_digest) : "";
    std::printf("op %-24s best_ms=%9.3f digest=%s%s %s\n", op.name.c_str(),
                op.best_s * 1e3, hex(op.digest).c_str(), cells.c_str(),
                op.summary.c_str());
  }
  for (const Op& op : b.functional_ops) {
    std::printf("op %-24s best_ms=%9.3f digest=%s %s\n", op.name.c_str(),
                op.best_s * 1e3, hex(op.digest).c_str(), op.summary.c_str());
  }
  Digest all;
  for (const Op& op : b.ops) all.add(op.digest);
  std::printf("workload digest=%s ops=%zu passes=%zu untraced, %zu traced\n",
              hex(all.h).c_str(), b.ops.size(), b.untraced_pass_s.size(),
              b.traced_pass_s.size());
  for (const std::string& f : b.failures) std::printf("FAILED %s\n", f.c_str());
  std::printf("attempted=%llu failed=%llu failed_ratio=%g\n",
              static_cast<unsigned long long>(b.attempted),
              static_cast<unsigned long long>(b.failed),
              ratio(static_cast<double>(b.failed),
                    static_cast<double>(b.attempted)));

  std::vector<std::pair<MetricDef, double>> metrics;
  if (!b.trace) {
    metrics.push_back({{"sim_mips", "MIPS"},
                       ratio(static_cast<double>(instrs_total),
                             best_total_s * 1e6)});
    metrics.push_back({{"setup_s", "s"}, best_setup_s});
    metrics.push_back({{"peak_rss_mb", "MB"}, peak_rss_mb()});
  } else {
    // Span self times: median over traced passes.
    std::map<std::string, std::vector<double>> per_pass;
    const std::vector<int> roots = b.spans.roots();
    for (int root : roots) {
      const auto self = b.spans.self_seconds(root);
      for (const char* name : span_names()) {
        const auto it = self.find(name);
        per_pass[name].push_back(it == self.end() ? 0.0 : it->second);
      }
    }
    const auto total_self = b.spans.self_seconds();
    double layer_self = 0.0;
    for (const auto& [name, s] : total_self) {
      if (name != "perfbench.pass") layer_self += s;
    }
    std::printf("span self time (median per traced pass of %zu; share of "
                "the traced passes' measured time):\n",
                roots.size());
    for (const char* name : span_names()) {
      const double s = median(per_pass[name]);
      const auto it = total_self.find(name);
      std::printf("  %-30s %10.4f s  %5.1f%%\n", name, s,
                  100.0 * ratio(it == total_self.end() ? 0.0 : it->second,
                                b.traced_measured_s));
      metrics.push_back({{std::string(name) + "_s", "s"}, s});
    }
    metrics.push_back({{"perfbench.span_coverage", "ratio"},
                       ratio(layer_self, b.traced_measured_s)});
    // Fastest traced pass minus fastest untraced pass: the same filter
    // the operation times use.
    metrics.push_back(
        {{"perfbench.trace_overhead_s", "s"},
         *std::min_element(b.traced_pass_s.begin(), b.traced_pass_s.end()) -
             *std::min_element(b.untraced_pass_s.begin(),
                               b.untraced_pass_s.end())});

    // Host cost per simulated cycle, and each policy against its twin.
    std::map<std::string, double> ns_per_cycle;
    for (const Op& op : b.ops) {
      if (op.cycles > 0) {
        ns_per_cycle[op.name] =
            op.best_s * 1e9 / static_cast<double>(op.cycles);
      }
    }
    for (const Cell& c : detailed_cells()) {
      const std::string name = cell_name(c);
      const double v =
          b.workload == "detailed" ? ns_per_cycle[name] : 0.0;
      metrics.push_back({{"cpu.host_ns_per_cycle." + name, "ns"}, v});
    }
    for (const Cell& c : detailed_cells()) {
      if (std::strcmp(c.policy, "baseline") == 0) continue;
      const std::string name = cell_name(c);
      const double twin = ns_per_cycle[cell_name(c, "baseline")];
      const double v =
          b.workload == "detailed" ? ratio(ns_per_cycle[name], twin) : 0.0;
      metrics.push_back({{"safespec.policy_cost." + name, "ratio"}, v});
    }
    // Functional engine speed and its share of the sampled host time:
    // each cell's fast-forwarded instructions at that cell's bare
    // functional speed, over the cell's run_sampled time.
    double fun_instrs = 0.0, fun_s = 0.0, ff_host_s = 0.0, sampled_s = 0.0;
    for (std::size_t i = 0; i < b.functional_ops.size(); ++i) {
      const Op& fun = b.functional_ops[i];
      fun_instrs += static_cast<double>(fun.instrs);
      fun_s += fun.best_s;
      ff_host_s += static_cast<double>(b.ff_instrs[i]) *
                   ratio(fun.best_s, static_cast<double>(fun.instrs));
      sampled_s += b.ops[i].best_s;
    }
    metrics.push_back(
        {{"sim.functional_mips", "MIPS"}, ratio(fun_instrs, fun_s * 1e6)});
    metrics.push_back(
        {{"sim.sampled.ff_host_share", "ratio"}, ratio(ff_host_s, sampled_s)});
    metrics.push_back(
        {{"sim.sampled.ipc_ci95_rel", "ratio"}, b.ipc_ci95_rel});
    for (const auto& [name, unit] : count_names()) {
      double v = b.counts[name];
      if (std::strcmp(name, "cpu.useful_fetch_ratio") == 0) {
        v = ratio(b.counts["cpu.committed"], b.counts["cpu.fetched"]);
      } else if (std::strcmp(name, "cpu.dib_hit_ratio") == 0) {
        v = ratio(b.counts["cpu.dib_hits"], b.counts["cpu.dib_lookups"]);
      }
      metrics.push_back({{name, unit}, v});
    }

    make_dirs(opt.out_dir);
    const std::string path = opt.out_dir + "/trace-" + opt.workload +
                             "-seed" + std::to_string(opt.seed) + ".json";
    if (b.spans.write_chrome_trace(path, stamp)) {
      std::printf("chrome trace: %s (%zu spans)\n", path.c_str(),
                  b.spans.spans().size());
    } else {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
  }

  std::string line = "{\"correct\": ";
  line += b.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(b.attempted) +
          ", \"failed\": " + std::to_string(b.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    double v = metrics[i].second;
    if (!std::isfinite(v)) v = 0.0;
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", v);
    line += (i ? ", " : "") + std::string("\"") + metrics[i].first.name +
            "\": {\"value\": " + value + ", \"unit\": \"" +
            metrics[i].first.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options opt = perfbench::parse_options(argc, argv);
  try {
    return perfbench::run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
