// Simulation-throughput harness (the BENCH perf signal).
//
//   perf_driver                          # default cell grid, JSON to
//                                        # BENCH_sim_throughput.json
//   perf_driver --instrs=500000 --repeat=3
//   perf_driver --out=perf.json --cells=mcf/WFC/skylake,gcc/baseline/skylake
//
// Each cell runs one representative workload profile under one protection
// policy on one machine preset for a fixed committed-instruction budget,
// measuring host wall time around the simulation loop only (program
// generation and machine construction are excluded). The figure of merit
// is MIPS — millions of simulated committed instructions per host wall
// second — per cell and aggregated over the grid. Results are written as
// machine-readable JSON so CI can archive them and successive runs can be
// compared; with --repeat=N each cell reports its best-of-N (minimum
// wall time), which filters scheduler noise on shared runners.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/cli.h"
#include "safespec/policy.h"
#include "sim/functional.h"
#include "sim/machine.h"
#include "workloads/runner.h"
#include "workloads/workload.h"

namespace {

using safespec::sim::SimResult;

/// One grid point: workload profile x protection policy x machine preset,
/// plus the simulation mode:
///   detailed   — the cycle-accurate core only (historical cells);
///   sampled    — Simulator::run_sampled under the --ff-interval/--warmup/
///                --detail schedule (figure of merit: *effective* MIPS —
///                architectural instructions covered per host second);
///   sampled-fast — run_sampled with an aggressive fast-forward interval
///                (half the budget per gap — few windows, maximal
///                functional duty cycle; tracks the sampling asymptote);
///   functional — the bare FunctionalEngine, no detailed core at all
///                (upper bound; also the fast-forward speed the sampled
///                cells amortise against).
///
/// Workload names go through workloads::profile_by_name, so trace
/// spellings work in cells too: trace:@NAME (in-memory codec round trip
/// of profile NAME) and trace:PATH (a trace file).
struct Cell {
  std::string workload;
  std::string policy;
  std::string preset;
  std::string mode = "detailed";
  /// Cores sharing the L2/L3 (cells grammar: a trailing "/cores=N").
  /// Every core runs the workload on private memory; the figure of merit
  /// counts committed instructions over all cores. Detailed mode only.
  int cores = 1;
};

bool known_mode(const std::string& mode) {
  return mode == "detailed" || mode == "sampled" ||
         mode == "sampled-fast" || mode == "functional";
}

/// The default grid covers the hot-path variety that matters for
/// throughput: pointer-chasing (mcf) and streaming (lbm) d-side traffic,
/// a large code footprint stressing the i-side shadow (gcc), a
/// branchy/squash-heavy control profile (exchange2), the kStall
/// full-table path (WFB-stall), and the little "embedded" preset. The
/// SHARP cells cover the cache-protection family's hot path (the
/// protected-victim scan on every fill; at cores=1 it is
/// cycle-identical to the baseline, so the perf signal is pure host
/// cost). The cores=2 cells exercise the multi-core path — round-robin
/// scheduling and the shared L2/L3 with per-core owner attribution. The
/// trace:@ cells run the same workloads through the trace codec round
/// trip (cycle-identical to their synthetic twins by construction, so
/// the perf_compare gate covers the trace frontend too). The trailing
/// sampled/sampled-fast/functional cells track the sampled-simulation
/// paths: effective MIPS for the SMARTS schedule, the aggressive-gap
/// asymptote, and the raw oracle-engine MIPS.
std::vector<Cell> default_cells() {
  return {
      {"mcf", "baseline", "skylake"},  {"mcf", "WFC", "skylake"},
      {"gcc", "baseline", "skylake"},  {"gcc", "WFC", "skylake"},
      {"lbm", "baseline", "skylake"},  {"lbm", "WFB", "skylake"},
      {"exchange2", "baseline", "skylake"},
      {"exchange2", "WFC", "skylake"},
      {"xalancbmk", "WFB-stall", "skylake"},
      {"mcf", "WFC", "embedded"},
      {"mcf", "SHARP", "skylake"},
      {"gcc", "SHARP", "skylake", "detailed", 2},
      {"mcf", "baseline", "skylake", "detailed", 2},
      {"gcc", "WFC", "skylake", "detailed", 2},
      {"trace:@mcf", "baseline", "skylake"},
      {"trace:@exchange2", "WFC", "skylake"},
      {"mcf", "baseline", "skylake", "sampled"},
      {"gcc", "WFC", "skylake", "sampled"},
      {"mcf", "baseline", "skylake", "sampled-fast"},
      {"mcf", "baseline", "skylake", "functional"},
  };
}

struct CellResult {
  Cell cell;
  std::uint64_t committed_instrs = 0;
  std::uint64_t cycles = 0;
  double wall_ms = 0.0;
  const char* stop = "?";
  // Sampled-mode extras (zero elsewhere).
  std::uint64_t windows = 0;
  double ipc = 0.0;
  double ipc_ci95 = 0.0;

  /// For sampled cells this is *effective* MIPS: fast-forwarded
  /// instructions count too, since they are architecturally covered.
  double mips() const {
    return wall_ms <= 0.0 ? 0.0
                          : static_cast<double>(committed_instrs) /
                                (wall_ms * 1e3);
  }
};

void usage(const char* prog, std::FILE* out) {
  std::fprintf(
      out,
      "usage: %s [--instrs=N] [--repeat=N] [--out=FILE] [--cells=...]\n"
      "          [--ff-interval=N] [--warmup=N] [--detail=N]\n"
      "  --instrs=N       committed instructions per cell (default 200000)\n"
      "  --repeat=N       runs per cell; best (fastest) one is reported\n"
      "                   (default 1)\n"
      "  --out=FILE       JSON output path (default\n"
      "                   BENCH_sim_throughput.json; \"-\" suppresses it)\n"
      "  --cells=...      comma-separated items of the form\n"
      "                   workload/policy/preset[/mode][/cores=N]; mode is\n"
      "                   detailed (default), sampled, sampled-fast, or\n"
      "                   functional; cores=N (detailed mode only) runs N\n"
      "                   cores sharing the L2/L3 (default: a\n"
      "                   representative grid). Workloads accept trace\n"
      "                   spellings: trace:@NAME / trace:PATH\n"
      "  --set=key=value  override one machine field on every cell's\n"
      "                   preset (repeatable; see MachineSpec::set) —\n"
      "                   e.g. --set=dib_lines=0 measures the\n"
      "                   decoded-instruction buffer's host-side win\n"
      "  --ff-interval=N  sampled cells: functional instrs per gap\n"
      "                   (default: --instrs/10, ~10 windows per cell;\n"
      "                   sampled-fast always uses --instrs/2)\n"
      "  --warmup=N       sampled cells: detailed unmeasured instrs per\n"
      "                   window (default 2000; sampled-fast 1000)\n"
      "  --detail=N       sampled cells: detailed measured instrs per\n"
      "                   window (default 10000; sampled-fast 5000)\n",
      prog);
}

std::vector<Cell> parse_cells(const std::string& text) {
  std::vector<Cell> cells;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    const std::string item = text.substr(start, comma - start);
    std::vector<std::string> parts;
    std::size_t p = 0;
    while (p <= item.size()) {
      std::size_t slash = item.find('/', p);
      if (slash == std::string::npos) slash = item.size();
      parts.push_back(item.substr(p, slash - p));
      if (slash == item.size()) break;
      p = slash + 1;
    }
    if (parts.size() < 3 || parts.size() > 5 || parts[0].empty() ||
        parts[1].empty() || parts[2].empty()) {
      std::fprintf(stderr,
                   "--cells item '%s' is not "
                   "workload/policy/preset[/mode][/cores=N]\n",
                   item.c_str());
      std::exit(2);
    }
    Cell cell;
    cell.workload = parts[0];
    cell.policy = parts[1];
    cell.preset = parts[2];
    for (std::size_t extra = 3; extra < parts.size(); ++extra) {
      if (parts[extra].rfind("cores=", 0) == 0) {
        cell.cores = safespec::cli::parse_int_or_exit(
            parts[extra].c_str() + 6, "--cells cores",
            std::numeric_limits<int>::max());
      } else {
        cell.mode = parts[extra];
      }
    }
    cells.push_back(std::move(cell));
    start = comma + 1;
  }
  return cells;
}

CellResult run_cell(const Cell& cell, std::uint64_t instrs, int repeat,
                    const safespec::sim::SamplingSpec& sampling,
                    const std::vector<std::string>& overrides) {
  using namespace safespec;
  sim::MachineSpec machine = sim::machine_preset(cell.preset);
  for (const std::string& kv : overrides) machine.set(kv);
  auto profile = workloads::profile_by_name(cell.workload);
  // Same per-cell trace plumbing as ExperimentSpec::expand().
  if (!machine.trace.empty()) profile.trace_file = machine.trace;
  cpu::CoreConfig config = machine.core;
  config.policy = cell.policy;
  config.cores = cell.cores;

  CellResult best;
  best.cell = cell;
  for (int r = 0; r < repeat; ++r) {
    // A fresh machine per run: the measurement is always a cold start,
    // identical across repeats and across harness invocations.
    auto sim = workloads::make_workload_sim(profile, config, instrs);
    if (cell.mode == "functional") {
      // The bare engine over the same program/memory/page-table the
      // detailed cells use — the oracle fast path in isolation.
      sim::FunctionalEngine engine(&sim->program(), &sim->memory(),
                                   &sim->page_table());
      const auto t0 = std::chrono::steady_clock::now();
      const cpu::StopReason stop = engine.run(instrs);
      const auto t1 = std::chrono::steady_clock::now();
      const double wall_ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      if (r == 0 || wall_ms < best.wall_ms) {
        best.committed_instrs = engine.committed();
        best.cycles = 0;
        best.wall_ms = wall_ms;
        best.stop = cpu::to_string(stop);
      }
      continue;
    }
    sim::SamplingSpec spec;  // disabled => exactly the detailed run
    if (cell.mode == "sampled") {
      spec = sampling;
    } else if (cell.mode == "sampled-fast") {
      // Aggressive schedule: one gap spans half the budget, so almost
      // everything fast-forwards — the sampling-throughput asymptote.
      spec.fast_forward_interval = std::max<std::uint64_t>(instrs / 2, 1);
      spec.warmup_instrs = 1'000;
      spec.detail_instrs = 5'000;
    }
    const auto t0 = std::chrono::steady_clock::now();
    const SimResult result =
        sim->run_sampled(spec, instrs * 40 + 1'000'000, instrs);
    const auto t1 = std::chrono::steady_clock::now();
    const double wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (r == 0 || wall_ms < best.wall_ms) {
      // Multi-core cells count every core's committed work (equal to
      // committed_instrs at cores=1, so historical artifacts compare).
      best.committed_instrs = result.committed_all_cores;
      best.cycles = result.cycles;
      best.wall_ms = wall_ms;
      best.stop = cpu::to_string(result.stop);
      best.windows = result.sampling.windows;
      best.ipc = result.ipc;
      best.ipc_ci95 = result.sampling.ipc_ci95;
    }
  }
  return best;
}

void write_json(const std::string& path, std::uint64_t instrs, int repeat,
                const std::vector<CellResult>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(2);
  }
  std::uint64_t total_instrs = 0;
  double total_ms = 0.0;
  std::fprintf(f,
               "{\n  \"instrs_per_cell\": %llu,\n  \"repeat\": %d,\n"
               "  \"cells\": [\n",
               static_cast<unsigned long long>(instrs), repeat);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const CellResult& r = results[i];
    total_instrs += r.committed_instrs;
    total_ms += r.wall_ms;
    std::fprintf(
        f,
        "    {\"workload\": \"%s\", \"policy\": \"%s\", \"preset\": \"%s\","
        " \"mode\": \"%s\", \"cores\": %d,"
        " \"committed_instrs\": %llu, \"cycles\": %llu,"
        " \"wall_ms\": %.3f, \"mips\": %.2f, \"stop\": \"%s\"",
        r.cell.workload.c_str(), r.cell.policy.c_str(),
        r.cell.preset.c_str(), r.cell.mode.c_str(), r.cell.cores,
        static_cast<unsigned long long>(r.committed_instrs),
        static_cast<unsigned long long>(r.cycles), r.wall_ms, r.mips(),
        r.stop);
    if (r.cell.mode.rfind("sampled", 0) == 0) {
      std::fprintf(f, ", \"windows\": %llu, \"ipc\": %.4f, \"ipc_ci95\": %.4f",
                   static_cast<unsigned long long>(r.windows), r.ipc,
                   r.ipc_ci95);
    }
    std::fprintf(f, "}%s\n", i + 1 < results.size() ? "," : "");
  }
  const double aggregate =
      total_ms <= 0.0 ? 0.0 : static_cast<double>(total_instrs) /
                                  (total_ms * 1e3);
  std::fprintf(f,
               "  ],\n  \"aggregate\": {\"total_instrs\": %llu,"
               " \"total_wall_ms\": %.3f, \"mips\": %.2f}\n}\n",
               static_cast<unsigned long long>(total_instrs), total_ms,
               aggregate);
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace safespec;

  std::uint64_t instrs = 200'000;
  int repeat = 1;
  std::string out_path = "BENCH_sim_throughput.json";
  std::vector<Cell> cells = default_cells();
  std::vector<std::string> overrides;
  // Sampled-cell schedule. fast_forward_interval == 0 here means "auto":
  // instrs/10, so a sampled cell runs ~10 windows at any --instrs and the
  // detailed duty cycle shrinks as the budget grows (0.012% per window's
  // 12k detailed instrs at --instrs=100000000).
  sim::SamplingSpec sampling;
  sampling.warmup_instrs = 2'000;
  sampling.detail_instrs = 10'000;

  // Historical grammar preserved exactly: "--flag=value" forms only, any
  // other argument (including "--flag value") is an error.
  cli::FlagSet flags(usage);
  flags.u64("--instrs", &instrs)
      .value("--repeat",
             [&repeat](const char* value) {
               repeat = cli::parse_int_or_exit(
                   value, "--repeat", std::numeric_limits<int>::max());
               if (repeat < 1 || repeat > 100) {
                 std::fprintf(stderr, "--repeat must be in [1, 100]\n");
                 std::exit(2);
               }
             })
      .string("--out", &out_path)
      .value("--cells",
             [&cells](const char* value) { cells = parse_cells(value); })
      .repeated("--set", &overrides)
      .u64("--ff-interval", &sampling.fast_forward_interval)
      .u64("--warmup", &sampling.warmup_instrs)
      .u64("--detail", &sampling.detail_instrs);
  flags.parse(argc, argv);

  if (sampling.fast_forward_interval == 0) {
    sampling.fast_forward_interval = std::max<std::uint64_t>(instrs / 10, 1);
  }
  try {
    sampling.validate();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad sampling schedule: %s\n", e.what());
    return 2;
  }

  // Resolve every cell's names (and overrides) eagerly so a typo fails
  // before any run.
  try {
    for (const Cell& cell : cells) {
      workloads::profile_by_name(cell.workload);
      policy::named_policy(cell.policy);
      sim::MachineSpec machine = sim::machine_preset(cell.preset);
      for (const std::string& kv : overrides) machine.set(kv);
      machine.validate();
      if (!known_mode(cell.mode)) {
        std::fprintf(stderr,
                     "bad cell: unknown mode '%s' (detailed, sampled, "
                     "sampled-fast, functional)\n",
                     cell.mode.c_str());
        return 2;
      }
      if (cell.cores < 1 || cell.cores > 64) {
        std::fprintf(stderr, "bad cell: cores=%d is out of range (1..64)\n",
                     cell.cores);
        return 2;
      }
      if (cell.cores > 1 && cell.mode != "detailed") {
        std::fprintf(stderr,
                     "bad cell: cores=%d needs detailed mode (sampled and "
                     "functional runs are single-core)\n",
                     cell.cores);
        return 2;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad cell: %s\n", e.what());
    return 2;
  }

  std::vector<CellResult> results;
  results.reserve(cells.size());
  std::uint64_t total_instrs = 0;
  double total_ms = 0.0;
  for (const Cell& cell : cells) {
    // Inputs only a run can check (a trace:PATH file that is missing or
    // malformed) fail here, after the eager name checks above.
    CellResult r;
    try {
      r = run_cell(cell, instrs, repeat, sampling, overrides);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bad cell %s/%s/%s: %s\n", cell.workload.c_str(),
                   cell.policy.c_str(), cell.preset.c_str(), e.what());
      return 2;
    }
    const bool full_budget = std::strcmp(r.stop, "max-instrs") == 0;
    const std::string mode_col =
        cell.cores > 1 ? cell.mode + "/c" + std::to_string(cell.cores)
                       : cell.mode;
    std::printf("perf: %-16s %-9s %-8s %-12s %9llu instrs %8llu Kcycles "
                "%8.1f ms %7.2f MIPS%s%s",
                cell.workload.c_str(), cell.policy.c_str(),
                cell.preset.c_str(), mode_col.c_str(),
                static_cast<unsigned long long>(r.committed_instrs),
                static_cast<unsigned long long>(r.cycles / 1000),
                r.wall_ms, r.mips(), full_budget ? "" : " stop=",
                full_budget ? "" : r.stop);
    if (cell.mode.rfind("sampled", 0) == 0) {
      std::printf(" (%llu windows, ipc %.3f +/- %.3f)",
                  static_cast<unsigned long long>(r.windows), r.ipc,
                  r.ipc_ci95);
    }
    std::printf("\n");
    total_instrs += r.committed_instrs;
    total_ms += r.wall_ms;
    results.push_back(r);
  }

  const double aggregate =
      total_ms <= 0.0 ? 0.0 : static_cast<double>(total_instrs) /
                                  (total_ms * 1e3);
  std::printf("perf: aggregate %llu instrs in %.1f ms -> %.2f MIPS "
              "(%zu cells, repeat=%d)\n",
              static_cast<unsigned long long>(total_instrs), total_ms,
              aggregate, results.size(), repeat);

  if (out_path != "-") write_json(out_path, instrs, repeat, results);
  return 0;
}
