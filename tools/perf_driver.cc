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
//
// A cell is an experiment::CellName (workload/policy/preset[/mode]
// [/cores=N]); experiment::resolve_cell checks it and builds the cell, and
// experiment::build_cell / run_built_cell run it, the path every bench
// and grid campaign runs its cells on. Only the functional mode, which no
// other tool measures, runs its own loop here.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.h"
#include "experiment/experiment.h"
#include "sim/functional.h"

#ifndef SAFESPEC_BUILD_TYPE
#define SAFESPEC_BUILD_TYPE "unknown"  // CMake defines it
#endif

namespace {

using safespec::experiment::CellName;

struct CellResult {
  CellName cell;
  /// For functional cells only committed_all_cores and stop are set.
  safespec::sim::SimResult result;
  double wall_ms = 0.0;

  /// For sampled cells this is *effective* MIPS: fast-forwarded
  /// instructions count too, since they are architecturally covered.
  /// Multi-core cells count every core's committed work.
  double mips() const {
    return wall_ms <= 0.0 ? 0.0
                          : static_cast<double>(result.committed_all_cores) /
                                (wall_ms * 1e3);
  }
};

void usage(const char* prog, std::FILE* out) {
  std::fprintf(
      out,
      "usage: %s [--instrs=N] [--repeat=N] [--out=FILE] [--cells=...]\n"
      "          [--ff-interval=N] [--warmup=N] [--detail=N]\n"
      "  --instrs=N       committed instructions per cell, 1..1000000000\n"
      "                   (default 200000)\n"
      "  --repeat=N       runs per cell; best (fastest) one is reported\n"
      "                   (default 1)\n"
      "  --out=FILE       JSON output path (default\n"
      "                   BENCH_sim_throughput.json; \"-\" suppresses it)\n"
      "  --cells=...      comma-separated items of the form\n"
      "                   workload/policy/preset[/mode][/cores=N]; mode is\n"
      "                   detailed (default), sampled, sampled-fast, or\n"
      "                   functional; cores=N (detailed mode only) runs N\n"
      "                   cores sharing the L2/L3 (default: a\n"
      "                   representative grid). Mode and cores= may each\n"
      "                   appear once. Workloads accept trace spellings:\n"
      "                   trace:@NAME / trace:PATH, where PATH may be\n"
      "                   absolute (trace:/dir/x.sstr/WFC/skylake)\n"
      "  --set=key=value  override one machine field on every cell's\n"
      "                   preset (repeatable; see MachineSpec::set) —\n"
      "                   e.g. --set=dib_lines=0 measures the\n"
      "                   decoded-instruction buffer's host-side win;\n"
      "                   sampling.* keys are rejected (the flags below\n"
      "                   set the sampled schedules)\n"
      "  --ff-interval=N  sampled cells: functional instrs per gap\n"
      "                   (default: --instrs/10, ~10 windows per cell;\n"
      "                   sampled-fast always uses --instrs/2)\n"
      "  --warmup=N       sampled cells: detailed unmeasured instrs per\n"
      "                   window (default 2000; sampled-fast 1000)\n"
      "  --detail=N       sampled cells: detailed measured instrs per\n"
      "                   window (default 10000; sampled-fast 5000)\n",
      prog);
}

/// The --cells value: comma-separated CellName items, none empty.
std::vector<CellName> parse_cells(const std::string& text) {
  std::vector<CellName> cells;
  try {
    if (text.empty()) throw std::invalid_argument("--cells names no cell");
    for (std::size_t start = 0;;) {
      const std::size_t comma = text.find(',', start);
      cells.push_back(CellName::parse(text.substr(start, comma - start)));
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
  }
  return cells;
}

/// Runs one resolved cell `repeat` times, each on a fresh machine (always
/// a cold start, identical across repeats and invocations), timing the
/// run only, and keeps the fastest.
CellResult measure(const CellName& name,
                   const safespec::experiment::Cell& cell, int repeat) {
  using namespace safespec;
  using Clock = std::chrono::steady_clock;
  CellResult best{name, {}, 0.0};
  for (int r = 0; r < repeat; ++r) {
    auto sim = experiment::build_cell(cell);
    CellResult run{name, {}, 0.0};
    Clock::time_point t0, t1;
    if (name.mode == "functional") {
      // The bare engine over the same program/memory/page-table the
      // detailed cells use — the oracle fast path in isolation.
      sim::FunctionalEngine engine(&sim->program(), &sim->memory(),
                                   &sim->page_table());
      t0 = Clock::now();
      run.result.stop = engine.run(cell.instrs);
      t1 = Clock::now();
      run.result.committed_all_cores = engine.committed();
    } else {
      t0 = Clock::now();
      run.result = experiment::run_built_cell(cell, *sim);
      t1 = Clock::now();
    }
    run.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (r == 0 || run.wall_ms < best.wall_ms) best = run;
  }
  return best;
}

/// The host fingerprint for the JSON artifact, as perfbench stamps its
/// reports: a MIPS figure means little without the machine behind it.
std::string host_json() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    const auto colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
      cpu = line.substr(colon + 1);
      cpu.erase(0, cpu.find_first_not_of(' '));
      break;
    }
  }
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  using safespec::experiment::json_escape;
  return "{\"cpu\": \"" + json_escape(cpu) + "\", \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": \"" + json_escape(compiler) +
         "\", \"build_type\": \"" + json_escape(SAFESPEC_BUILD_TYPE) +
         "\"}";
}

double aggregate_mips(std::uint64_t total_instrs, double total_ms) {
  return total_ms <= 0.0 ? 0.0
                         : static_cast<double>(total_instrs) /
                               (total_ms * 1e3);
}

void write_json(const std::string& path, std::uint64_t instrs, int repeat,
                const std::vector<CellResult>& results,
                std::uint64_t total_instrs, double total_ms) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(2);
  }
  std::fprintf(f,
               "{\n  \"instrs_per_cell\": %llu,\n  \"repeat\": %d,\n"
               "  \"host\": %s,\n  \"cells\": [\n",
               static_cast<unsigned long long>(instrs), repeat,
               host_json().c_str());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const CellName& c = results[i].cell;
    const safespec::sim::SimResult& r = results[i].result;
    std::fprintf(
        f,
        "    {\"workload\": \"%s\", \"policy\": \"%s\", \"preset\": \"%s\","
        " \"mode\": \"%s\", \"cores\": %d,"
        " \"committed_instrs\": %llu, \"cycles\": %llu,"
        " \"wall_ms\": %.3f, \"mips\": %.2f, \"stop\": \"%s\"",
        safespec::experiment::json_escape(c.workload).c_str(),
        c.policy.c_str(), c.preset.c_str(), c.mode.c_str(), c.cores,
        static_cast<unsigned long long>(r.committed_all_cores),
        static_cast<unsigned long long>(r.cycles), results[i].wall_ms,
        results[i].mips(), safespec::cpu::to_string(r.stop));
    if (c.mode.rfind("sampled", 0) == 0) {
      std::fprintf(f, ", \"windows\": %llu, \"ipc\": %.4f, \"ipc_ci95\": %.4f",
                   static_cast<unsigned long long>(r.sampling.windows), r.ipc,
                   r.sampling.ipc_ci95);
    }
    std::fprintf(f, "}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"aggregate\": {\"total_instrs\": %llu,"
               " \"total_wall_ms\": %.3f, \"mips\": %.2f}\n}\n",
               static_cast<unsigned long long>(total_instrs), total_ms,
               aggregate_mips(total_instrs, total_ms));
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace safespec;

  std::uint64_t instrs = 200'000;
  int repeat = 1;
  std::string out_path = "BENCH_sim_throughput.json";
  std::vector<CellName> names = experiment::default_perf_cells();
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
             [&names](const char* value) { names = parse_cells(value); })
      .repeated("--set", &overrides)
      .u64("--ff-interval", &sampling.fast_forward_interval)
      .u64("--warmup", &sampling.warmup_instrs)
      .u64("--detail", &sampling.detail_instrs);
  flags.parse(argc, argv);

  if (sampling.fast_forward_interval == 0) {
    sampling.fast_forward_interval = std::max<std::uint64_t>(instrs / 10, 1);
  }
  // Aggressive schedule: one gap spans half the budget, so almost
  // everything fast-forwards — the sampling-throughput asymptote.
  sim::SamplingSpec fast;
  fast.fast_forward_interval = std::max<std::uint64_t>(instrs / 2, 1);
  fast.warmup_instrs = 1'000;
  fast.detail_instrs = 5'000;
  try {
    experiment::check_instrs(instrs, "--instrs");
    sampling.validate();
    // Each cell's mode decides its schedule, so a sampling.* override
    // would be silently replaced.
    for (const std::string& kv : overrides) {
      if (kv.rfind("sampling.", 0) == 0) {
        throw std::invalid_argument(
            "--set=" + kv +
            ": perf_driver sets the sampling schedule per cell mode; use "
            "--ff-interval, --warmup and --detail");
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  // Resolve every cell eagerly so a typo fails before any run.
  std::vector<experiment::Cell> cells;
  for (const CellName& name : names) {
    try {
      cells.push_back(experiment::resolve_cell(
          name, overrides, instrs,
          name.mode == "sampled"        ? sampling
          : name.mode == "sampled-fast" ? fast
                                        : sim::SamplingSpec{}));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bad cell %s: %s\n", name.key().c_str(),
                   e.what());
      return 2;
    }
  }

  std::vector<CellResult> results;
  std::uint64_t total_instrs = 0;
  double total_ms = 0.0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellName& cell = names[i];
    // Inputs only a run can check (a trace:PATH file that is missing or
    // malformed) fail here, after the eager checks above.
    try {
      results.push_back(measure(cell, cells[i], repeat));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bad cell %s: %s\n", cell.key().c_str(),
                   e.what());
      return 2;
    }
    const CellResult& m = results.back();
    const sim::SimResult& r = m.result;
    const bool full_budget = r.stop == cpu::StopReason::kMaxInstrs;
    const std::string mode_col =
        cell.cores > 1 ? cell.mode + "/c" + std::to_string(cell.cores)
                       : cell.mode;
    std::printf("perf: %-16s %-9s %-8s %-12s %9llu instrs %8llu Kcycles "
                "%8.1f ms %7.2f MIPS%s%s",
                cell.workload.c_str(), cell.policy.c_str(),
                cell.preset.c_str(), mode_col.c_str(),
                static_cast<unsigned long long>(r.committed_all_cores),
                static_cast<unsigned long long>(r.cycles / 1000),
                m.wall_ms, m.mips(), full_budget ? "" : " stop=",
                full_budget ? "" : cpu::to_string(r.stop));
    if (cell.mode.rfind("sampled", 0) == 0) {
      std::printf(" (%llu windows, ipc %.3f +/- %.3f)",
                  static_cast<unsigned long long>(r.sampling.windows), r.ipc,
                  r.sampling.ipc_ci95);
    }
    std::printf("\n");
    total_instrs += r.committed_all_cores;
    total_ms += m.wall_ms;
  }

  std::printf("perf: aggregate %llu instrs in %.1f ms -> %.2f MIPS "
              "(%zu cells, repeat=%d)\n",
              static_cast<unsigned long long>(total_instrs), total_ms,
              aggregate_mips(total_instrs, total_ms), results.size(), repeat);

  if (out_path != "-") {
    write_json(out_path, instrs, repeat, results, total_instrs, total_ms);
  }
  return 0;
}
