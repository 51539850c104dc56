// Declarative experiment engine: every figure/table bench is a sweep of
// workload profiles across named core-configuration variants. The bench
// declares the grid (ExperimentSpec), the engine expands it into
// independent cells, runs them on a thread pool (ParallelRunner — one
// Simulator per cell, nothing shared, results in stable cell order so
// output is bitwise identical regardless of thread count), and the bench
// renders rows through ResultTable (aligned text, CSV, JSON).
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/cli.h"
#include "cpu/core.h"
#include "experiment/row_sink.h"
#include "sim/machine.h"
#include "sim/simulator.h"
#include "workloads/workload.h"

namespace safespec::experiment {

/// Committed-instruction budget per cell (formerly bench_util.h). Large
/// enough that the occupancy/miss-rate distributions stabilise, small
/// enough that the whole 22-benchmark sweep stays interactive.
inline constexpr std::uint64_t kInstrsPerRun = 60'000;

/// The largest committed-instruction budget any run accepts: a cell's
/// cycle budget (workloads::cycle_budget) stays far from wrapping.
inline constexpr std::uint64_t kMaxInstrs = 1'000'000'000;

// ---- spec -------------------------------------------------------------------

/// One point on the configuration axis: a display name plus the fully
/// built CoreConfig it stands for.
struct ConfigVariant {
  std::string name;
  cpu::CoreConfig config;
};

/// `base` with the named protection policy selected, under the policy
/// name as display name; `mutate` applies any further CoreConfig edits.
/// Throws std::out_of_range (listing the registered policies) on an
/// unknown name.
ConfigVariant named_variant(
    const sim::MachineSpec& base, const std::string& policy_name,
    const std::function<void(cpu::CoreConfig&)>& mutate = nullptr);

/// A fully-resolved grid cell: one workload under one variant. Each
/// cell is deterministic in isolation — workload generation seeds from
/// `profile.seed` — so results are independent of which thread runs
/// which cell.
struct Cell {
  std::size_t index = 0;        ///< position in expansion order
  std::size_t profile_index = 0;
  std::size_t variant_index = 0;
  workloads::WorkloadProfile profile;
  cpu::CoreConfig config;
  std::uint64_t instrs = kInstrsPerRun;
  /// Sampled-simulation schedule, copied from the spec's base machine
  /// (disabled by default — cells then run fully detailed, bit-identical
  /// to the pre-sampling engine).
  sim::SamplingSpec sampling;
};

/// One cell: `profile` on `machine` under `config`, a variant of
/// machine.core (usually named_variant(machine, policy).config). The
/// machine's trace rides on the profile ("@" round-trips the profile's
/// own synthetic image through the trace codec; profile names stay the
/// row labels) and its sampling schedule on the cell.
Cell make_cell(workloads::WorkloadProfile profile,
               const sim::MachineSpec& machine, cpu::CoreConfig config,
               std::uint64_t instrs);

// ---- cell names -------------------------------------------------------------

/// The one spelling of a perf-grid cell, "workload/policy/preset" with
/// "/mode" and "/cores=N" appended when not the default. perf_driver's
/// --cells items, the perf artifacts' cell keys and perf_compare's
/// matching all use it. Modes: detailed (the cycle-level core only),
/// sampled and sampled-fast (run_sampled under two schedules) and
/// functional (the bare FunctionalEngine). cores=N runs N cores sharing
/// the L2/L3, each on the workload's private copy (detailed mode only).
struct CellName {
  std::string workload;
  std::string policy;
  std::string preset;
  std::string mode = "detailed";
  int cores = 1;

  /// Parses "workload/policy/preset[/mode][/cores=N]" from the right: a
  /// trailing cores=N and a trailing mode (each at most once, in either
  /// order) come off first, then the preset and the policy, and the rest
  /// is the workload. A workload may so contain '/', as in
  /// "trace:/abs/dir/x.sstr/WFC/skylake". Throws std::invalid_argument
  /// naming the item.
  static CellName parse(const std::string& text);
  /// The inverse of parse(). The optional parts appear only when not the
  /// default, so keys from artifacts older than the mode and cores axes
  /// keep matching.
  std::string key() const;

  bool operator==(const CellName& other) const;
};

/// perf_driver's default grid (the perf signal's 20 cells).
std::vector<CellName> default_perf_cells();

// ---- resolver ---------------------------------------------------------------

/// Throws std::invalid_argument ("WHAT must be in [1, 1000000000]")
/// unless `instrs` is a budget a run accepts.
void check_instrs(std::uint64_t instrs, const std::string& what);

/// `machine` with each "key=value" override applied in order, then
/// validated. A trace file it names is read once here, so a bad path
/// fails before any cell runs ("@" is the in-memory round trip and reads
/// no file). Throws on bad input.
sim::MachineSpec resolve_machine(sim::MachineSpec machine,
                                 const std::vector<std::string>& overrides);

/// A named cell resolved against the registries: the workload profile,
/// the preset under `overrides` with the cell's core count and `sampling`
/// (the mode's schedule; disabled for detailed and functional cells),
/// checked by resolve_machine, and the policy. Throws naming the problem.
Cell resolve_cell(const CellName& name,
                  const std::vector<std::string>& overrides,
                  std::uint64_t instrs, const sim::SamplingSpec& sampling = {});

/// Declarative sweep grid: profiles x variants. Expansion is
/// profile-major (all variants of one benchmark adjacent), the row order
/// every figure prints.
class ExperimentSpec {
 public:
  /// All 22 SPEC2017-like profiles in paper order.
  ExperimentSpec& all_spec_profiles();
  /// Subset by name (throws std::out_of_range on an unknown name).
  ExperimentSpec& profile_names(const std::vector<std::string>& names);

  /// Base machine every subsequent policy() variant derives from
  /// (default: the "skylake" preset). Benches pass resolve_machine(opts)
  /// here so --config / --set reshape the whole sweep.
  ExperimentSpec& base_machine(sim::MachineSpec machine);

  ExperimentSpec& variant(ConfigVariant v);
  /// Shorthand for variant(named_variant(base machine, name, mutate)):
  /// one point on the configuration axis, selected by registry name.
  ExperimentSpec& policy(
      const std::string& name,
      const std::function<void(cpu::CoreConfig&)>& mutate = nullptr);

  ExperimentSpec& instrs(std::uint64_t n);

  const std::vector<workloads::WorkloadProfile>& profile_axis() const {
    return profiles_;
  }
  const std::vector<ConfigVariant>& variant_axis() const { return variants_; }
  std::uint64_t instrs_per_cell() const { return instrs_; }

  /// Expands the grid into cells in stable order: profile-major, variant
  /// within profile, `index` dense from 0.
  std::vector<Cell> expand() const;

 private:
  sim::MachineSpec base_ = sim::machine_preset("skylake");
  std::vector<workloads::WorkloadProfile> profiles_;
  std::vector<ConfigVariant> variants_;
  std::uint64_t instrs_ = kInstrsPerRun;
};

// ---- runner -----------------------------------------------------------------

/// Results of a grid sweep, indexed by the spec's two axes.
class SweepResult {
 public:
  SweepResult(std::size_t num_profiles, std::size_t num_variants,
              std::vector<sim::SimResult> results,
              std::vector<std::string> variant_names = {})
      : num_profiles_(num_profiles),
        num_variants_(num_variants),
        results_(std::move(results)),
        variant_names_(std::move(variant_names)) {}

  const sim::SimResult& at(std::size_t profile, std::size_t variant) const {
    return results_[profile * num_variants_ + variant];
  }
  const std::vector<sim::SimResult>& flat() const { return results_; }
  std::size_t num_profiles() const { return num_profiles_; }
  std::size_t num_variants() const { return num_variants_; }

  /// "" when every cell of the profile's row converged (halted or
  /// reached its instruction budget); otherwise space-joined
  /// "variant:stop-reason" fragments for the cells that did not — row
  /// annotations making non-converged cells visible in every sink.
  std::string stop_note(std::size_t profile) const;

 private:
  std::size_t num_profiles_;
  std::size_t num_variants_;
  std::vector<sim::SimResult> results_;
  std::vector<std::string> variant_names_;
};

/// Thread-pool sweep executor. Each cell constructs its own Simulator
/// (own Program / MainMemory / PageTable — cells share nothing), so runs
/// are embarrassingly parallel; results land in a pre-sized vector at the
/// cell's index, making output order (and content — generation is seeded
/// per cell) independent of thread count.
class ParallelRunner {
 public:
  /// threads == 0 picks std::thread::hardware_concurrency().
  explicit ParallelRunner(int threads = 0);

  int threads() const { return threads_; }

  /// Runs every cell of the spec; results in expansion order.
  SweepResult run(const ExperimentSpec& spec) const;

  /// Generic stable-order parallel map: invokes fn(i) for i in [0, n)
  /// across the pool. Used by benches whose work items are not simulator
  /// cells (attack suites, model sweeps).
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& fn) const;

 private:
  int threads_;
};

/// Builds a cell's machine, its program generated and mapped: the half
/// of run_cell that a throughput measurement leaves untimed.
std::unique_ptr<sim::Simulator> build_cell(const Cell& cell);

/// Runs a machine that build_cell(cell) built: cell.instrs committed
/// instructions under the cell's sampling schedule, within
/// workloads::cycle_budget(cell.instrs).
sim::SimResult run_built_cell(const Cell& cell, sim::Simulator& sim);

/// Runs one cell synchronously (the unit of work a pool thread
/// executes): build_cell, then run_built_cell.
sim::SimResult run_cell(const Cell& cell);

// ---- result table -----------------------------------------------------------

/// Row/column sink for one figure or table. Renders the paper's aligned
/// text layout (12-wide name column, 12-wide right-aligned cells — the
/// format every bench printed by hand before) and can re-emit the same
/// rows as CSV or JSON for the bench trajectory.
class ResultTable {
 public:
  ResultTable(std::string title, std::vector<std::string> columns);

  /// Appends one row; each value is formatted with `format` (a printf
  /// conversion for one double, default "%12.4f").
  void add_row(const std::string& name, const std::vector<double>& values,
               const char* format = "%12.4f");
  /// Appends a row with some cells blank (e.g. Fig 11's GeoMean row shows
  /// only the last column). std::nullopt renders as an empty cell.
  void add_partial_row(const std::string& name,
                       const std::vector<std::optional<double>>& values,
                       const char* format = "%12.4f");

  /// Attaches a note to the most recently added row (no-op on "").
  /// Benches feed SweepResult::stop_note() here so a cell that hit the
  /// cycle budget or faulted is flagged in text, CSV and JSON output.
  void annotate_last_row(const std::string& note);

  const std::string& title() const { return title_; }
  std::size_t num_rows() const { return rows_.size(); }

  /// Streams the table through any RowSink (begin_table, rows,
  /// end_table) — the one emission path all the sinks below share.
  void emit(RowSink& sink) const;

  /// Aligned text, exactly the layout bench_util.h used to print.
  /// (emit through a TextTableSink.)
  void print(std::FILE* out = stdout) const;
  /// CSV section: `table,benchmark,<columns...>` header then one line per
  /// row (full-precision values, blanks for missing cells). (CsvSink.)
  void append_csv(std::FILE* out) const;
  /// JSON objects {"table":..., "row":..., "<column>": value, ...}
  /// appended to `items` (the CLI helper wraps them in one array).
  /// (JsonItemsSink.)
  void append_json(std::vector<std::string>& items) const;

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<TableRow> rows_;
};

// ---- CLI --------------------------------------------------------------------

/// The shared flag family lives in common/cli.h now (every tool sits on
/// cli::FlagSet); these aliases keep bench call sites unchanged.
using BenchOptions = cli::BenchOptions;

/// Parses the shared flags; prints usage and exits on --help or an
/// unknown --flag. Positional arguments pass through untouched.
inline BenchOptions parse_bench_args(int argc, char** argv,
                                     const char* extra_usage = nullptr) {
  return cli::parse_bench_args(argc, argv, extra_usage, kInstrsPerRun);
}

/// The machine the options describe: resolve_machine() of --config's
/// JSON file (default: the "skylake" preset) under the --set overrides,
/// with --instrs checked too. Prints the problem and exits(2) on bad
/// input — benches call this once, right after parse_bench_args.
sim::MachineSpec resolve_machine(const BenchOptions& options);

/// Writes every table once to each requested sink: aligned text to
/// stdout, plus CSV/JSON files when the options ask for them.
void emit_tables(const std::vector<const ResultTable*>& tables,
                 const BenchOptions& options);

/// File sinks only (benches that interleave tables with prose print the
/// text themselves and call this at the end).
void write_files(const std::vector<const ResultTable*>& tables,
                 const BenchOptions& options);

}  // namespace safespec::experiment
