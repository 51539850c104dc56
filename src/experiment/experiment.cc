#include "experiment/experiment.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "common/json.h"
#include "trace/trace.h"
#include "workloads/runner.h"

namespace safespec::experiment {

// ---- spec -------------------------------------------------------------------

ConfigVariant named_variant(
    const sim::MachineSpec& base, const std::string& policy_name,
    const std::function<void(cpu::CoreConfig&)>& mutate) {
  policy::named_policy(policy_name);  // throws with the registered list
  ConfigVariant v{policy_name, base.core};
  v.config.policy = policy_name;
  if (mutate) mutate(v.config);
  return v;
}

Cell make_cell(workloads::WorkloadProfile profile,
               const sim::MachineSpec& machine, cpu::CoreConfig config,
               std::uint64_t instrs) {
  Cell cell;
  cell.profile = std::move(profile);
  if (!machine.trace.empty()) cell.profile.trace_file = machine.trace;
  cell.config = std::move(config);
  cell.instrs = instrs;
  cell.sampling = machine.sampling;
  return cell;
}

// ---- cell names -------------------------------------------------------------

namespace {

bool is_mode(const std::string& token) {
  return token == "detailed" || token == "sampled" ||
         token == "sampled-fast" || token == "functional";
}

}  // namespace

CellName CellName::parse(const std::string& text) {
  const auto bad = [&text](const std::string& why) {
    return std::invalid_argument("--cells item '" + text + "': " + why);
  };
  std::string rest = text;
  // Takes the last '/'-separated field off `rest`.
  const auto pop = [&rest] {
    const std::size_t slash = rest.rfind('/');
    std::string field = rest.substr(slash == std::string::npos ? 0 : slash + 1);
    rest.resize(slash == std::string::npos ? 0 : slash);
    return field;
  };
  CellName name;
  std::string field = pop();
  for (bool have_mode = false, have_cores = false;; field = pop()) {
    if (field.rfind("cores=", 0) == 0) {
      if (have_cores) throw bad("cores= given twice");
      have_cores = true;
      try {
        name.cores = json::parse_int(field.substr(6), "--cells cores");
      } catch (const std::exception& e) {
        throw bad(e.what());
      }
    } else if (is_mode(field)) {
      if (have_mode) throw bad("mode given twice");
      have_mode = true;
      name.mode = field;
    } else {
      break;
    }
  }
  name.preset = field;
  name.policy = pop();
  name.workload = rest;
  if (name.workload.empty() || name.policy.empty() || name.preset.empty()) {
    throw bad("not workload/policy/preset[/mode][/cores=N]");
  }
  return name;
}

std::string CellName::key() const {
  std::string k = workload + "/" + policy + "/" + preset;
  if (mode != "detailed") k += "/" + mode;
  if (cores != 1) k += "/cores=" + std::to_string(cores);
  return k;
}

bool CellName::operator==(const CellName& other) const {
  return workload == other.workload && policy == other.policy &&
         preset == other.preset && mode == other.mode &&
         cores == other.cores;
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
std::vector<CellName> default_perf_cells() {
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

// ---- resolver ---------------------------------------------------------------

void check_instrs(std::uint64_t instrs, const std::string& what) {
  if (instrs < 1 || instrs > kMaxInstrs) {
    throw std::invalid_argument(what + " must be in [1, " +
                                std::to_string(kMaxInstrs) + "]");
  }
}

sim::MachineSpec resolve_machine(sim::MachineSpec machine,
                                 const std::vector<std::string>& overrides) {
  for (const std::string& kv : overrides) machine.set(kv);
  machine.validate();
  if (!machine.trace.empty() && machine.trace != "@") {
    try {
      trace::read_trace_file(machine.trace);
    } catch (const std::exception& e) {
      throw std::runtime_error("trace \"" + machine.trace +
                               "\" could not be loaded: " + e.what());
    }
  }
  return machine;
}

Cell resolve_cell(const CellName& name,
                  const std::vector<std::string>& overrides,
                  std::uint64_t instrs, const sim::SamplingSpec& sampling) {
  if (!is_mode(name.mode)) {
    throw std::invalid_argument("unknown mode '" + name.mode +
                                "' (detailed, sampled, sampled-fast, "
                                "functional)");
  }
  if (name.cores > 1 && name.mode != "detailed") {
    throw std::invalid_argument("cores=" + std::to_string(name.cores) +
                                " needs detailed mode (sampled and "
                                "functional runs are single-core)");
  }
  sim::MachineSpec machine = sim::machine_preset(name.preset);
  for (const std::string& kv : overrides) machine.set(kv);
  machine.core.cores = name.cores;
  machine.sampling = sampling;
  machine = resolve_machine(std::move(machine), {});
  return make_cell(workloads::profile_by_name(name.workload), machine,
                   named_variant(machine, name.policy).config, instrs);
}

ExperimentSpec& ExperimentSpec::all_spec_profiles() {
  profiles_ = workloads::spec2017_profiles();
  return *this;
}

ExperimentSpec& ExperimentSpec::profile_names(
    const std::vector<std::string>& names) {
  std::vector<workloads::WorkloadProfile> selected;
  for (const auto& name : names) {
    selected.push_back(workloads::profile_by_name(name));
  }
  profiles_ = std::move(selected);
  return *this;
}

ExperimentSpec& ExperimentSpec::base_machine(sim::MachineSpec machine) {
  base_ = std::move(machine);
  return *this;
}

ExperimentSpec& ExperimentSpec::variant(ConfigVariant v) {
  variants_.push_back(std::move(v));
  return *this;
}

ExperimentSpec& ExperimentSpec::policy(
    const std::string& name,
    const std::function<void(cpu::CoreConfig&)>& mutate) {
  return variant(named_variant(base_, name, mutate));
}

ExperimentSpec& ExperimentSpec::instrs(std::uint64_t n) {
  instrs_ = n;
  return *this;
}

std::vector<Cell> ExperimentSpec::expand() const {
  std::vector<Cell> cells;
  cells.reserve(profiles_.size() * variants_.size());
  for (std::size_t p = 0; p < profiles_.size(); ++p) {
    for (std::size_t v = 0; v < variants_.size(); ++v) {
      Cell cell =
          make_cell(profiles_[p], base_, variants_[v].config, instrs_);
      cell.index = cells.size();
      cell.profile_index = p;
      cell.variant_index = v;
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

// ---- runner -----------------------------------------------------------------

std::unique_ptr<sim::Simulator> build_cell(const Cell& cell) {
  return workloads::make_workload_sim(cell.profile, cell.config, cell.instrs);
}

sim::SimResult run_built_cell(const Cell& cell, sim::Simulator& sim) {
  return sim.run_sampled(cell.sampling, workloads::cycle_budget(cell.instrs),
                         cell.instrs);
}

sim::SimResult run_cell(const Cell& cell) {
  return run_built_cell(cell, *build_cell(cell));
}

ParallelRunner::ParallelRunner(int threads) : threads_(threads) {
  if (threads_ <= 0) {
    threads_ = static_cast<int>(std::thread::hardware_concurrency());
    if (threads_ <= 0) threads_ = 1;
  }
}

void ParallelRunner::parallel_for(
    std::size_t n, const std::function<void(std::size_t)>& fn) const {
  const std::size_t workers =
      std::min<std::size_t>(static_cast<std::size_t>(threads_), n);
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t t = 0; t < workers; ++t) pool.emplace_back(worker);
  for (auto& thread : pool) thread.join();
  if (first_error) std::rethrow_exception(first_error);
}

SweepResult ParallelRunner::run(const ExperimentSpec& spec) const {
  const std::vector<Cell> cells = spec.expand();
  std::vector<sim::SimResult> results(cells.size());
  parallel_for(cells.size(),
               [&](std::size_t i) { results[i] = run_cell(cells[i]); });
  std::vector<std::string> variant_names;
  for (const auto& v : spec.variant_axis()) variant_names.push_back(v.name);
  return SweepResult(spec.profile_axis().size(), spec.variant_axis().size(),
                     std::move(results), std::move(variant_names));
}

std::string SweepResult::stop_note(std::size_t profile) const {
  std::string note;
  for (std::size_t v = 0; v < num_variants_; ++v) {
    const auto stop = at(profile, v).stop;
    if (stop == cpu::StopReason::kHalted ||
        stop == cpu::StopReason::kMaxInstrs) {
      continue;  // converged
    }
    if (!note.empty()) note += ' ';
    note += v < variant_names_.size() ? variant_names_[v]
                                      : "v" + std::to_string(v);
    note += ':';
    note += cpu::to_string(stop);
  }
  return note;
}

// ---- result table -----------------------------------------------------------

namespace {

std::string format_value(double value, const char* format) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

}  // namespace

ResultTable::ResultTable(std::string title, std::vector<std::string> columns)
    : title_(std::move(title)), columns_(std::move(columns)) {}

void ResultTable::add_row(const std::string& name,
                          const std::vector<double>& values,
                          const char* format) {
  add_partial_row(name, {values.begin(), values.end()}, format);
}

void ResultTable::add_partial_row(
    const std::string& name, const std::vector<std::optional<double>>& values,
    const char* format) {
  TableRow row;
  row.name = name;
  row.values = values;
  for (const auto& v : values) {
    row.texts.push_back(v ? format_value(*v, format) : std::string(12, ' '));
  }
  rows_.push_back(std::move(row));
}

void ResultTable::annotate_last_row(const std::string& note) {
  if (note.empty() || rows_.empty()) return;
  rows_.back().note = note;
}

void ResultTable::emit(RowSink& sink) const {
  const bool any_note =
      std::any_of(rows_.begin(), rows_.end(),
                  [](const TableRow& row) { return !row.note.empty(); });
  sink.begin_table(title_, columns_, any_note);
  for (const TableRow& row : rows_) sink.row(row);
  sink.end_table();
}

void ResultTable::print(std::FILE* out) const {
  TextTableSink sink(out);
  emit(sink);
}

void ResultTable::append_csv(std::FILE* out) const {
  CsvSink sink(out);
  emit(sink);
}

void ResultTable::append_json(std::vector<std::string>& items) const {
  JsonItemsSink sink(items);
  emit(sink);
}

// ---- CLI --------------------------------------------------------------------
// Flag parsing moved to common/cli.{h,cc}; what remains here is the
// experiment-specific half: resolving the machine and emitting tables.

sim::MachineSpec resolve_machine(const BenchOptions& options) {
  try {
    check_instrs(options.instrs, "--instrs");
    const sim::MachineSpec spec = resolve_machine(
        options.config_path.empty()
            ? sim::machine_preset("skylake")
            : sim::MachineSpec::from_json_file(options.config_path),
        options.overrides);
    if (!spec.regions.empty() || !spec.pokes.empty()) {
      // Workload sweeps generate their own address space per cell; only
      // MachineBuilder-driven runs honour a spec's memory map.
      std::fprintf(stderr,
                   "note: memory_map/pokes in the machine config are "
                   "ignored by workload sweeps\n");
    }
    return spec;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad machine configuration: %s\n", e.what());
    std::exit(2);
  }
}

void emit_tables(const std::vector<const ResultTable*>& tables,
                 const BenchOptions& options) {
  for (const ResultTable* table : tables) table->print(stdout);
  write_files(tables, options);
}

void write_files(const std::vector<const ResultTable*>& tables,
                 const BenchOptions& options) {
  if (!options.csv_path.empty()) {
    std::FILE* out = std::fopen(options.csv_path.c_str(), "w");
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   options.csv_path.c_str());
    } else {
      for (const ResultTable* table : tables) table->append_csv(out);
      std::fclose(out);
      std::fprintf(stderr, "wrote CSV to %s\n", options.csv_path.c_str());
    }
  }
  if (!options.json_path.empty()) {
    std::FILE* out = std::fopen(options.json_path.c_str(), "w");
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   options.json_path.c_str());
    } else {
      std::vector<std::string> items;
      for (const ResultTable* table : tables) table->append_json(items);
      std::fprintf(out, "[\n");
      for (std::size_t i = 0; i < items.size(); ++i) {
        std::fprintf(out, "  %s%s\n", items[i].c_str(),
                     i + 1 < items.size() ? "," : "");
      }
      std::fprintf(out, "]\n");
      std::fclose(out);
      std::fprintf(stderr, "wrote JSON to %s\n", options.json_path.c_str());
    }
  }
}

}  // namespace safespec::experiment
