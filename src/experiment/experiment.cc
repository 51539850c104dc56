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

ConfigVariant policy_variant(
    shadow::CommitPolicy policy,
    const std::function<void(cpu::CoreConfig&)>& mutate) {
  return named_variant(sim::machine_preset("skylake"),
                       shadow::to_string(policy), mutate);
}

ExperimentSpec& ExperimentSpec::profiles(
    std::vector<workloads::WorkloadProfile> p) {
  profiles_ = std::move(p);
  return *this;
}

ExperimentSpec& ExperimentSpec::all_spec_profiles() {
  return profiles(workloads::spec2017_profiles());
}

ExperimentSpec& ExperimentSpec::profile_names(
    const std::vector<std::string>& names) {
  std::vector<workloads::WorkloadProfile> selected;
  selected.reserve(names.size());
  for (const auto& name : names) {
    selected.push_back(workloads::profile_by_name(name));
  }
  return profiles(std::move(selected));
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

ExperimentSpec& ExperimentSpec::policy(
    shadow::CommitPolicy p,
    const std::function<void(cpu::CoreConfig&)>& mutate) {
  return policy(std::string(shadow::to_string(p)), mutate);
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
      Cell cell;
      cell.index = cells.size();
      cell.profile_index = p;
      cell.variant_index = v;
      cell.profile = profiles_[p];
      cell.config = variants_[v].config;
      cell.instrs = instrs_;
      cell.sampling = base_.sampling;
      // The machine's trace axis rides on every cell's profile (profile
      // names stay the row labels; "@" round-trips each cell's own
      // synthetic image through the trace codec).
      if (!base_.trace.empty()) cell.profile.trace_file = base_.trace;
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

// ---- runner -----------------------------------------------------------------

sim::SimResult run_cell(const Cell& cell) {
  return workloads::run_workload(cell.profile, cell.config, cell.instrs,
                                 cell.sampling);
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

std::vector<sim::SimResult> ParallelRunner::run_cells(
    const std::vector<Cell>& cells) const {
  std::vector<sim::SimResult> results(cells.size());
  parallel_for(cells.size(),
               [&](std::size_t i) { results[i] = run_cell(cells[i]); });
  return results;
}

SweepResult ParallelRunner::run(const ExperimentSpec& spec) const {
  std::vector<std::string> variant_names;
  variant_names.reserve(spec.variant_axis().size());
  for (const auto& v : spec.variant_axis()) variant_names.push_back(v.name);
  return SweepResult(spec.profile_axis().size(), spec.variant_axis().size(),
                     run_cells(spec.expand()), std::move(variant_names));
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
  Row row;
  row.name = name;
  for (double v : values) row.cells.push_back({format_value(v, format), v});
  rows_.push_back(std::move(row));
}

void ResultTable::add_partial_row(
    const std::string& name, const std::vector<std::optional<double>>& values,
    const char* format) {
  Row row;
  row.name = name;
  for (const auto& v : values) {
    if (v) {
      row.cells.push_back({format_value(*v, format), v});
    } else {
      row.cells.push_back({std::string(12, ' '), std::nullopt});
    }
  }
  rows_.push_back(std::move(row));
}

void ResultTable::annotate_last_row(const std::string& note) {
  if (note.empty() || rows_.empty()) return;
  rows_.back().note = note;
}

bool ResultTable::any_note() const {
  for (const auto& row : rows_) {
    if (!row.note.empty()) return true;
  }
  return false;
}

void ResultTable::emit(RowSink& sink) const {
  sink.begin_table(title_, columns_, any_note());
  for (const auto& row : rows_) {
    TableRow out;
    out.name = row.name;
    out.texts.reserve(row.cells.size());
    out.values.reserve(row.cells.size());
    for (const auto& cell : row.cells) {
      out.texts.push_back(cell.text);
      out.values.push_back(cell.value);
    }
    out.note = row.note;
    sink.row(out);
  }
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
    sim::MachineSpec spec =
        options.config_path.empty()
            ? sim::machine_preset("skylake")
            : sim::MachineSpec::from_json_file(options.config_path);
    for (const auto& kv : options.overrides) spec.set(kv);
    spec.validate();
    // A trace file is read here once, so a bad path fails before any
    // cell runs ("@" is the in-memory round-trip and reads no file).
    if (!spec.trace.empty() && spec.trace != "@") {
      try {
        trace::read_trace_file(spec.trace);
      } catch (const std::exception& e) {
        throw std::runtime_error("trace \"" + spec.trace +
                                 "\" could not be loaded: " + e.what());
      }
    }
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
