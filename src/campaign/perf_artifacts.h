// Shared loader for BENCH_sim_throughput.json perf artifacts.
//
// perf_driver writes them, perf_compare gates on a base/head pair, and
// the campaign trend report plots a whole directory of them. The cell
// schema lives here once; a cell's name and key are an
// experiment::CellName, the grammar perf_driver's --cells parses, so the
// tools can never drift apart on what a cell is called.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "experiment/experiment.h"

namespace safespec::campaign {

/// One perf-grid cell as stored in the artifact: its name (key() is the
/// match key) and measurements.
struct PerfCell : experiment::CellName {
  std::uint64_t committed_instrs = 0;
  std::uint64_t cycles = 0;
  double wall_ms = 0.0;
  double mips = 0.0;
};

/// One whole artifact.
struct PerfRun {
  std::string path;
  std::string label;  ///< file basename without ".json"
  std::uint64_t instrs_per_cell = 0;
  int repeat = 1;
  double aggregate_mips = 0.0;
  std::vector<PerfCell> cells;
};

/// Loads one artifact's cells. Throws std::invalid_argument on a file
/// without a "cells" array or with a malformed cell (schema drift must
/// report, not crash).
std::vector<PerfCell> load_perf_cells(const std::string& path);

/// Loads one artifact with its metadata; aggregate MIPS comes from the
/// "aggregate" object when present, else is recomputed from the cells.
PerfRun load_perf_file(const std::string& path);

/// Loads every "*.json" in `dir` that looks like a perf artifact (has a
/// "cells" array), sorted by filename — the trend's x axis. Files
/// without a "cells" array are skipped (artifact directories mix in
/// other JSON); malformed cells in a perf artifact still throw.
std::vector<PerfRun> load_perf_dir(const std::string& dir);

}  // namespace safespec::campaign
