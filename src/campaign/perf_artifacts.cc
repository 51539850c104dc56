#include "campaign/perf_artifacts.h"

#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "common/json.h"

namespace safespec::campaign {

namespace {

/// Member lookup that treats absence as malformed input, so a schema
/// drift between perf_driver versions reports instead of crashing.
const json::Value& require(const json::Value& obj, const char* key,
                           const std::string& path) {
  const json::Value* v = obj.find(key);
  if (v == nullptr) {
    throw std::invalid_argument(path + ": cell missing \"" + key + "\"");
  }
  return *v;
}

std::vector<PerfCell> cells_of(const json::Value& doc,
                               const std::string& path) {
  const json::Value* cells = doc.find("cells");
  if (cells == nullptr || cells->kind != json::Value::Kind::kArray) {
    throw std::invalid_argument(path + ": no \"cells\" array");
  }
  std::vector<PerfCell> out;
  out.reserve(cells->array.size());
  for (const json::Value& v : cells->array) {
    PerfCell c;
    c.workload = require(v, "workload", path).text;
    c.policy = require(v, "policy", path).text;
    c.preset = require(v, "preset", path).text;
    // Optional: artifacts from before the mode/cores axes have no such
    // members; they are all detailed single-core cells.
    if (const json::Value* mode = v.find("mode")) c.mode = mode->text;
    if (const json::Value* cores = v.find("cores")) {
      c.cores = json::as_int(*cores, "cores");
    }
    c.committed_instrs =
        json::as_u64(require(v, "committed_instrs", path), "committed_instrs");
    c.cycles = json::as_u64(require(v, "cycles", path), "cycles");
    c.wall_ms = json::as_double(require(v, "wall_ms", path), "wall_ms");
    c.mips = json::as_double(require(v, "mips", path), "mips");
    out.push_back(std::move(c));
  }
  return out;
}

}  // namespace

std::vector<PerfCell> load_perf_cells(const std::string& path) {
  return cells_of(json::parse_file(path), path);
}

PerfRun load_perf_file(const std::string& path) {
  const json::Value doc = json::parse_file(path);
  PerfRun run;
  run.path = path;
  run.label = std::filesystem::path(path).stem().string();
  run.cells = cells_of(doc, path);
  json::read_u64(doc, "instrs_per_cell", run.instrs_per_cell);
  json::read_int(doc, "repeat", run.repeat);
  if (const json::Value* aggregate = doc.find("aggregate")) {
    json::read_double(*aggregate, "mips", run.aggregate_mips);
  } else {
    std::uint64_t instrs = 0;
    double ms = 0.0;
    for (const PerfCell& c : run.cells) {
      instrs += c.committed_instrs;
      ms += c.wall_ms;
    }
    run.aggregate_mips =
        ms <= 0.0 ? 0.0 : static_cast<double>(instrs) / (ms * 1e3);
  }
  return run;
}

std::vector<PerfRun> load_perf_dir(const std::string& dir) {
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().extension() != ".json") continue;
    paths.push_back(entry.path().string());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<PerfRun> runs;
  for (const std::string& path : paths) {
    const json::Value doc = json::parse_file(path);
    if (doc.find("cells") == nullptr) continue;  // some other JSON
    runs.push_back(load_perf_file(path));
  }
  return runs;
}

}  // namespace safespec::campaign
