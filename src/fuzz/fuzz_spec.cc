#include "fuzz/fuzz_spec.h"

#include <algorithm>
#include <initializer_list>
#include <stdexcept>
#include <string>

#include "common/json.h"
#include "common/types.h"

namespace safespec::fuzz {

void FuzzSpec::validate() const {
  const struct {
    const char* name;
    double value;
  } nonnegative[] = {
      {"weights.branch_heavy", weights.branch_heavy},
      {"weights.pointer_chase", weights.pointer_chase},
      {"weights.protected_window", weights.protected_window},
      {"weights.self_confusing", weights.self_confusing},
      {"weights.mixed_compute", weights.mixed_compute},
      {"weights.mem_storm", weights.mem_storm},
      {"fault_frac", fault_frac},
  };
  for (const auto& field : nonnegative) {
    // Negated form so NaN (for which every comparison is false) is
    // rejected rather than slipping through.
    if (!(field.value >= 0.0)) {
      throw std::invalid_argument(std::string(field.name) +
                                  " must be non-negative");
    }
  }
  if (weights.total() <= 0.0) {
    throw std::invalid_argument("all scenario weights are zero");
  }
  if (fault_frac > 1.0) {
    throw std::invalid_argument("fault_frac is a probability (at most 1.0)");
  }
  if (min_blocks <= 0 || max_blocks < min_blocks) {
    throw std::invalid_argument("block range must satisfy 0 < min <= max");
  }
  if (loop_iterations <= 0) {
    throw std::invalid_argument("loop_iterations must be positive");
  }
  if (data_bytes < 2 * kPageSize) {
    throw std::invalid_argument("data_bytes must be at least two pages");
  }
  // The generator lays data+chase and kernel regions out at fixed bases
  // 256 MiB apart; keep the data region comfortably inside that gap.
  if (data_bytes > 64 * 1024 * 1024) {
    throw std::invalid_argument("data_bytes must be at most 64 MiB");
  }
  if (kernel_bytes == 0 || kernel_bytes % kPageSize != 0 ||
      kernel_bytes > 64 * 1024 * 1024) {
    throw std::invalid_argument(
        "kernel_bytes must be a positive page multiple of at most 64 MiB");
  }
}

std::string FuzzSpec::to_json() const {
  json::Writer w;
  w.open();
  w.open("weights");
  w.field("branch_heavy", weights.branch_heavy);
  w.field("pointer_chase", weights.pointer_chase);
  w.field("protected_window", weights.protected_window);
  w.field("self_confusing", weights.self_confusing);
  w.field("mixed_compute", weights.mixed_compute);
  w.field("mem_storm", weights.mem_storm);
  w.close();
  w.field("min_blocks", min_blocks);
  w.field("max_blocks", max_blocks);
  w.field("loop_iterations", loop_iterations);
  w.field("data_bytes", data_bytes);
  w.field("kernel_bytes", kernel_bytes);
  w.field("fault_frac", fault_frac);
  w.field("install_fault_handler", install_fault_handler);
  w.close();
  std::string out = w.take();
  out += '\n';
  return out;
}

namespace {

/// Throws when `obj` has a member not named in `known`, naming its dotted
/// path: a misspelt key would otherwise leave its field at the default.
void reject_unknown_keys(const json::Value& obj, const std::string& prefix,
                         std::initializer_list<const char*> known) {
  for (const auto& member : obj.object) {
    const std::string& key = member.first;
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      throw std::invalid_argument("unknown fuzz-spec key \"" + prefix + key +
                                  "\" (see FuzzSpec in src/fuzz/fuzz_spec.h)");
    }
  }
}

}  // namespace

FuzzSpec FuzzSpec::from_json(const std::string& text) {
  const json::Value doc = json::parse(text);
  if (doc.kind != json::Value::Kind::kObject) {
    throw std::invalid_argument("fuzz spec must be a JSON object");
  }
  reject_unknown_keys(doc, "",
                      {"weights", "min_blocks", "max_blocks",
                       "loop_iterations", "data_bytes", "kernel_bytes",
                       "fault_frac", "install_fault_handler"});
  // Unlisted fields keep their defaults, so a spec file only needs the
  // deltas it cares about.
  FuzzSpec spec;
  if (const json::Value* w = doc.find("weights")) {
    if (w->kind != json::Value::Kind::kObject) {
      throw std::invalid_argument("weights must be a JSON object");
    }
    reject_unknown_keys(*w, "weights.",
                        {"branch_heavy", "pointer_chase", "protected_window",
                         "self_confusing", "mixed_compute", "mem_storm"});
    json::read_double(*w, "branch_heavy", spec.weights.branch_heavy);
    json::read_double(*w, "pointer_chase", spec.weights.pointer_chase);
    json::read_double(*w, "protected_window", spec.weights.protected_window);
    json::read_double(*w, "self_confusing", spec.weights.self_confusing);
    json::read_double(*w, "mixed_compute", spec.weights.mixed_compute);
    json::read_double(*w, "mem_storm", spec.weights.mem_storm);
  }
  json::read_int(doc, "min_blocks", spec.min_blocks);
  json::read_int(doc, "max_blocks", spec.max_blocks);
  json::read_int(doc, "loop_iterations", spec.loop_iterations);
  json::read_u64(doc, "data_bytes", spec.data_bytes);
  json::read_u64(doc, "kernel_bytes", spec.kernel_bytes);
  json::read_double(doc, "fault_frac", spec.fault_frac);
  json::read_bool(doc, "install_fault_handler", spec.install_fault_handler);
  spec.validate();
  return spec;
}

FuzzSpec FuzzSpec::from_json_file(const std::string& path) {
  return from_json(json::read_file(path, "fuzz spec"));
}

}  // namespace safespec::fuzz
