#include "sim/machine.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/json.h"
#include "common/registry.h"
#include "safespec/policy.h"
#include "sim/sim_config.h"

namespace safespec::sim {

namespace {

// The JSON machinery (value type, parser, typed readers, writer) lives in
// common/json.h, shared with the fuzzing subsystem's FuzzSpec documents.
using Json = json::Value;
using JsonWriter = json::Writer;
using json::parse_u64;
using json::read_bool;
using json::read_int;
using json::read_string;
using json::read_u64;

/// Cycle is an alias of std::uint64_t; named reader kept for the call
/// sites that document the field as a latency.
void read_cycle(const Json& obj, const char* key, Cycle& out) {
  read_u64(obj, key, out);
}

shadow::FullPolicy parse_full_policy(const std::string& text) {
  if (text == "drop") return shadow::FullPolicy::kDrop;
  if (text == "stall") return shadow::FullPolicy::kStall;
  throw std::invalid_argument("unknown full_policy \"" + text +
                              "\" (expected drop or stall)");
}

predictor::DirectionKind parse_direction_kind(const std::string& text) {
  if (text == "bimodal") return predictor::DirectionKind::kBimodal;
  if (text == "gshare") return predictor::DirectionKind::kGshare;
  if (text == "perceptron") return predictor::DirectionKind::kPerceptron;
  throw std::invalid_argument("unknown predictor direction \"" + text +
                              "\" (expected bimodal, gshare or perceptron)");
}

const char* direction_kind_name(predictor::DirectionKind kind) {
  switch (kind) {
    case predictor::DirectionKind::kBimodal: return "bimodal";
    case predictor::DirectionKind::kGshare: return "gshare";
    case predictor::DirectionKind::kPerceptron: return "perceptron";
  }
  return "?";
}

void read_cache(const Json& parent, const char* key,
                memory::CacheConfig& cache) {
  if (const Json* v = parent.find(key)) {
    read_u64(*v, "size_bytes", cache.size_bytes);
    read_int(*v, "ways", cache.ways);
    read_int(*v, "line_bytes", cache.line_bytes);
    read_cycle(*v, "hit_latency", cache.hit_latency);
  }
}

void read_tlb(const Json& parent, const char* key, memory::TlbConfig& tlb) {
  if (const Json* v = parent.find(key)) {
    read_int(*v, "entries", tlb.entries);
    read_int(*v, "ways", tlb.ways);
  }
}

void read_shadow(const Json& parent, const char* key,
                 shadow::ShadowConfig& config) {
  if (const Json* v = parent.find(key)) {
    read_int(*v, "entries", config.entries);
    std::string full;
    read_string(*v, "full_policy", full);
    if (!full.empty()) config.full_policy = parse_full_policy(full);
  }
}

// ---- preset registry -------------------------------------------------------

/// Tables I and II: the 6-wide SkyLake-like core the paper evaluates
/// (formerly the body of skylake_config(), which now wraps this preset).
MachineSpec skylake_preset() {
  MachineSpec spec;
  spec.preset = "skylake";
  cpu::CoreConfig& c = spec.core;
  // Table I.
  c.issue_width = 6;
  c.fetch_width = 6;
  c.commit_width = 6;
  c.iq_entries = 96;
  c.rob_entries = 224;
  c.ldq_entries = 72;
  c.stq_entries = 56;
  c.itlb = {.name = "iTLB", .entries = 64, .ways = 4};
  c.dtlb = {.name = "dTLB", .entries = 64, .ways = 4};
  // Table II (line size 64 B everywhere).
  c.hierarchy.l1i = {.name = "L1I", .size_bytes = 32 * 1024, .ways = 8,
                     .line_bytes = 64, .hit_latency = 4};
  c.hierarchy.l1d = {.name = "L1D", .size_bytes = 32 * 1024, .ways = 8,
                     .line_bytes = 64, .hit_latency = 4};
  c.hierarchy.l2 = {.name = "L2", .size_bytes = 256 * 1024, .ways = 4,
                    .line_bytes = 64, .hit_latency = 12};
  c.hierarchy.l3 = {.name = "L3", .size_bytes = 2 * 1024 * 1024, .ways = 16,
                    .line_bytes = 64, .hit_latency = 44};
  c.hierarchy.memory_latency = 191;
  // SafeSpec: worst-case ("Secure") sizing, LDQ-/ROB-bound (§V).
  c.shadow_dcache = {.name = "shadow-dcache", .entries = c.ldq_entries};
  c.shadow_icache = {.name = "shadow-icache", .entries = c.rob_entries};
  c.shadow_dtlb = {.name = "shadow-dtlb", .entries = c.ldq_entries};
  c.shadow_itlb = {.name = "shadow-itlb", .entries = c.rob_entries};
  return spec;
}

/// A little 2-wide embedded-class core: shallow queues, small caches, a
/// bimodal predictor — the second preset the sweep axes can name. Shadow
/// structures keep the §V worst-case bound for *this* machine (d-side =
/// LDQ = 12, i-side = ROB = 32).
MachineSpec embedded_preset() {
  MachineSpec spec;
  spec.preset = "embedded";
  cpu::CoreConfig& c = spec.core;
  c.fetch_width = 2;
  c.issue_width = 2;
  c.commit_width = 2;
  c.iq_entries = 16;
  c.rob_entries = 32;
  c.ldq_entries = 12;
  c.stq_entries = 8;
  c.fetch_to_dispatch_delay = 3;
  c.commit_delay = 2;
  c.itlb = {.name = "iTLB", .entries = 16, .ways = 4};
  c.dtlb = {.name = "dTLB", .entries = 16, .ways = 4};
  c.hierarchy.l1i = {.name = "L1I", .size_bytes = 8 * 1024, .ways = 2,
                     .line_bytes = 32, .hit_latency = 2};
  c.hierarchy.l1d = {.name = "L1D", .size_bytes = 8 * 1024, .ways = 2,
                     .line_bytes = 32, .hit_latency = 2};
  c.hierarchy.l2 = {.name = "L2", .size_bytes = 64 * 1024, .ways = 4,
                    .line_bytes = 32, .hit_latency = 8};
  c.hierarchy.l3 = {.name = "L3", .size_bytes = 512 * 1024, .ways = 8,
                    .line_bytes = 32, .hit_latency = 24};
  c.hierarchy.memory_latency = 100;
  c.predictor.direction = {.kind = predictor::DirectionKind::kBimodal,
                           .table_bits = 10};
  c.predictor.btb = {.entries = 256, .ways = 4};
  c.predictor.rsb_depth = 8;
  c.shadow_dcache = {.name = "shadow-dcache", .entries = c.ldq_entries};
  c.shadow_icache = {.name = "shadow-icache", .entries = c.rob_entries};
  c.shadow_dtlb = {.name = "shadow-dtlb", .entries = c.ldq_entries};
  c.shadow_itlb = {.name = "shadow-itlb", .entries = c.rob_entries};
  return spec;
}

NamedRegistry<std::function<MachineSpec()>>& preset_registry() {
  static auto* r = [] {
    auto* reg =
        new NamedRegistry<std::function<MachineSpec()>>("machine preset");
    reg->add("skylake", skylake_preset);
    reg->add("embedded", embedded_preset);
    return reg;
  }();
  return *r;
}

void validate_cache(const memory::CacheConfig& c) {
  if (c.size_bytes == 0 || c.ways <= 0 || c.line_bytes <= 0) {
    throw std::invalid_argument(c.name + ": size, ways and line_bytes must "
                                         "be positive");
  }
  if (c.num_sets() <= 0 ||
      c.size_bytes % (static_cast<std::uint64_t>(c.ways) *
                      static_cast<std::uint64_t>(c.line_bytes)) != 0) {
    throw std::invalid_argument(
        c.name + ": size_bytes must be a positive multiple of "
                 "ways * line_bytes");
  }
}

void validate_tlb(const memory::TlbConfig& t) {
  if (t.entries <= 0 || t.ways <= 0 || t.entries % t.ways != 0) {
    throw std::invalid_argument(t.name + ": entries must be a positive "
                                         "multiple of ways");
  }
}

}  // namespace

// ---- MachineSpec -----------------------------------------------------------

void MachineSpec::validate() const {
  const cpu::CoreConfig& c = core;
  const struct {
    const char* name;
    int value;
  } positives[] = {
      {"fetch_width", c.fetch_width},   {"issue_width", c.issue_width},
      {"commit_width", c.commit_width}, {"iq_entries", c.iq_entries},
      {"rob_entries", c.rob_entries},   {"ldq_entries", c.ldq_entries},
      {"stq_entries", c.stq_entries},
  };
  for (const auto& p : positives) {
    if (p.value <= 0) {
      throw std::invalid_argument(std::string(p.name) +
                                  " must be positive, got " +
                                  std::to_string(p.value));
    }
  }
  if (c.fetch_to_dispatch_delay < 0 || c.commit_delay < 0) {
    throw std::invalid_argument("pipeline delays must be non-negative");
  }
  if (c.dib_lines < 0) {
    throw std::invalid_argument("dib_lines must be non-negative (0 "
                                "disables the decoded-instruction buffer)");
  }
  if (c.sharp_alarm_threshold == 0 || c.sharp_alarm_epoch == 0) {
    throw std::invalid_argument(
        "sharp_alarm_threshold and sharp_alarm_epoch must be positive");
  }
  if (c.cores < 1 || c.cores > 64) {
    throw std::invalid_argument("cores must be in [1, 64], got " +
                                std::to_string(c.cores));
  }
  if (c.cores > 1 && sampling.enabled()) {
    throw std::invalid_argument(
        "sampled simulation (sampling.fast_forward_interval > 0) supports "
        "a single core only; set cores=1 or disable sampling");
  }

  validate_cache(c.hierarchy.l1i);
  validate_cache(c.hierarchy.l1d);
  validate_cache(c.hierarchy.l2);
  validate_cache(c.hierarchy.l3);
  validate_tlb(c.itlb);
  validate_tlb(c.dtlb);

  if (!policy::is_registered_policy(c.policy)) {
    // Re-throwing through named_policy produces the message that lists
    // every registered policy.
    policy::named_policy(c.policy);
  }

  const struct {
    const shadow::ShadowConfig* config;
    int secure_bound;
    const char* bound_name;
  } shadows[] = {
      {&c.shadow_dcache, c.ldq_entries, "LDQ"},
      {&c.shadow_dtlb, c.ldq_entries, "LDQ"},
      {&c.shadow_icache, c.rob_entries, "ROB"},
      {&c.shadow_itlb, c.rob_entries, "ROB"},
  };
  for (const auto& s : shadows) {
    if (s.config->entries <= 0) {
      throw std::invalid_argument(s.config->name +
                                  ": entries must be positive");
    }
    if (s.config->entries < s.secure_bound && !allow_undersized_shadows) {
      throw std::invalid_argument(
          s.config->name + ": " + std::to_string(s.config->entries) +
          " entries is below the secure bound (" + s.bound_name + " = " +
          std::to_string(s.secure_bound) +
          ", §V) — set allow_undersized_shadows to study TSA sizing");
    }
  }

  sampling.validate();

  std::vector<MemRegion> sorted = regions;
  std::sort(sorted.begin(), sorted.end(),
            [](const MemRegion& a, const MemRegion& b) {
              return a.base < b.base;
            });
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (sorted[i].bytes == 0) {
      throw std::invalid_argument("memory-map region at base " +
                                  std::to_string(sorted[i].base) +
                                  " has zero bytes");
    }
    // base + bytes must not wrap, or the overlap comparison below (and
    // map_region's page loop) would silently misbehave.
    if (sorted[i].base + sorted[i].bytes < sorted[i].base) {
      std::ostringstream oss;
      oss << "memory-map region [0x" << std::hex << sorted[i].base
          << ", +0x" << sorted[i].bytes << ") wraps the address space";
      throw std::invalid_argument(oss.str());
    }
    if (i > 0 &&
        sorted[i - 1].base + sorted[i - 1].bytes > sorted[i].base) {
      std::ostringstream oss;
      oss << "memory-map regions overlap: [0x" << std::hex
          << sorted[i - 1].base << ", +0x" << sorted[i - 1].bytes
          << ") and [0x" << sorted[i].base << ", +0x" << sorted[i].bytes
          << ")";
      throw std::invalid_argument(oss.str());
    }
  }
}

std::string MachineSpec::to_json() const {
  const cpu::CoreConfig& c = core;
  JsonWriter w;
  w.open();
  w.field("preset", preset);
  w.field("policy", c.policy);
  w.field("allow_undersized_shadows", allow_undersized_shadows);
  w.field("map_text", map_text);
  w.field("trace", trace);
  w.field("cores", c.cores);

  w.open("core");
  w.field("fetch_width", c.fetch_width);
  w.field("issue_width", c.issue_width);
  w.field("commit_width", c.commit_width);
  w.field("iq_entries", c.iq_entries);
  w.field("rob_entries", c.rob_entries);
  w.field("ldq_entries", c.ldq_entries);
  w.field("stq_entries", c.stq_entries);
  w.field("fetch_to_dispatch_delay", c.fetch_to_dispatch_delay);
  w.field("commit_delay", c.commit_delay);
  w.field("dib_lines", c.dib_lines);
  w.field("alu_latency", c.alu_latency);
  w.field("mul_latency", c.mul_latency);
  w.field("div_latency", c.div_latency);
  w.field("shadow_hit_latency", c.shadow_hit_latency);
  w.field("sharp_alarm_threshold", c.sharp_alarm_threshold);
  w.field("sharp_alarm_epoch", c.sharp_alarm_epoch);
  w.close();

  w.open("caches");
  const struct {
    const char* key;
    const memory::CacheConfig* cache;
  } caches[] = {{"l1i", &c.hierarchy.l1i},
                {"l1d", &c.hierarchy.l1d},
                {"l2", &c.hierarchy.l2},
                {"l3", &c.hierarchy.l3}};
  for (const auto& entry : caches) {
    w.open(entry.key);
    w.field("size_bytes", entry.cache->size_bytes);
    w.field("ways", entry.cache->ways);
    w.field("line_bytes", entry.cache->line_bytes);
    w.field("hit_latency", entry.cache->hit_latency);
    w.close();
  }
  w.field("memory_latency", c.hierarchy.memory_latency);
  w.close();

  w.open("tlbs");
  const struct {
    const char* key;
    const memory::TlbConfig* tlb;
  } tlbs[] = {{"itlb", &c.itlb}, {"dtlb", &c.dtlb}};
  for (const auto& entry : tlbs) {
    w.open(entry.key);
    w.field("entries", entry.tlb->entries);
    w.field("ways", entry.tlb->ways);
    w.close();
  }
  w.close();

  w.open("shadows");
  const struct {
    const char* key;
    const shadow::ShadowConfig* config;
  } shadows[] = {{"dcache", &c.shadow_dcache},
                 {"icache", &c.shadow_icache},
                 {"dtlb", &c.shadow_dtlb},
                 {"itlb", &c.shadow_itlb}};
  for (const auto& entry : shadows) {
    w.open(entry.key);
    w.field("entries", entry.config->entries);
    w.field("full_policy", shadow::to_string(entry.config->full_policy));
    w.close();
  }
  w.close();

  w.open("predictor");
  w.field("direction", direction_kind_name(c.predictor.direction.kind));
  w.field("table_bits", c.predictor.direction.table_bits);
  w.field("history_bits", c.predictor.direction.history_bits);
  w.field("perceptron_weights", c.predictor.direction.perceptron_weights);
  w.field("btb_entries", c.predictor.btb.entries);
  w.field("btb_ways", c.predictor.btb.ways);
  w.field("rsb_depth", c.predictor.rsb_depth);
  w.close();

  w.open("sampling");
  w.field("fast_forward_interval", sampling.fast_forward_interval);
  w.field("warmup_instrs", sampling.warmup_instrs);
  w.field("detail_instrs", sampling.detail_instrs);
  w.close();

  w.open_array("memory_map");
  for (const MemRegion& region : regions) {
    w.open();
    w.field("base", region.base);
    w.field("bytes", region.bytes);
    w.field("kernel", region.perm == memory::PagePerm::kKernel);
    w.close();
  }
  w.close_array();

  w.open_array("pokes");
  for (const Poke& poke : pokes) {
    w.open();
    w.field("addr", poke.addr);
    w.field("value", poke.value);
    w.close();
  }
  w.close_array();

  w.close();
  std::string out = w.take();
  out += '\n';
  return out;
}

MachineSpec MachineSpec::from_json(const std::string& text) {
  const Json doc = json::parse(text);
  if (doc.kind != Json::Kind::kObject) {
    throw std::invalid_argument("machine spec must be a JSON object");
  }

  // Unlisted fields keep the preset's values, so a config file only
  // needs the deltas it cares about.
  std::string preset_name = "skylake";
  read_string(doc, "preset", preset_name);
  MachineSpec spec = machine_preset(preset_name);
  cpu::CoreConfig& c = spec.core;

  read_string(doc, "policy", c.policy);
  read_bool(doc, "allow_undersized_shadows", spec.allow_undersized_shadows);
  read_bool(doc, "map_text", spec.map_text);
  read_string(doc, "trace", spec.trace);
  read_int(doc, "cores", c.cores);

  if (const Json* core = doc.find("core")) {
    read_int(*core, "fetch_width", c.fetch_width);
    read_int(*core, "issue_width", c.issue_width);
    read_int(*core, "commit_width", c.commit_width);
    read_int(*core, "iq_entries", c.iq_entries);
    read_int(*core, "rob_entries", c.rob_entries);
    read_int(*core, "ldq_entries", c.ldq_entries);
    read_int(*core, "stq_entries", c.stq_entries);
    read_int(*core, "fetch_to_dispatch_delay", c.fetch_to_dispatch_delay);
    read_int(*core, "commit_delay", c.commit_delay);
    read_int(*core, "dib_lines", c.dib_lines);
    read_cycle(*core, "alu_latency", c.alu_latency);
    read_cycle(*core, "mul_latency", c.mul_latency);
    read_cycle(*core, "div_latency", c.div_latency);
    read_cycle(*core, "shadow_hit_latency", c.shadow_hit_latency);
    read_u64(*core, "sharp_alarm_threshold", c.sharp_alarm_threshold);
    read_u64(*core, "sharp_alarm_epoch", c.sharp_alarm_epoch);
  }

  if (const Json* caches = doc.find("caches")) {
    read_cache(*caches, "l1i", c.hierarchy.l1i);
    read_cache(*caches, "l1d", c.hierarchy.l1d);
    read_cache(*caches, "l2", c.hierarchy.l2);
    read_cache(*caches, "l3", c.hierarchy.l3);
    read_cycle(*caches, "memory_latency", c.hierarchy.memory_latency);
  }

  if (const Json* tlbs = doc.find("tlbs")) {
    read_tlb(*tlbs, "itlb", c.itlb);
    read_tlb(*tlbs, "dtlb", c.dtlb);
  }

  if (const Json* shadows = doc.find("shadows")) {
    read_shadow(*shadows, "dcache", c.shadow_dcache);
    read_shadow(*shadows, "icache", c.shadow_icache);
    read_shadow(*shadows, "dtlb", c.shadow_dtlb);
    read_shadow(*shadows, "itlb", c.shadow_itlb);
  }

  if (const Json* pred = doc.find("predictor")) {
    std::string direction;
    read_string(*pred, "direction", direction);
    if (!direction.empty()) {
      c.predictor.direction.kind = parse_direction_kind(direction);
    }
    read_int(*pred, "table_bits", c.predictor.direction.table_bits);
    read_int(*pred, "history_bits", c.predictor.direction.history_bits);
    read_int(*pred, "perceptron_weights",
             c.predictor.direction.perceptron_weights);
    read_int(*pred, "btb_entries", c.predictor.btb.entries);
    read_int(*pred, "btb_ways", c.predictor.btb.ways);
    read_int(*pred, "rsb_depth", c.predictor.rsb_depth);
  }

  if (const Json* sampling = doc.find("sampling")) {
    read_u64(*sampling, "fast_forward_interval",
             spec.sampling.fast_forward_interval);
    read_u64(*sampling, "warmup_instrs", spec.sampling.warmup_instrs);
    read_u64(*sampling, "detail_instrs", spec.sampling.detail_instrs);
  }

  if (const Json* map = doc.find("memory_map")) {
    for (const Json& entry : map->array) {
      MemRegion region;
      read_u64(entry, "base", region.base);
      read_u64(entry, "bytes", region.bytes);
      bool kernel = false;
      read_bool(entry, "kernel", kernel);
      region.perm =
          kernel ? memory::PagePerm::kKernel : memory::PagePerm::kUser;
      spec.regions.push_back(region);
    }
  }

  if (const Json* pokes = doc.find("pokes")) {
    for (const Json& entry : pokes->array) {
      Poke poke;
      read_u64(entry, "addr", poke.addr);
      read_u64(entry, "value", poke.value);
      spec.pokes.push_back(poke);
    }
  }

  return spec;
}

MachineSpec MachineSpec::from_json_file(const std::string& path) {
  return from_json(json::read_file(path, "machine config"));
}

void MachineSpec::set(const std::string& key_equals_value) {
  const std::size_t eq = key_equals_value.find('=');
  if (eq == std::string::npos) {
    throw std::invalid_argument("override \"" + key_equals_value +
                                "\" is not of the form key=value");
  }
  set(key_equals_value.substr(0, eq), key_equals_value.substr(eq + 1));
}

void MachineSpec::set(const std::string& key, const std::string& value) {
  cpu::CoreConfig& c = core;
  const auto u64 = [&] { return parse_u64(value, key); };
  const auto to_int = [&] { return json::parse_int(value, key); };
  const auto to_bool = [&] {
    if (value == "true" || value == "1") return true;
    if (value == "false" || value == "0") return false;
    throw std::invalid_argument("expected true/false for \"" + key + "\"");
  };

  if (key == "preset") {
    // Re-seed the whole micro-architecture from the named preset; the
    // machine-level choices (policy, core count) and address-space setup
    // survive. Apply before other overrides so they edit the new preset.
    const std::string keep_policy = c.policy;
    const int keep_cores = c.cores;
    const MachineSpec fresh = machine_preset(value);
    preset = fresh.preset;
    core = fresh.core;
    core.policy = keep_policy;
    core.cores = keep_cores;
    return;
  }
  if (key == "cores") {
    c.cores = to_int();
    return;
  }
  if (key == "policy") {
    policy::named_policy(value);  // throws with the registered list
    c.policy = value;
    return;
  }
  if (key == "sharp_alarm_threshold") {
    c.sharp_alarm_threshold = u64();
    return;
  }
  if (key == "sharp_alarm_epoch") {
    c.sharp_alarm_epoch = u64();
    return;
  }
  if (key == "allow_undersized_shadows") {
    allow_undersized_shadows = to_bool();
    return;
  }
  if (key == "map_text") {
    map_text = to_bool();
    return;
  }
  if (key == "trace") {
    trace = value;
    return;
  }

  int* const int_fields[]{&c.fetch_width,
                          &c.issue_width,
                          &c.commit_width,
                          &c.iq_entries,
                          &c.rob_entries,
                          &c.ldq_entries,
                          &c.stq_entries,
                          &c.fetch_to_dispatch_delay,
                          &c.commit_delay,
                          &c.dib_lines};
  const char* const int_names[]{
      "fetch_width", "issue_width",  "commit_width",
      "iq_entries",  "rob_entries",  "ldq_entries",
      "stq_entries", "fetch_to_dispatch_delay", "commit_delay",
      "dib_lines"};
  for (std::size_t i = 0; i < std::size(int_fields); ++i) {
    if (key == int_names[i]) {
      *int_fields[i] = to_int();
      return;
    }
  }

  Cycle* const cycle_fields[]{&c.alu_latency, &c.mul_latency, &c.div_latency,
                              &c.shadow_hit_latency,
                              &c.hierarchy.memory_latency};
  const char* const cycle_names[]{"alu_latency", "mul_latency", "div_latency",
                                  "shadow_hit_latency", "memory_latency"};
  for (std::size_t i = 0; i < std::size(cycle_fields); ++i) {
    if (key == cycle_names[i]) {
      *cycle_fields[i] = u64();
      return;
    }
  }

  const struct {
    const char* prefix;
    memory::CacheConfig* cache;
  } caches[] = {{"l1i.", &c.hierarchy.l1i},
                {"l1d.", &c.hierarchy.l1d},
                {"l2.", &c.hierarchy.l2},
                {"l3.", &c.hierarchy.l3}};
  for (const auto& entry : caches) {
    if (key.compare(0, std::strlen(entry.prefix), entry.prefix) != 0) {
      continue;
    }
    const std::string field = key.substr(std::strlen(entry.prefix));
    if (field == "size_bytes") {
      entry.cache->size_bytes = u64();
    } else if (field == "ways") {
      entry.cache->ways = to_int();
    } else if (field == "line_bytes") {
      entry.cache->line_bytes = to_int();
    } else if (field == "hit_latency") {
      entry.cache->hit_latency = u64();
    } else {
      throw std::invalid_argument("unknown cache field in \"" + key + "\"");
    }
    return;
  }

  const struct {
    const char* prefix;
    memory::TlbConfig* tlb;
  } tlbs[] = {{"itlb.", &c.itlb}, {"dtlb.", &c.dtlb}};
  for (const auto& entry : tlbs) {
    if (key.compare(0, std::strlen(entry.prefix), entry.prefix) != 0) {
      continue;
    }
    const std::string field = key.substr(std::strlen(entry.prefix));
    if (field == "entries") {
      entry.tlb->entries = to_int();
    } else if (field == "ways") {
      entry.tlb->ways = to_int();
    } else {
      throw std::invalid_argument("unknown TLB field in \"" + key + "\"");
    }
    return;
  }

  const struct {
    const char* prefix;
    shadow::ShadowConfig* config;
  } shadows[] = {{"shadow_dcache.", &c.shadow_dcache},
                 {"shadow_icache.", &c.shadow_icache},
                 {"shadow_dtlb.", &c.shadow_dtlb},
                 {"shadow_itlb.", &c.shadow_itlb}};
  for (const auto& entry : shadows) {
    if (key.compare(0, std::strlen(entry.prefix), entry.prefix) != 0) {
      continue;
    }
    const std::string field = key.substr(std::strlen(entry.prefix));
    if (field == "entries") {
      entry.config->entries = to_int();
    } else if (field == "full_policy") {
      entry.config->full_policy = parse_full_policy(value);
    } else {
      throw std::invalid_argument("unknown shadow field in \"" + key + "\"");
    }
    return;
  }

  if (key == "sampling.fast_forward_interval") {
    sampling.fast_forward_interval = u64();
    return;
  }
  if (key == "sampling.warmup_instrs") {
    sampling.warmup_instrs = u64();
    return;
  }
  if (key == "sampling.detail_instrs") {
    sampling.detail_instrs = u64();
    return;
  }

  if (key == "predictor.direction") {
    c.predictor.direction.kind = parse_direction_kind(value);
    return;
  }
  if (key == "predictor.table_bits") {
    c.predictor.direction.table_bits = to_int();
    return;
  }
  if (key == "predictor.history_bits") {
    c.predictor.direction.history_bits = to_int();
    return;
  }
  if (key == "predictor.perceptron_weights") {
    c.predictor.direction.perceptron_weights = to_int();
    return;
  }
  if (key == "predictor.btb_entries") {
    c.predictor.btb.entries = to_int();
    return;
  }
  if (key == "predictor.btb_ways") {
    c.predictor.btb.ways = to_int();
    return;
  }
  if (key == "predictor.rsb_depth") {
    c.predictor.rsb_depth = to_int();
    return;
  }

  throw std::invalid_argument(
      "unknown machine-spec key \"" + key +
      "\" (see MachineSpec::set in src/sim/machine.h for the grammar)");
}

// ---- preset registry -------------------------------------------------------

MachineSpec machine_preset(const std::string& name) {
  return preset_registry().at(name)();
}

std::vector<std::string> machine_preset_names() {
  return preset_registry().names();
}

bool is_registered_machine_preset(const std::string& name) {
  return preset_registry().contains(name);
}

void register_machine_preset(const std::string& name,
                             std::function<MachineSpec()> factory) {
  preset_registry().add(name, std::move(factory));
}

// ---- builder ----------------------------------------------------------------

MachineBuilder::MachineBuilder() : spec_(machine_preset("skylake")) {}

MachineBuilder::MachineBuilder(MachineSpec spec) : spec_(std::move(spec)) {}

MachineBuilder MachineBuilder::from_preset(const std::string& name) {
  return MachineBuilder(machine_preset(name));
}

MachineBuilder& MachineBuilder::policy(const std::string& name) {
  policy::named_policy(name);  // throws with the registered list
  spec_.core.policy = name;
  return *this;
}

MachineBuilder& MachineBuilder::cores(int n) {
  spec_.core.cores = n;
  return *this;
}

MachineBuilder& MachineBuilder::shadow_entries(int dside, int iside) {
  spec_.core.shadow_dcache.entries = dside;
  spec_.core.shadow_dtlb.entries = dside;
  spec_.core.shadow_icache.entries = iside;
  spec_.core.shadow_itlb.entries = iside;
  return *this;
}

MachineBuilder& MachineBuilder::shadow_full_policy(
    shadow::FullPolicy full_policy) {
  spec_.core.shadow_dcache.full_policy = full_policy;
  spec_.core.shadow_icache.full_policy = full_policy;
  spec_.core.shadow_dtlb.full_policy = full_policy;
  spec_.core.shadow_itlb.full_policy = full_policy;
  return *this;
}

MachineBuilder& MachineBuilder::allow_undersized_shadows(bool allow) {
  spec_.allow_undersized_shadows = allow;
  return *this;
}

MachineBuilder& MachineBuilder::map_region(Addr base, std::uint64_t bytes,
                                           memory::PagePerm perm) {
  spec_.regions.push_back({base, bytes, perm});
  return *this;
}

MachineBuilder& MachineBuilder::poke(Addr addr, std::uint64_t value) {
  spec_.pokes.push_back({addr, value});
  return *this;
}

MachineBuilder& MachineBuilder::set(const std::string& key_equals_value) {
  spec_.set(key_equals_value);
  return *this;
}

MachineBuilder& MachineBuilder::configure(
    const std::function<void(cpu::CoreConfig&)>& fn) {
  fn(spec_.core);
  return *this;
}

std::unique_ptr<Simulator> MachineBuilder::build(isa::Program program) const {
  spec_.validate();
  auto sim = std::make_unique<Simulator>(spec_.core, std::move(program));
  sim->set_sampling(spec_.sampling);
  if (spec_.map_text) sim->map_text();
  for (const MemRegion& region : spec_.regions) {
    sim->map_region(region.base, region.bytes, region.perm);
  }
  for (const Poke& poke : spec_.pokes) sim->poke(poke.addr, poke.value);
  return sim;
}

}  // namespace safespec::sim
