#include "sim/machine.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <variant>

#include "common/json.h"
#include "common/registry.h"
#include "safespec/policy.h"

namespace safespec::sim {

namespace {

// The JSON machinery (value type, parser, typed readers, writer) lives in
// common/json.h, shared with the fuzzing subsystem's FuzzSpec documents.
using Json = json::Value;
using JsonWriter = json::Writer;

// ---- preset registry -------------------------------------------------------

/// Tables I and II: the 6-wide SkyLake-like core the paper evaluates.
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

// ---- the field table -------------------------------------------------------
//
// Every scalar field of a MachineSpec is one row below: its dotted JSON
// path, its --set key, where it lives, and the single-field range that
// validate() enforces. to_json, from_json, set and validate all walk the
// table, so both spellings cover every field by construction.

/// The policy name: a string checked against the policy registry as it
/// is parsed, so an unknown name lists the registered ones.
struct PolicyName {
  std::string* name;
};

/// Where one field lives inside a MachineSpec. The alternative decides
/// how the field is parsed, printed and range-checked.
using FieldRef = std::variant<int*, std::uint64_t*, bool*, std::string*,
                              PolicyName, shadow::FullPolicy*,
                              predictor::DirectionKind*>;

constexpr std::uint64_t kNoMax = std::numeric_limits<std::uint64_t>::max();

struct Field {
  std::string path;  ///< dotted JSON path: "caches.l1d.ways"
  std::string key;   ///< --set key: "l1d.ways"
  std::function<FieldRef(MachineSpec&)> ref;
  std::uint64_t min = 0;  ///< validate()'s inclusive range (numeric rows)
  std::uint64_t max = kNoMax;
};

/// Every row, in to_json order; built once.
const std::vector<Field>& fields() {
  static const std::vector<Field> table = [] {
    std::vector<Field> t;
    // group(path, key, members...) adds the fields of the struct reached
    // from a MachineSpec through `members`: field `name` gets the JSON
    // path `path + name` and the --set key `key + name`.
    const auto group = [&t](std::string path, std::string key,
                            auto... members) {
      return [&t, path, key, members...](const char* name, auto member,
                                         std::uint64_t min = 0,
                                         std::uint64_t max = kNoMax) {
        t.push_back({path + name, key + name,
                     [=](MachineSpec& s) -> FieldRef {
                       return &((s .* ... .* members).*member);
                     },
                     min, max});
      };
    };
    using C = cpu::CoreConfig;
    using M = MachineSpec;
    t.push_back({"policy", "policy", [](M& s) -> FieldRef {
                   return PolicyName{&s.core.policy};
                 }});
    const auto spec = group("", "");
    spec("allow_undersized_shadows", &M::allow_undersized_shadows);
    spec("map_text", &M::map_text);
    spec("trace", &M::trace);
    group("", "", &M::core)("cores", &C::cores, 1, 64);

    const auto core = group("core.", "", &M::core);
    core("fetch_width", &C::fetch_width, 1);
    core("issue_width", &C::issue_width, 1);
    core("commit_width", &C::commit_width, 1);
    core("iq_entries", &C::iq_entries, 1);
    core("rob_entries", &C::rob_entries, 1);
    core("ldq_entries", &C::ldq_entries, 1);
    core("stq_entries", &C::stq_entries, 1);
    core("fetch_to_dispatch_delay", &C::fetch_to_dispatch_delay);
    core("commit_delay", &C::commit_delay);
    core("dib_lines", &C::dib_lines);
    core("alu_latency", &C::alu_latency);
    core("mul_latency", &C::mul_latency);
    core("div_latency", &C::div_latency);
    core("shadow_hit_latency", &C::shadow_hit_latency);
    core("sharp_alarm_threshold", &C::sharp_alarm_threshold, 1);
    core("sharp_alarm_epoch", &C::sharp_alarm_epoch, 1);

    using memory::CacheConfig, memory::HierarchyConfig;
    const std::pair<std::string, CacheConfig HierarchyConfig::*> caches[] = {
        {"l1i", &HierarchyConfig::l1i},
        {"l1d", &HierarchyConfig::l1d},
        {"l2", &HierarchyConfig::l2},
        {"l3", &HierarchyConfig::l3}};
    for (const auto& [name, level] : caches) {
      const auto cache = group("caches." + name + ".", name + ".", &M::core,
                               &C::hierarchy, level);
      cache("size_bytes", &CacheConfig::size_bytes);
      cache("ways", &CacheConfig::ways);
      cache("line_bytes", &CacheConfig::line_bytes);
      cache("hit_latency", &CacheConfig::hit_latency);
    }
    group("caches.", "", &M::core, &C::hierarchy)(
        "memory_latency", &HierarchyConfig::memory_latency);

    const std::pair<std::string, memory::TlbConfig C::*> tlbs[] = {
        {"itlb", &C::itlb}, {"dtlb", &C::dtlb}};
    for (const auto& [name, which] : tlbs) {
      const auto tlb = group("tlbs." + name + ".", name + ".", &M::core, which);
      tlb("entries", &memory::TlbConfig::entries);
      tlb("ways", &memory::TlbConfig::ways);
    }

    const std::pair<std::string, shadow::ShadowConfig C::*> shadows[] = {
        {"dcache", &C::shadow_dcache},
        {"icache", &C::shadow_icache},
        {"dtlb", &C::shadow_dtlb},
        {"itlb", &C::shadow_itlb}};
    for (const auto& [name, which] : shadows) {
      const auto shadow = group("shadows." + name + ".",
                                "shadow_" + name + ".", &M::core, which);
      shadow("entries", &shadow::ShadowConfig::entries, 1);
      shadow("full_policy", &shadow::ShadowConfig::full_policy);
    }

    // Predictor geometry feeds shifts and divisions when the predictor is
    // built: 1u << table_bits, 1ull << history_bits, one history bit per
    // perceptron weight, entries / ways, and a depth-sized return stack.
    using P = predictor::PredictorConfig;
    using D = predictor::DirectionConfig;
    const auto direction = group("predictor.", "predictor.", &M::core,
                                 &C::predictor, &P::direction);
    direction("direction", &D::kind);
    direction("table_bits", &D::table_bits, 0, 31);
    direction("history_bits", &D::history_bits, 0, 63);
    direction("perceptron_weights", &D::perceptron_weights, 0, 64);
    const auto btb =
        group("predictor.", "predictor.", &M::core, &C::predictor, &P::btb);
    btb("btb_entries", &predictor::BtbConfig::entries, 1);
    btb("btb_ways", &predictor::BtbConfig::ways, 1);
    group("predictor.", "predictor.", &M::core, &C::predictor)(
        "rsb_depth", &P::rsb_depth, 1);

    const auto sampling = group("sampling.", "sampling.", &M::sampling);
    sampling("fast_forward_interval", &SamplingSpec::fast_forward_interval);
    sampling("warmup_instrs", &SamplingSpec::warmup_instrs);
    sampling("detail_instrs", &SamplingSpec::detail_instrs);
    return t;
  }();
  return table;
}

/// A row's reference into a const spec, for the readers (to_json,
/// validate): rows hand out mutable pointers, which these never write.
FieldRef ref_in(const Field& field, const MachineSpec& spec) {
  return field.ref(const_cast<MachineSpec&>(spec));
}

// Spellings of the enum-valued fields, indexed by enumerator.
const char* const kFullPolicyNames[] = {"drop", "stall"};
const char* const kDirectionNames[] = {"bimodal", "gshare", "perceptron"};

template <typename E, std::size_t N>
void parse_enum(const char* const (&names)[N], const std::string& text,
                const std::string& where, E& out) {
  std::string expected;
  for (std::size_t i = 0; i < N; ++i) {
    if (text == names[i]) {
      out = static_cast<E>(i);
      return;
    }
    expected += std::string(" ") + names[i];
  }
  throw std::invalid_argument("unknown value \"" + text + "\" for \"" +
                              where + "\" (expected one of:" + expected +
                              ")");
}

template <typename... Fs>
struct Overloaded : Fs... {
  using Fs::operator()...;
};
template <typename... Fs>
Overloaded(Fs...) -> Overloaded<Fs...>;

/// Parses the --set text form of a field; `where` names it in errors.
void assign(const FieldRef& ref, const std::string& text,
            const std::string& where) {
  std::visit(
      Overloaded{
          [&](int* p) { *p = json::parse_int(text, where); },
          [&](std::uint64_t* p) { *p = json::parse_u64(text, where); },
          [&](bool* p) {
            if (text != "true" && text != "1" && text != "false" &&
                text != "0") {
              throw std::invalid_argument("expected true/false for \"" +
                                          where + "\"");
            }
            *p = text == "true" || text == "1";
          },
          [&](std::string* p) { *p = text; },
          [&](PolicyName p) {
            policy::named_policy(text);  // throws with the registered list
            *p.name = text;
          },
          [&](shadow::FullPolicy* p) {
            parse_enum(kFullPolicyNames, text, where, *p);
          },
          [&](predictor::DirectionKind* p) {
            parse_enum(kDirectionNames, text, where, *p);
          },
      },
      ref);
}

/// Reads a field from its JSON value. JSON keeps its types: booleans are
/// true/false, names are strings, and integers are numbers or (hex)
/// strings.
void read(const FieldRef& ref, const Json& value, const std::string& where) {
  const bool boolean = std::holds_alternative<bool*>(ref);
  const bool numeric = std::holds_alternative<int*>(ref) ||
                       std::holds_alternative<std::uint64_t*>(ref);
  if (boolean ? value.kind != Json::Kind::kBool
              : value.kind != Json::Kind::kString &&
                    !(numeric && value.kind == Json::Kind::kNumber)) {
    throw std::invalid_argument(
        std::string(boolean   ? "expected true/false"
                    : numeric ? "expected a number"
                              : "expected a string") +
        " for \"" + where + "\"");
  }
  assign(ref, boolean ? (value.boolean ? "true" : "false") : value.text, where);
}

void write(JsonWriter& w, const char* key, const FieldRef& ref) {
  std::visit(Overloaded{
                 [&](PolicyName p) { w.field(key, *p.name); },
                 [&](shadow::FullPolicy* p) {
                   w.field(key, kFullPolicyNames[static_cast<int>(*p)]);
                 },
                 [&](predictor::DirectionKind* p) {
                   w.field(key, kDirectionNames[static_cast<int>(*p)]);
                 },
                 [&](auto* p) { w.field(key, *p); },
             },
             ref);
}

/// Throws unless a numeric row's value lies in [min, max]. The message
/// is built only on failure: validate() runs on every build.
void check_range(const Field& field, const MachineSpec& spec) {
  const FieldRef ref = ref_in(field, spec);
  std::string got;
  if (int* const* p = std::get_if<int*>(&ref)) {
    const auto v = static_cast<std::uint64_t>(**p);
    if (**p < 0 || v < field.min || v > field.max) got = std::to_string(**p);
  } else if (std::uint64_t* const* p = std::get_if<std::uint64_t*>(&ref)) {
    if (**p < field.min || **p > field.max) got = std::to_string(**p);
  }
  if (got.empty()) return;
  throw std::invalid_argument(
      field.key +
      (field.max == kNoMax
           ? " must be at least " + std::to_string(field.min)
           : " must be in [" + std::to_string(field.min) + ", " +
                 std::to_string(field.max) + "]") +
      ", got " + got);
}

[[noreturn]] void unknown_key(const std::string& path) {
  throw std::invalid_argument(
      "unknown machine-spec key \"" + path +
      "\" (see MachineSpec in src/sim/machine.h for the grammar)");
}

/// Reads the member `value` at dotted `path`: a row, or an object whose
/// members lead to rows.
void read_member(const std::string& path, const Json& value,
                 MachineSpec& spec) {
  const std::string prefix = path + ".";
  bool encloses = false;
  for (const Field& field : fields()) {
    if (field.path == path) return read(field.ref(spec), value, path);
    encloses = encloses || field.path.compare(0, prefix.size(), prefix) == 0;
  }
  if (!encloses) unknown_key(path);
  if (value.kind != Json::Kind::kObject) {
    throw std::invalid_argument("expected an object for \"" + path + "\"");
  }
  for (const auto& [name, member] : value.object) {
    read_member(prefix + name, member, spec);
  }
}

/// Reads the object `value` at `path` ("memory_map[2]") into `members`,
/// rejecting any other key.
void read_entry(
    const Json& value, const std::string& path,
    std::initializer_list<std::pair<const char*, FieldRef>> members) {
  if (value.kind != Json::Kind::kObject) {
    throw std::invalid_argument("expected an object for \"" + path + "\"");
  }
  for (const auto& [key, member] : value.object) {
    const auto it = std::find_if(members.begin(), members.end(),
                                 [&](const auto& m) { return key == m.first; });
    if (it == members.end()) unknown_key(path + "." + key);
    read(it->second, member, path + "." + key);
  }
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
  for (const Field& field : fields()) check_range(field, *this);

  const cpu::CoreConfig& c = core;
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
  if (c.predictor.btb.entries % c.predictor.btb.ways != 0) {
    throw std::invalid_argument(
        "predictor.btb_entries must be a multiple of predictor.btb_ways");
  }

  policy::named_policy(c.policy);  // throws, listing the registered ones

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
  JsonWriter w;
  w.open();
  w.field("preset", preset);
  // Rows come grouped by object: close and open objects as the enclosing
  // path changes from one row to the next.
  std::vector<std::string> open;
  for (const Field& field : fields()) {
    std::vector<std::string> parts;
    std::istringstream in(field.path);
    for (std::string part; std::getline(in, part, '.');) parts.push_back(part);
    const std::string leaf = std::move(parts.back());
    parts.pop_back();
    const auto shared =
        std::mismatch(open.begin(), open.end(), parts.begin(), parts.end());
    for (auto n = open.end() - shared.first; n > 0; --n) {
      w.close();
      open.pop_back();
    }
    for (auto it = shared.second; it != parts.end(); ++it) {
      w.open(it->c_str());
      open.push_back(*it);
    }
    write(w, leaf.c_str(), ref_in(field, *this));
  }
  for (; !open.empty(); open.pop_back()) w.close();

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
  json::read_string(doc, "preset", preset_name);
  MachineSpec spec = machine_preset(preset_name);

  for (const auto& [name, value] : doc.object) {
    if (name == "preset") continue;
    if (name != "memory_map" && name != "pokes") {
      read_member(name, value, spec);
      continue;
    }
    if (value.kind != Json::Kind::kArray) {
      throw std::invalid_argument("expected an array for \"" + name + "\"");
    }
    for (std::size_t i = 0; i < value.array.size(); ++i) {
      const std::string at = name + "[" + std::to_string(i) + "]";
      if (name == "pokes") {
        Poke poke;
        read_entry(value.array[i], at,
                   {{"addr", &poke.addr}, {"value", &poke.value}});
        spec.pokes.push_back(poke);
        continue;
      }
      MemRegion region;
      bool kernel = false;
      read_entry(value.array[i], at,
                 {{"base", &region.base},
                  {"bytes", &region.bytes},
                  {"kernel", &kernel}});
      region.perm =
          kernel ? memory::PagePerm::kKernel : memory::PagePerm::kUser;
      spec.regions.push_back(region);
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
  if (key == "preset") {
    // Re-seed the whole micro-architecture from the named preset; the
    // machine-level choices (policy, core count) and address-space setup
    // survive. Apply before other overrides so they edit the new preset.
    const std::string keep_policy = core.policy;
    const int keep_cores = core.cores;
    const MachineSpec fresh = machine_preset(value);
    preset = fresh.preset;
    core = fresh.core;
    core.policy = keep_policy;
    core.cores = keep_cores;
    return;
  }
  for (const Field& field : fields()) {
    if (field.key == key) return assign(field.ref(*this), value, key);
  }
  unknown_key(key);
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
  if (spec_.map_text) sim->map_text();
  for (const MemRegion& region : spec_.regions) {
    sim->map_region(region.base, region.bytes, region.perm);
  }
  for (const Poke& poke : spec_.pokes) sim->poke(poke.addr, poke.value);
  return sim;
}

}  // namespace safespec::sim
