#include "common/cli.h"

#include <cstdlib>
#include <cstring>
#include <exception>

#include "common/json.h"

namespace safespec::cli {

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::size_t end = comma == std::string::npos ? text.size() : comma;
    if (end > start) out.push_back(text.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

std::uint64_t parse_u64_or_exit(const char* value, const char* flag) {
  try {
    return json::parse_u64(value, flag);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
  }
}

int parse_int_or_exit(const char* value, const char* flag,
                      std::uint64_t max) {
  int v = 0;
  try {
    v = json::parse_int(value, flag);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
  }
  if (static_cast<std::uint64_t>(v) > max) {
    std::fprintf(stderr, "%s=%s is out of range\n", flag, value);
    std::exit(2);
  }
  return v;
}

FlagSet& FlagSet::value(const char* name, ValueHandler handler,
                        bool separated) {
  Flag f;
  f.name = name;
  f.takes_value = true;
  f.separated = separated;
  f.on_value = std::move(handler);
  flags_.push_back(std::move(f));
  return *this;
}

FlagSet& FlagSet::boolean(const char* name, std::function<void()> handler) {
  Flag f;
  f.name = name;
  f.on_bare = std::move(handler);
  flags_.push_back(std::move(f));
  return *this;
}

FlagSet& FlagSet::u64(const char* name, std::uint64_t* out, bool separated) {
  const std::string flag = name;
  return value(
      name,
      [out, flag](const char* v) {
        *out = parse_u64_or_exit(v, flag.c_str());
      },
      separated);
}

FlagSet& FlagSet::bounded_int(const char* name, int* out, bool separated) {
  const std::string flag = name;
  return value(
      name,
      [out, flag](const char* v) {
        *out = parse_int_or_exit(v, flag.c_str());
      },
      separated);
}

FlagSet& FlagSet::string(const char* name, std::string* out, bool separated) {
  return value(
      name, [out](const char* v) { *out = v; }, separated);
}

FlagSet& FlagSet::csv_list(const char* name, std::vector<std::string>* out,
                           bool separated) {
  return value(
      name, [out](const char* v) { *out = split_csv(v); }, separated);
}

FlagSet& FlagSet::repeated(const char* name, std::vector<std::string>* out,
                           bool separated) {
  return value(
      name, [out](const char* v) { out->emplace_back(v); }, separated);
}

FlagSet& FlagSet::set_true(const char* name, bool* out) {
  return boolean(name, [out] { *out = true; });
}

FlagSet& FlagSet::allow_positional() {
  allow_positional_ = true;
  return *this;
}

FlagSet& FlagSet::unknown_label(const char* label) {
  unknown_label_ = label;
  return *this;
}

std::vector<std::string> FlagSet::parse(int argc, char** argv) {
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      usage_(argv[0], stdout);
      std::exit(0);
    }
    bool matched = false;
    for (const Flag& flag : flags_) {
      if (flag.takes_value) {
        const std::size_t len = flag.name.size();
        if (std::strncmp(arg, flag.name.c_str(), len) == 0 &&
            arg[len] == '=') {
          flag.on_value(arg + len + 1);
          matched = true;
          break;
        }
        if (flag.separated && flag.name == arg && i + 1 < argc) {
          flag.on_value(argv[++i]);
          matched = true;
          break;
        }
      } else if (flag.name == arg) {
        flag.on_bare();
        matched = true;
        break;
      }
    }
    if (matched) continue;
    if (allow_positional_ && std::strncmp(arg, "--", 2) != 0) {
      positional.emplace_back(arg);
      continue;
    }
    std::fprintf(stderr, "unknown %s: %s\n", unknown_label_.c_str(), arg);
    usage_(argv[0], stderr);
    std::exit(2);
  }
  return positional;
}

// ---- the bench flag family --------------------------------------------------

namespace {

void print_bench_usage(const char* prog, const char* extra_usage,
                       std::uint64_t default_instrs, std::FILE* out) {
  std::fprintf(out,
               "usage: %s [--threads=N] [--csv=PATH] [--json=PATH] "
               "[--instrs=N] [--config=FILE] [--set=key=value]%s%s\n"
               "  --threads=N      worker threads for the sweep "
               "(default: hardware concurrency)\n"
               "  --csv=PATH       also write every table as CSV\n"
               "  --json=PATH      also write every table as JSON\n"
               "  --instrs=N       committed instructions per cell "
               "(default %llu)\n"
               "  --config=FILE    base machine as a MachineSpec JSON file\n"
               "                   (default: the \"skylake\" preset)\n"
               "  --set=key=value  override one machine field (repeatable):\n"
               "                   preset=embedded, policy=WFB-stall,\n"
               "                   rob_entries=64, shadow_dcache.entries=16,\n"
               "                   ... (see MachineSpec::set); a bench whose\n"
               "                   variant axis *is* the policy overrides\n"
               "                   policy= per variant\n",
               prog, extra_usage ? " " : "", extra_usage ? extra_usage : "",
               static_cast<unsigned long long>(default_instrs));
}

}  // namespace

BenchOptions parse_bench_args(int argc, char** argv, const char* extra_usage,
                              std::uint64_t default_instrs) {
  BenchOptions opts;
  opts.instrs = default_instrs;
  const std::string extra = extra_usage ? extra_usage : "";
  const bool have_extra = extra_usage != nullptr;
  FlagSet flags([extra, have_extra, default_instrs](const char* prog,
                                                    std::FILE* out) {
    print_bench_usage(prog, have_extra ? extra.c_str() : nullptr,
                      default_instrs, out);
  });
  // Both counts are strict: "abc" must neither run every cell at zero
  // instructions nor on every hardware thread.
  flags.bounded_int("--threads", &opts.threads);
  flags.string("--csv", &opts.csv_path);
  flags.string("--json", &opts.json_path);
  flags.u64("--instrs", &opts.instrs);
  flags.string("--config", &opts.config_path, /*separated=*/true);
  flags.repeated("--set", &opts.overrides, /*separated=*/true);
  flags.allow_positional().unknown_label("flag");
  opts.positional = flags.parse(argc, argv);
  return opts;
}

}  // namespace safespec::cli
