// Records simulator workloads as trace files (and verifies replays).
//
//   trace_record --out=mcf.trace --profile=mcf --instrs=20000 --verify
//   trace_record --out=fz.trace --fuzz-seed=42
//   trace_record --info=mcf.trace
//
// Converts either producer of programs — the synthetic SPEC generator
// (--profile) or the differential fuzzer's random program generator
// (--fuzz-seed) — into the versioned trace format documented in
// src/trace/trace_format.h. With --verify the tool re-reads the file it
// just wrote, runs both the original image and the replayed one on the
// default machine, and requires bit-identical cycle counts, instruction
// counts, stop reason and architectural registers: the round-trip
// guarantee the trace frontend rests on, checked end to end through the
// real file.
#include <cstdio>
#include <string>

#include "common/cli.h"
#include "fuzz/fuzz_spec.h"
#include "fuzz/generator.h"
#include "sim/simulator.h"
#include "trace/trace.h"
#include "trace/trace_workload.h"
#include "workloads/runner.h"
#include "workloads/workload.h"

namespace {

using namespace safespec;

void usage(const char* prog, std::FILE* out) {
  std::fprintf(
      out,
      "usage: %s --out=FILE (--profile=NAME | --fuzz-seed=N) [options]\n"
      "       %s --info=FILE\n"
      "  --out=FILE        trace file to write\n"
      "  --profile=NAME    record this synthetic SPEC profile\n"
      "  --instrs=N        target committed instructions for --profile\n"
      "                    (default 20000)\n"
      "  --fuzz-seed=N     record the fuzz generator's program for seed N\n"
      "  --fuzz-spec=FILE  FuzzSpec JSON shaping --fuzz-seed's program\n"
      "  --raw             store chunks uncompressed\n"
      "  --verify          re-read the written file, replay it, and\n"
      "                    require bit-identical cycles / instructions /\n"
      "                    stop reason / registers vs the original\n"
      "  --info=FILE       print a trace file's header summary and exit\n",
      prog, prog);
}

workloads::WorkloadImage image_of(const fuzz::FuzzProgram& fp) {
  workloads::WorkloadImage image;
  image.program = fp.program;
  for (const sim::MemRegion& region : fp.regions) {
    image.regions.push_back({region.base, region.bytes,
                             region.perm == memory::PagePerm::kKernel});
  }
  for (const sim::Poke& poke : fp.pokes) {
    image.init_words.emplace_back(poke.addr, poke.value);
  }
  return image;
}

struct RunSummary {
  sim::SimResult result;
  std::uint64_t regs[kNumArchRegs] = {};
};

RunSummary run_image(workloads::WorkloadImage image, std::uint64_t instrs) {
  auto sim = workloads::make_image_sim(std::move(image), cpu::CoreConfig{});
  RunSummary out;
  // instrs == 0 runs to halt (fuzz programs terminate on their own).
  out.result = sim->run(workloads::cycle_budget(instrs),
                        instrs == 0 ? ~0ULL : instrs);
  for (int r = 0; r < kNumArchRegs; ++r) {
    out.regs[r] = sim->core().reg(static_cast<RegIndex>(r));
  }
  return out;
}

int print_info(const std::string& path) {
  trace::TraceReader reader(path);
  std::printf("%s: trace v%u\n", path.c_str(), trace::kTraceVersion);
  std::printf("  entry          0x%llx\n",
              static_cast<unsigned long long>(reader.entry()));
  std::printf("  fault handler  %s\n",
              reader.fault_handler().has_value() ? "present" : "none");
  std::printf("  records        %llu\n",
              static_cast<unsigned long long>(reader.records_total()));
  std::printf("  regions        %zu\n", reader.regions().size());
  for (const trace::TraceRegion& region : reader.regions()) {
    std::printf("    [0x%llx, +0x%llx) %s\n",
                static_cast<unsigned long long>(region.base),
                static_cast<unsigned long long>(region.bytes),
                region.kernel ? "kernel" : "user");
  }
  std::printf("  init words     %zu\n", reader.init_words().size());
  // Drain the records so the checksum is verified — --info doubles as an
  // integrity check.
  trace::TraceRecord rec;
  while (reader.next(rec)) {
  }
  std::printf("  checksum       ok\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::string info_path;
  std::string profile_name;
  std::string fuzz_spec_path;
  std::uint64_t instrs = 20'000;
  std::uint64_t fuzz_seed = 0;
  bool have_fuzz_seed = false;
  bool compress = true;
  bool verify = false;

  // Historical grammar preserved exactly: "--flag=value" forms only.
  cli::FlagSet flags(usage);
  flags.string("--out", &out_path)
      .string("--info", &info_path)
      .string("--profile", &profile_name)
      .u64("--instrs", &instrs)
      .value("--fuzz-seed",
             [&fuzz_seed, &have_fuzz_seed](const char* value) {
               fuzz_seed = cli::parse_u64_or_exit(value, "--fuzz-seed");
               have_fuzz_seed = true;
             })
      .string("--fuzz-spec", &fuzz_spec_path)
      .boolean("--raw", [&compress] { compress = false; })
      .set_true("--verify", &verify);
  flags.parse(argc, argv);

  try {
    if (!info_path.empty()) return print_info(info_path);

    if (out_path.empty() || profile_name.empty() == !have_fuzz_seed) {
      std::fprintf(stderr, "need --out=FILE and exactly one of "
                           "--profile=NAME / --fuzz-seed=N\n");
      usage(argv[0], stderr);
      return 2;
    }

    workloads::WorkloadImage original;
    std::uint64_t verify_instrs = 0;
    if (!profile_name.empty()) {
      original = workloads::generate(workloads::profile_by_name(profile_name),
                                     instrs);
      verify_instrs = instrs;
    } else {
      fuzz::FuzzSpec spec;
      if (!fuzz_spec_path.empty()) {
        spec = fuzz::FuzzSpec::from_json_file(fuzz_spec_path);
      }
      original = image_of(fuzz::generate_program(fuzz_seed, spec));
    }

    const trace::TraceImage image = trace::record_workload(original);
    trace::write_trace_file(out_path, image, compress);
    const std::size_t raw_bytes =
        trace::kTraceHeaderBytes +
        image.regions.size() * trace::kTraceRegionBytes +
        image.init_words.size() * trace::kTraceInitWordBytes +
        image.records.size() * trace::kTraceRecordBytes;
    const std::size_t file_bytes = trace::encode(image, compress).size();
    std::printf("wrote %s: %zu records, %zu regions, %zu init words, "
                "%zu bytes (%.0f%% of raw)\n",
                out_path.c_str(), image.records.size(), image.regions.size(),
                image.init_words.size(), file_bytes,
                100.0 * static_cast<double>(file_bytes) /
                    static_cast<double>(raw_bytes));

    if (verify) {
      const RunSummary want = run_image(original, verify_instrs);
      const RunSummary got =
          run_image(trace::load_workload(out_path), verify_instrs);
      bool ok = want.result.cycles == got.result.cycles &&
                want.result.committed_instrs == got.result.committed_instrs &&
                want.result.stop == got.result.stop;
      for (int r = 0; r < kNumArchRegs; ++r) {
        ok = ok && want.regs[r] == got.regs[r];
      }
      if (!ok) {
        std::printf("verify: FAIL — original %llu cycles / %llu instrs, "
                    "replay %llu cycles / %llu instrs\n",
                    static_cast<unsigned long long>(want.result.cycles),
                    static_cast<unsigned long long>(
                        want.result.committed_instrs),
                    static_cast<unsigned long long>(got.result.cycles),
                    static_cast<unsigned long long>(
                        got.result.committed_instrs));
        return 1;
      }
      std::printf("verify: PASS — replay bit-identical (%llu cycles, "
                  "%llu instrs)\n",
                  static_cast<unsigned long long>(got.result.cycles),
                  static_cast<unsigned long long>(
                      got.result.committed_instrs));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace_record: %s\n", e.what());
    return 2;
  }
  return 0;
}
