// Tests for the experiment engine: declarative grid expansion, the
// parallel runner's determinism guarantee (bitwise-identical results
// regardless of thread count), the stats merge helpers the sweeps
// aggregate with, and the ResultTable sinks.
#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "common/stats.h"
#include "experiment/experiment.h"
#include "workloads/workload.h"

namespace safespec::experiment {
namespace {

// Field-by-field comparison (memcmp would also compare padding).
void expect_bitwise_equal(const sim::SimResult& a, const sim::SimResult& b,
                          const std::string& what) {
  EXPECT_EQ(static_cast<int>(a.stop), static_cast<int>(b.stop)) << what;
  EXPECT_EQ(a.cycles, b.cycles) << what;
  EXPECT_EQ(a.committed_instrs, b.committed_instrs) << what;
  EXPECT_EQ(a.ipc, b.ipc) << what;
  EXPECT_EQ(a.dcache_accesses, b.dcache_accesses) << what;
  EXPECT_EQ(a.dcache_misses, b.dcache_misses) << what;
  EXPECT_EQ(a.shadow_dcache_hits, b.shadow_dcache_hits) << what;
  EXPECT_EQ(a.icache_accesses, b.icache_accesses) << what;
  EXPECT_EQ(a.icache_misses, b.icache_misses) << what;
  EXPECT_EQ(a.shadow_icache_hits, b.shadow_icache_hits) << what;
  EXPECT_EQ(a.shadow_dcache_commit_rate, b.shadow_dcache_commit_rate) << what;
  EXPECT_EQ(a.shadow_icache_commit_rate, b.shadow_icache_commit_rate) << what;
  EXPECT_EQ(a.shadow_dcache_p9999, b.shadow_dcache_p9999) << what;
  EXPECT_EQ(a.shadow_icache_p9999, b.shadow_icache_p9999) << what;
  EXPECT_EQ(a.shadow_dtlb_p9999, b.shadow_dtlb_p9999) << what;
  EXPECT_EQ(a.shadow_itlb_p9999, b.shadow_itlb_p9999) << what;
  EXPECT_EQ(a.mispredicts, b.mispredicts) << what;
  EXPECT_EQ(a.squashed_instrs, b.squashed_instrs) << what;
  EXPECT_EQ(a.faults, b.faults) << what;
}

TEST(ExperimentSpec, ExpandsProfileMajor) {
  ExperimentSpec spec;
  spec.profile_names({"perlbench", "mcf", "lbm"})
      .policy("baseline")
      .policy("WFC")
      .instrs(1234);

  const auto cells = spec.expand();
  ASSERT_EQ(cells.size(), 6u);
  ASSERT_EQ(spec.variant_axis().size(), 2u);
  EXPECT_EQ(spec.variant_axis()[0].name, "baseline");
  EXPECT_EQ(spec.variant_axis()[1].name, "WFC");

  const char* expected_profiles[] = {"perlbench", "perlbench", "mcf",
                                     "mcf",       "lbm",       "lbm"};
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, i);
    EXPECT_EQ(cells[i].profile.name, expected_profiles[i]);
    EXPECT_EQ(cells[i].profile_index, i / 2);
    EXPECT_EQ(cells[i].variant_index, i % 2);
    EXPECT_EQ(cells[i].instrs, 1234u);
  }
}

TEST(ExperimentSpec, VariantMutationApplies) {
  ExperimentSpec spec;
  spec.profile_names({"x264"})
      .policy("WFC",
              [](cpu::CoreConfig& c) { c.shadow_dcache.entries = 8; });
  const auto cells = spec.expand();
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].config.policy, "WFC");
  EXPECT_EQ(cells[0].config.shadow_dcache.entries, 8);
}

TEST(ExperimentSpec, UnknownProfileThrows) {
  ExperimentSpec spec;
  EXPECT_THROW(spec.profile_names({"notabenchmark"}), std::out_of_range);
}

TEST(ParallelRunner, DeterministicAcrossThreadCounts) {
  ExperimentSpec spec;
  spec.profile_names({"exchange2", "x264", "deepsjeng"})
      .policy("baseline")
      .policy("WFC")
      .instrs(4000);

  const auto serial = ParallelRunner(1).run(spec);
  const auto parallel = ParallelRunner(4).run(spec);

  ASSERT_EQ(serial.flat().size(), parallel.flat().size());
  for (std::size_t i = 0; i < serial.flat().size(); ++i) {
    expect_bitwise_equal(serial.flat()[i], parallel.flat()[i],
                         "cell " + std::to_string(i));
  }
  // And the sweep actually ran: every cell committed instructions.
  for (const auto& r : serial.flat()) EXPECT_GT(r.committed_instrs, 0u);
}

TEST(ParallelRunner, ParallelForCoversEveryIndexOnce) {
  std::vector<int> visits(257, 0);
  ParallelRunner(8).parallel_for(visits.size(),
                                 [&](std::size_t i) { visits[i]++; });
  for (std::size_t i = 0; i < visits.size(); ++i)
    EXPECT_EQ(visits[i], 1) << "index " << i;
}

TEST(ParallelRunner, ZeroThreadsPicksHardwareConcurrency) {
  EXPECT_GE(ParallelRunner(0).threads(), 1);
}

TEST(StatsMerge, HistogramMergeMatchesConcatenatedStream) {
  Histogram a, b, merged;
  for (std::uint64_t v : {1, 1, 2, 5}) {
    a.record(v);
    merged.record(v);
  }
  for (std::uint64_t v : {0, 3, 3, 9}) {
    b.record(v);
    merged.record(v);
  }
  Histogram folded = a;
  folded.merge(b);
  EXPECT_EQ(folded.count(), merged.count());
  EXPECT_EQ(folded.max(), merged.max());
  EXPECT_DOUBLE_EQ(folded.mean(), merged.mean());
  for (double f : {0.25, 0.5, 0.9999}) {
    EXPECT_EQ(folded.percentile(f), merged.percentile(f)) << f;
  }
}

TEST(StatsMerge, CounterAndHitMiss) {
  Counter a, b;
  a.add(3);
  b.add(4);
  a.merge(b);
  EXPECT_EQ(a.value(), 7u);

  HitMiss h1, h2;
  h1.hits.add(9);
  h1.misses.add(1);
  h2.hits.add(1);
  h2.misses.add(9);
  h1.merge(h2);
  EXPECT_EQ(h1.accesses(), 20u);
  EXPECT_DOUBLE_EQ(h1.hit_rate(), 0.5);
}

TEST(ResultTable, CsvRoundTripsRawValues) {
  ResultTable table("T, with comma", {"a", "b"});
  table.add_row("row1", {1.5, 2.0});
  table.add_partial_row("summary", {std::nullopt, 3.25});

  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  table.append_csv(tmp);
  std::rewind(tmp);
  std::string text(4096, '\0');
  text.resize(std::fread(text.data(), 1, text.size(), tmp));
  std::fclose(tmp);

  EXPECT_NE(text.find("table,benchmark,a,b"), std::string::npos);
  EXPECT_NE(text.find("\"T, with comma\",row1,1.5,2"), std::string::npos);
  EXPECT_NE(text.find("summary,,3.25"), std::string::npos);
}

TEST(ExperimentSpec, NamedPolicyAxisMatchesEnumAxis) {
  // The policy() shorthand must build exactly the variants named_variant
  // builds on the "skylake" preset (variant names included): the
  // machines every bench sweeps, and so their byte-identical outputs.
  ExperimentSpec by_name, by_variant;
  by_name.profile_names({"x264"}).policy("baseline").policy("WFC");
  const sim::MachineSpec skylake = sim::machine_preset("skylake");
  by_variant.profile_names({"x264"})
      .variant(named_variant(skylake, "baseline"))
      .variant(named_variant(skylake, "WFC"));
  ASSERT_EQ(by_name.variant_axis().size(), by_variant.variant_axis().size());
  for (std::size_t v = 0; v < by_name.variant_axis().size(); ++v) {
    const auto& a = by_name.variant_axis()[v];
    const auto& b = by_variant.variant_axis()[v];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.config.policy, b.config.policy);
    EXPECT_EQ(a.config.rob_entries, b.config.rob_entries);
    EXPECT_EQ(a.config.shadow_dcache.entries, b.config.shadow_dcache.entries);
  }
  EXPECT_EQ(by_name.variant_axis()[1].name, "WFC");
}

TEST(ExperimentSpec, BaseMachineReshapesEveryVariant) {
  ExperimentSpec spec;
  spec.base_machine(sim::machine_preset("embedded"));
  spec.profile_names({"x264"}).policy("WFB-stall");
  const auto cells = spec.expand();
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].config.fetch_width, 2);
  EXPECT_EQ(cells[0].config.policy, "WFB-stall");
}

TEST(ExperimentSpec, UnknownPolicyNameThrows) {
  ExperimentSpec spec;
  EXPECT_THROW(spec.policy("not-a-policy"), std::out_of_range);
}

TEST(SweepResult, StopNoteFlagsNonConvergedCells) {
  sim::SimResult ok, budget, wedged;
  ok.stop = cpu::StopReason::kMaxInstrs;
  budget.stop = cpu::StopReason::kMaxCycles;
  wedged.stop = cpu::StopReason::kFaultNoHandler;
  const SweepResult sweep(2, 2, {ok, budget, ok, wedged},
                          {"baseline", "WFC"});
  EXPECT_EQ(sweep.stop_note(0), "WFC:max-cycles");
  EXPECT_EQ(sweep.stop_note(1), "WFC:fault");
}

TEST(ResultTable, StopNotesSurfaceInEverySink) {
  ResultTable table("T", {"a"});
  table.add_row("good", {1.0});
  table.annotate_last_row("");  // no-op
  table.add_row("bad", {2.0});
  table.annotate_last_row("WFC:max-cycles");

  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  table.append_csv(tmp);
  std::rewind(tmp);
  std::string text(4096, '\0');
  text.resize(std::fread(text.data(), 1, text.size(), tmp));
  std::fclose(tmp);
  EXPECT_NE(text.find("table,benchmark,a,stop"), std::string::npos);
  EXPECT_NE(text.find("T,good,1,\n"), std::string::npos);
  EXPECT_NE(text.find("T,bad,2,WFC:max-cycles"), std::string::npos);

  std::vector<std::string> items;
  table.append_json(items);
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0].find("stop"), std::string::npos);
  EXPECT_NE(items[1].find("\"stop\":\"WFC:max-cycles\""), std::string::npos);
}

TEST(ResultTable, JsonlSinkWritesAppendJsonObjectsOnePerLine) {
  ResultTable table("T", {"a", "b"});
  table.add_row("good", {1.0, 2.5});
  table.add_row("bad", {3.0, 4.0});
  table.annotate_last_row("WFC:max-cycles");

  std::vector<std::string> items;
  table.append_json(items);
  ASSERT_EQ(items.size(), 2u);

  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  JsonlSink sink(tmp);
  table.emit(sink);
  std::rewind(tmp);
  std::string text(4096, '\0');
  text.resize(std::fread(text.data(), 1, text.size(), tmp));
  std::fclose(tmp);

  // One line per row, each byte-identical to the JSON item emitter's
  // object for that row: JSONL is the same objects, newline-delimited.
  EXPECT_EQ(text, items[0] + "\n" + items[1] + "\n");
}

TEST(ResultTable, NoNotesMeansUnchangedCsvShape) {
  ResultTable table("T", {"a"});
  table.add_row("good", {1.0});
  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  table.append_csv(tmp);
  std::rewind(tmp);
  std::string text(4096, '\0');
  text.resize(std::fread(text.data(), 1, text.size(), tmp));
  std::fclose(tmp);
  EXPECT_NE(text.find("table,benchmark,a\n"), std::string::npos);
  EXPECT_EQ(text.find("stop"), std::string::npos);
}

TEST(BenchOptions, ConfigAndSetFlagsParse) {
  const char* argv[] = {"bench", "--set=policy=WFB", "--config=m.json",
                        "--set", "rob_entries=64", "--threads=2"};
  const auto opts =
      parse_bench_args(static_cast<int>(std::size(argv)),
                       const_cast<char**>(argv));
  EXPECT_EQ(opts.config_path, "m.json");
  ASSERT_EQ(opts.overrides.size(), 2u);
  EXPECT_EQ(opts.overrides[0], "policy=WFB");
  EXPECT_EQ(opts.overrides[1], "rob_entries=64");
  EXPECT_EQ(opts.threads, 2);
}

TEST(SimResultHardening, RateHelpersClampInsteadOfUnderflowing) {
  sim::SimResult r;
  r.dcache_accesses = 100;
  r.dcache_misses = 5;
  r.shadow_dcache_hits = 9;  // disagreeing counters: hits > misses
  EXPECT_DOUBLE_EQ(r.dcache_miss_rate_incl_shadow(), 0.0);
  EXPECT_GE(r.shadow_dcache_hit_fraction(), 0.0);
  EXPECT_LE(r.shadow_dcache_hit_fraction(), 1.0);

  sim::SimResult i;
  i.icache_accesses = 10;
  i.icache_misses = 15;  // more misses than accesses
  i.shadow_icache_hits = 2;
  EXPECT_DOUBLE_EQ(i.shadow_icache_hit_fraction(), 0.0);
}

// ---- cell names -------------------------------------------------------------

TEST(CellName, ParsesOptionalPartsFromTheRightInEitherOrder) {
  const CellName plain = CellName::parse("mcf/WFC/skylake");
  EXPECT_EQ(plain.workload, "mcf");
  EXPECT_EQ(plain.policy, "WFC");
  EXPECT_EQ(plain.preset, "skylake");
  EXPECT_EQ(plain.mode, "detailed");
  EXPECT_EQ(plain.cores, 1);

  const CellName a = CellName::parse("gcc/SHARP/skylake/detailed/cores=2");
  const CellName b = CellName::parse("gcc/SHARP/skylake/cores=2/detailed");
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.cores, 2);
  EXPECT_EQ(CellName::parse("mcf/baseline/skylake/cores=1/sampled").mode,
            "sampled");
}

TEST(CellName, AcceptsAnAbsoluteTracePath) {
  const CellName c =
      CellName::parse("trace:/data/traces/mcf.sstr/baseline/skylake");
  EXPECT_EQ(c.workload, "trace:/data/traces/mcf.sstr");
  EXPECT_EQ(c.policy, "baseline");
  EXPECT_EQ(c.preset, "skylake");
  const CellName sampled =
      CellName::parse("trace:/data/x.sstr/WFC/embedded/sampled");
  EXPECT_EQ(sampled.workload, "trace:/data/x.sstr");
  EXPECT_EQ(sampled.mode, "sampled");
}

/// The parse error for `text`, or "" when it parses.
std::string parse_error(const std::string& text) {
  try {
    CellName::parse(text);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(CellName, RejectsRepeatedCores) {
  const std::string err = parse_error("mcf/baseline/skylake/cores=2/cores=3");
  EXPECT_NE(err.find("'mcf/baseline/skylake/cores=2/cores=3'"),
            std::string::npos)
      << err;
  EXPECT_NE(err.find("cores= given twice"), std::string::npos) << err;
}

TEST(CellName, RejectsRepeatedMode) {
  const std::string err =
      parse_error("mcf/baseline/skylake/sampled/functional");
  EXPECT_NE(err.find("'mcf/baseline/skylake/sampled/functional'"),
            std::string::npos)
      << err;
  EXPECT_NE(err.find("mode given twice"), std::string::npos) << err;
  // A third optional part leaves a mode or cores= in the preset slot.
  EXPECT_NE(parse_error("mcf/baseline/skylake/sampled/cores=1/sampled"), "");
  EXPECT_NE(parse_error("mcf/baseline/sampled/cores=1"), "");
}

TEST(CellName, RejectsEmptyAndMissingParts) {
  for (const char* text : {"", "mcf", "mcf/WFC", "mcf//skylake",
                           "/WFC/skylake", "mcf/WFC/", "mcf/WFC/sampled"}) {
    EXPECT_NE(parse_error(text), "") << "'" << text << "'";
  }
  EXPECT_NE(parse_error("mcf/WFC/skylake/cores=4294967298")
                .find("\"--cells cores\" is out of range"),
            std::string::npos);
}

TEST(CellName, KeyRoundTripsTheDefaultGridAndAnAbsoluteTraceCell) {
  std::vector<CellName> cells = default_perf_cells();
  ASSERT_EQ(cells.size(), 20u);
  cells.push_back({"trace:/data/traces/mcf.sstr", "WFC", "skylake",
                   "sampled"});
  for (const CellName& c : cells) {
    EXPECT_EQ(CellName::parse(c.key()), c) << c.key();
  }
  EXPECT_EQ(cells[11].key(), "gcc/SHARP/skylake/cores=2");
  EXPECT_EQ(cells[16].key(), "mcf/baseline/skylake/sampled");
}

// ---- resolver ---------------------------------------------------------------

TEST(Resolver, InstructionBudgetIsBounded) {
  EXPECT_THROW(check_instrs(0, "--instrs"), std::invalid_argument);
  EXPECT_THROW(check_instrs(kMaxInstrs + 1, "--instrs"),
               std::invalid_argument);
  EXPECT_NO_THROW(check_instrs(1, "--instrs"));
  EXPECT_NO_THROW(check_instrs(kMaxInstrs, "--instrs"));
  try {
    check_instrs(461168601842738791ULL, "--instrs");
    FAIL() << "a wrapping budget was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "--instrs must be in [1, 1000000000]");
  }
}

TEST(Resolver, ResolveCellBuildsThePresetUnderThePolicy) {
  const Cell cell =
      resolve_cell(CellName::parse("mcf/WFC/embedded/cores=2"), {}, 1234);
  EXPECT_EQ(cell.profile.name, "mcf");
  EXPECT_EQ(cell.config.policy, "WFC");
  EXPECT_EQ(cell.config.cores, 2);
  EXPECT_EQ(cell.config.fetch_width,
            sim::machine_preset("embedded").core.fetch_width);
  EXPECT_EQ(cell.instrs, 1234u);
  EXPECT_FALSE(cell.sampling.enabled());

  const Cell tuned = resolve_cell(CellName::parse("mcf/WFC/skylake"),
                                  {"rob_entries=128"}, 1000);
  EXPECT_EQ(tuned.config.rob_entries, 128);
}

TEST(Resolver, ResolveCellRejectsBadNames) {
  const std::vector<std::string> none;
  EXPECT_THROW(resolve_cell({"nope", "WFC", "skylake"}, none, 1000),
               std::out_of_range);
  EXPECT_THROW(resolve_cell({"mcf", "nope", "skylake"}, none, 1000),
               std::out_of_range);
  EXPECT_ANY_THROW(resolve_cell({"mcf", "WFC", "nope"}, none, 1000));
  EXPECT_THROW(resolve_cell({"mcf", "WFC", "skylake", "bogus"}, none, 1000),
               std::invalid_argument);
  EXPECT_THROW(resolve_cell({"mcf", "WFC", "skylake", "detailed", 65}, none,
                            1000),
               std::invalid_argument);
  EXPECT_THROW(resolve_cell({"mcf", "WFC", "skylake", "sampled", 2}, none,
                            1000),
               std::invalid_argument);
  EXPECT_ANY_THROW(resolve_cell({"mcf", "WFC", "skylake"},
                                {"predictor.btb_ways=0"}, 1000));
}

TEST(Resolver, MakeCellCarriesTheMachinesTraceAndSampling) {
  sim::MachineSpec machine = sim::machine_preset("skylake");
  machine.trace = "@";
  machine.sampling.fast_forward_interval = 5000;
  const Cell cell = make_cell(workloads::profile_by_name("lbm"), machine,
                              named_variant(machine, "WFB").config, 777);
  EXPECT_EQ(cell.profile.name, "lbm");
  EXPECT_EQ(cell.profile.trace_file, "@");
  EXPECT_EQ(cell.config.policy, "WFB");
  EXPECT_EQ(cell.sampling.fast_forward_interval, 5000u);
  EXPECT_EQ(cell.instrs, 777u);
}

}  // namespace
}  // namespace safespec::experiment
