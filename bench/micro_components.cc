// google-benchmark microbenchmarks of the simulator's building blocks:
// cache/TLB lookup throughput, shadow-table operations, predictor
// throughput, and whole-core simulation rate. These are *simulator
// engineering* numbers (host-side), not architecture results — useful to
// keep the sweep benches fast and to catch performance regressions.
#include <benchmark/benchmark.h>

#include "experiment/experiment.h"
#include "isa/program.h"
#include "memory/cache.h"
#include "memory/tlb.h"
#include "predictor/branch_predictor.h"
#include "safespec/shadow_structures.h"
#include "sim/machine.h"
#include "workloads/runner.h"

namespace {

using namespace safespec;

void BM_CacheAccess(benchmark::State& state) {
  memory::Cache cache({.name = "L1D",
                       .size_bytes = 32 * 1024,
                       .ways = 8,
                       .line_bytes = 64,
                       .hit_latency = 4});
  Rng rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(rng.below(4096)));
  }
}
BENCHMARK(BM_CacheAccess);

void BM_CacheFillEvict(benchmark::State& state) {
  memory::Cache cache({.name = "L1D",
                       .size_bytes = 32 * 1024,
                       .ways = 8,
                       .line_bytes = 64,
                       .hit_latency = 4});
  Addr line = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.fill(line++));
  }
}
BENCHMARK(BM_CacheFillEvict);

void BM_TlbAccess(benchmark::State& state) {
  memory::Tlb tlb({.name = "dTLB", .entries = 64, .ways = 4});
  for (Addr p = 0; p < 64; ++p) tlb.fill({p, p, false});
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tlb.access(rng.below(96)));
  }
}
BENCHMARK(BM_TlbAccess);

void BM_ShadowAcquireRelease(benchmark::State& state) {
  shadow::ShadowCache table({.name = "sdc", .entries =
                             static_cast<int>(state.range(0))});
  Addr line = 0;
  for (auto _ : state) {
    const auto id = table.insert(line++, {});
    if (id != shadow::ShadowCache::kNone) table.release(id);
  }
}
BENCHMARK(BM_ShadowAcquireRelease)->Arg(8)->Arg(72)->Arg(224);

void BM_PredictorGshare(benchmark::State& state) {
  auto pred = predictor::make_direction_predictor(
      {.kind = predictor::DirectionKind::kGshare,
       .table_bits = 12,
       .history_bits = 12});
  Addr pc = 0x1000;
  bool taken = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pred->predict(pc));
    pred->update(pc, taken);
    pc += 4;
    taken = !taken;
  }
}
BENCHMARK(BM_PredictorGshare);

void BM_PredictorPerceptron(benchmark::State& state) {
  auto pred = predictor::make_direction_predictor(
      {.kind = predictor::DirectionKind::kPerceptron,
       .table_bits = 10,
       .perceptron_weights = 16});
  Addr pc = 0x1000;
  bool taken = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pred->predict(pc));
    pred->update(pc, taken);
    pc += 4;
    taken = !taken;
  }
}
BENCHMARK(BM_PredictorPerceptron);

/// Whole-core simulation rate (committed instructions per host second),
/// reported as items/s.
void BM_CoreSimulationRate(benchmark::State& state) {
  const auto machine = sim::machine_preset("skylake");
  const auto cell = experiment::make_cell(
      workloads::profile_by_name("x264"), machine,
      experiment::named_variant(machine, state.range(0) != 0 ? "WFC"
                                                             : "baseline")
          .config,
      10'000);
  for (auto _ : state) {
    const auto result = experiment::run_cell(cell);
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(
                                result.committed_instrs));
  }
}
BENCHMARK(BM_CoreSimulationRate)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// Whole-sweep wall clock through the experiment engine: an 8-cell grid
/// (4 profiles x {baseline, WFC}) run with the given thread count. The
/// arg sweep shows the parallel runner's scaling on the host (items/s is
/// cells per second); results are bitwise identical across thread counts.
void BM_ParallelSweep(benchmark::State& state) {
  experiment::ExperimentSpec spec;
  spec.profile_names({"exchange2", "x264", "deepsjeng", "namd"})
      .policy("baseline")
      .policy("WFC")
      .instrs(10'000);
  const experiment::ParallelRunner runner(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const auto sweep = runner.run(spec);
    benchmark::DoNotOptimize(sweep.flat().data());
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(sweep.flat().size()));
  }
}
BENCHMARK(BM_ParallelSweep)->Arg(1)->Arg(2)->Arg(4)->Arg(0)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
