// Tables III & IV: end-to-end security evaluation, across every
// registered mitigation family.
//
// Runs every attack PoC under baseline / WFB / WFC / SHARP / detect-only
// and prints the paper's check-mark tables (plus the baseline column,
// which the paper leaves implicit: everything leaks on an unprotected
// core). The Transient row (Table IV) additionally demonstrates the §V
// sizing argument: the TSA channel opens on an undersized shadow and
// closes under worst-case ("Secure") sizing for both full-handling
// policies.
//
// The SHARP-family extension (beyond the paper): the cross-core suite is
// run under all five policies, showing which *family* stops which
// channel. The shadow policies stop the transient transmission itself
// (nothing speculative ever reaches the shared levels), SHARP stops the
// eviction-based attack at the replacement level (the spy cannot push
// the victim's bounds word out of the shared cache) but not flush+reload
// (clflush is architectural and coherence-global), and detect-only stops
// nothing but counts alarms — the telemetry columns make the trade
// visible. See docs/mitigations.md for the full comparison.
//
// Each attack suite and TSA configuration is an independent cell (own
// simulator), so the whole evaluation fans out across the experiment
// engine's thread pool; printing stays serial and deterministic.
#include <cstdio>
#include <string>
#include <vector>

#include "attacks/attacks.h"
#include "experiment/experiment.h"

namespace {

const char* mark(bool stopped) { return stopped ? "YES" : "no "; }

}  // namespace

int main(int argc, char** argv) {
  using namespace safespec;
  using attacks::AttackOutcome;

  const auto opts = experiment::parse_bench_args(argc, argv);
  // The PoCs build their own attack machines, so a machine description
  // on the command line would go unused: reject it instead of ignoring it.
  const char* machine_flag = !opts.config_path.empty() ? "--config"
                             : !opts.overrides.empty() ? "--set"
                                                       : nullptr;
  if (machine_flag != nullptr) {
    std::fprintf(stderr,
                 "%s: %s is not accepted: this bench builds its own attack "
                 "machines\n",
                 argv[0], machine_flag);
    return 2;
  }
  const experiment::ParallelRunner runner(opts.threads);

  const std::vector<std::string> policies = {"baseline", "WFB", "WFC",
                                             "SHARP", "detect-only"};
  std::printf("Running attack suites under");
  for (const auto& p : policies) std::printf(" %s", p.c_str());
  std::printf("...\n");

  // One cell per (policy, suite): single-core Table III/IV PoCs and the
  // cross-core suite, all fanned out together.
  const std::size_t n = policies.size();
  std::vector<std::vector<AttackOutcome>> suites(n);
  std::vector<std::vector<AttackOutcome>> cross(n);
  runner.parallel_for(2 * n, [&](std::size_t i) {
    if (i < n) {
      suites[i] = attacks::run_all_attacks(policies[i]);
    } else {
      cross[i - n] = attacks::run_cross_core_attacks(policies[i - n]);
    }
  });
  const auto& wfb = suites[1];
  const auto& wfc = suites[2];
  const auto& sharp = suites[3];
  const auto& detect = suites[4];

  // TSA cells: the §V sizing ablation grid, run concurrently. The
  // worst-case-sized "Secure" rows (72 entries, drop/stall) are the
  // grid's last two cells — no need to run them twice.
  std::vector<attacks::TsaConfig> tsa_configs;
  for (int entries : {4, 8, 16, 32, 72}) {
    for (auto fp : {shadow::FullPolicy::kDrop, shadow::FullPolicy::kStall}) {
      tsa_configs.push_back({"WFC", entries, fp});
    }
  }
  std::vector<attacks::TsaOutcome> tsa_outcomes(tsa_configs.size());
  runner.parallel_for(tsa_configs.size(), [&](std::size_t i) {
    tsa_outcomes[i] = attacks::run_tsa_attack(tsa_configs[i]);
  });

  std::printf("\n=== Attack outcomes (leaked secret vs planted) ===\n");
  std::printf("%-24s %-12s %-8s %-10s %s\n", "attack", "policy", "leaked",
              "recovered", "detail");
  for (std::size_t i = 0; i < n; ++i) {
    for (const auto* suite : {&suites[i], &cross[i]}) {
      for (const AttackOutcome& a : *suite) {
        std::printf("%-24s %-12s %-8s %-10d %s\n", a.name.c_str(),
                    a.policy.c_str(), a.leaked ? "LEAKED" : "-",
                    a.recovered, a.detail.c_str());
      }
    }
  }

  // Table III layout: is the attack *stopped*? SHARP and detect-only do
  // not shadow speculation, so the single-core transient attacks go
  // through exactly as on the baseline — the honest result for a
  // replacement-level defense (its target is the cross-core columns
  // below).
  std::printf("\n=== Table III: security analysis of Meltdown/Spectre ===\n");
  std::printf("%-14s %8s %8s %8s %8s\n", "", "WFC", "WFB", "SHARP", "detect");
  std::printf("%-14s %8s %8s %8s %8s\n", "Meltdown", mark(!wfc[2].leaked),
              mark(!wfb[2].leaked), mark(!sharp[2].leaked),
              mark(!detect[2].leaked));
  std::printf("%-14s %8s %8s %8s %8s\n", "Spectre 1/2",
              mark(!wfc[0].leaked && !wfc[1].leaked),
              mark(!wfb[0].leaked && !wfb[1].leaked),
              mark(!sharp[0].leaked && !sharp[1].leaked),
              mark(!detect[0].leaked && !detect[1].leaked));

  // Table IV: coverage of Spectre-style attacks on other structures.
  std::printf("\n=== Table IV: coverage on other structures ===\n");
  std::printf("%-14s %8s %8s %8s %8s\n", "", "WFC", "WFB", "SHARP", "detect");
  const struct {
    const char* name;
    std::size_t index;
  } structures[] = {{"I-cache", 3}, {"I-TLB", 4}, {"D-TLB", 5}};
  for (const auto& s : structures) {
    std::printf("%-14s %8s %8s %8s %8s\n", s.name,
                mark(!wfc[s.index].leaked), mark(!wfb[s.index].leaked),
                mark(!sharp[s.index].leaked), mark(!detect[s.index].leaked));
  }

  // Transient row: secure sizing closes the channel (both full policies).
  const auto& tsa_drop = tsa_outcomes[tsa_outcomes.size() - 2];
  const auto& tsa_stall = tsa_outcomes[tsa_outcomes.size() - 1];
  std::printf("%-14s %8s %8s   (worst-case sizing; drop/stall)\n",
              "Transient", mark(!tsa_drop.leaked), mark(!tsa_stall.leaked));

  // Cross-core family comparison (cores=2, shared L2/L3): which family
  // stops which channel, and who raises alarms while it happens.
  std::printf("\n=== Cross-core attacks by mitigation family ===\n");
  std::printf("%-24s %-12s %8s %8s %10s %10s\n", "attack", "policy",
              "stopped", "xevict", "alarms", "detections");
  for (std::size_t i = 0; i < n; ++i) {
    for (const AttackOutcome& a : cross[i]) {
      const bool telemetry_only = a.secret < 0;  // prime-detect has no secret
      std::printf("%-24s %-12s %8s %8llu %10llu %10llu\n", a.name.c_str(),
                  a.policy.c_str(), telemetry_only ? "n/a" : mark(!a.leaked),
                  static_cast<unsigned long long>(a.cross_core_evictions),
                  static_cast<unsigned long long>(a.sharp_alarms),
                  static_cast<unsigned long long>(a.sharp_detections));
    }
  }

  // §V ablation: the same channel on an undersized shadow structure.
  std::printf(
      "\n=== TSA sizing ablation (WFC, shadow d-cache entries swept) ===\n");
  std::printf("%-8s %-7s %10s %14s %14s %8s\n", "entries", "policy",
              "bit leaked", "probe(bit0)", "probe(bit1)", "leaks?");
  for (std::size_t i = 0; i < tsa_configs.size(); ++i) {
    const auto& config = tsa_configs[i];
    const auto& out = tsa_outcomes[i];
    std::printf("%-8d %-7s %10d %14llu %14llu %8s\n", config.shadow_entries,
                shadow::to_string(config.full_policy), out.recovered_bit,
                static_cast<unsigned long long>(out.probe_latency_bit0),
                static_cast<unsigned long long>(out.probe_latency_bit1),
                out.leaked ? "LEAK" : "closed");
  }

  if (!opts.csv_path.empty() || !opts.json_path.empty()) {
    experiment::ResultTable stopped(
        "Tables III/IV: attack stopped (1=stopped)",
        {"WFC", "WFB", "SHARP", "detect-only"});
    const struct {
      const char* name;
      std::size_t index;  // run_all_attacks order; Spectre handled below
    } rows[] = {
        {"Meltdown", 2}, {"I-cache", 3}, {"I-TLB", 4}, {"D-TLB", 5},
    };
    const auto stopped_at = [](const std::vector<AttackOutcome>& suite,
                               std::size_t index) {
      return suite[index].leaked ? 0.0 : 1.0;
    };
    stopped.add_row("Spectre 1/2",
                    {!wfc[0].leaked && !wfc[1].leaked ? 1.0 : 0.0,
                     !wfb[0].leaked && !wfb[1].leaked ? 1.0 : 0.0,
                     !sharp[0].leaked && !sharp[1].leaked ? 1.0 : 0.0,
                     !detect[0].leaked && !detect[1].leaked ? 1.0 : 0.0},
                    "%12.0f");
    for (const auto& row : rows) {
      stopped.add_row(row.name,
                      {stopped_at(wfc, row.index), stopped_at(wfb, row.index),
                       stopped_at(sharp, row.index),
                       stopped_at(detect, row.index)},
                      "%12.0f");
    }

    // Both Transient cells are WFC under worst-case sizing (they differ
    // only in full policy), so they get their own labelled table rather
    // than being squeezed into the policy columns.
    experiment::ResultTable transient(
        "Transient attack stopped under worst-case sizing (1=stopped)",
        {"drop", "stall"});
    transient.add_row("Transient", {tsa_drop.leaked ? 0.0 : 1.0,
                                    tsa_stall.leaked ? 0.0 : 1.0},
                      "%12.0f");

    // Cross-core rows: one per (attack, policy), with the telemetry the
    // SHARP family adds. "stopped" is blank (-1) for the prime-detect
    // sweep, which plants no secret.
    experiment::ResultTable xcore(
        "Cross-core attacks by mitigation family",
        {"stopped", "xevict", "alarms", "detections"});
    for (std::size_t i = 0; i < n; ++i) {
      for (const AttackOutcome& a : cross[i]) {
        xcore.add_row(a.name + "/" + a.policy,
                      {a.secret < 0 ? -1.0 : (a.leaked ? 0.0 : 1.0),
                       static_cast<double>(a.cross_core_evictions),
                       static_cast<double>(a.sharp_alarms),
                       static_cast<double>(a.sharp_detections)},
                      "%12.0f");
      }
    }

    experiment::ResultTable ablation(
        "TSA sizing ablation (WFC, shadow d-cache entries swept)",
        {"entries", "bit leaked", "probe(bit0)", "probe(bit1)", "leaks"});
    for (std::size_t i = 0; i < tsa_configs.size(); ++i) {
      const auto& config = tsa_configs[i];
      const auto& out = tsa_outcomes[i];
      ablation.add_row(
          std::string(shadow::to_string(config.full_policy)) + "-" +
              std::to_string(config.shadow_entries),
          {static_cast<double>(config.shadow_entries),
           static_cast<double>(out.recovered_bit),
           static_cast<double>(out.probe_latency_bit0),
           static_cast<double>(out.probe_latency_bit1),
           out.leaked ? 1.0 : 0.0},
          "%12.0f");
    }
    experiment::write_files({&stopped, &transient, &xcore, &ablation}, opts);
  }
  return 0;
}
