// MachineSpec / MachineBuilder / registries: JSON round-trip, builder
// validation errors, preset and policy lookup (unknown names must fail
// with a message listing what *is* registered).
#include <gtest/gtest.h>

#include <climits>
#include <stdexcept>
#include <string>

#include "isa/program.h"
#include "safespec/policy.h"
#include "sim/machine.h"
#include "sim/sim_config.h"

namespace safespec {
namespace {

using sim::MachineBuilder;
using sim::MachineSpec;

isa::Program tiny_program() {
  isa::ProgramBuilder b(0x1000);
  b.movi(1, 7).halt();
  auto program = b.build();
  program.set_entry(0x1000);
  return program;
}

// ---- presets ---------------------------------------------------------------

TEST(MachinePreset, SkylakeMatchesLegacySkylakeConfig) {
  const auto preset = sim::machine_preset("skylake");
  const auto legacy = sim::skylake_config();
  EXPECT_EQ(preset.core.rob_entries, legacy.rob_entries);
  EXPECT_EQ(preset.core.ldq_entries, legacy.ldq_entries);
  EXPECT_EQ(preset.core.hierarchy.l3.size_bytes,
            legacy.hierarchy.l3.size_bytes);
  EXPECT_EQ(preset.core.shadow_icache.entries, legacy.shadow_icache.entries);
  EXPECT_EQ(preset.core.policy, "baseline");
}

TEST(MachinePreset, EmbeddedIsRegisteredAndSecurelySized) {
  const auto spec = sim::machine_preset("embedded");
  EXPECT_EQ(spec.preset, "embedded");
  EXPECT_LT(spec.core.rob_entries, 224);
  // Shadows keep the §V worst-case bound for *this* machine.
  EXPECT_NO_THROW(spec.validate());
}

TEST(MachinePreset, UnknownNameListsRegisteredPresets) {
  try {
    sim::machine_preset("cray-1");
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cray-1"), std::string::npos);
    EXPECT_NE(what.find("skylake"), std::string::npos);
    EXPECT_NE(what.find("embedded"), std::string::npos);
  }
}

// ---- JSON round-trip -------------------------------------------------------

TEST(MachineSpecJson, RoundTripsExactly) {
  MachineSpec spec = sim::machine_preset("skylake");
  spec.core.policy = "WFC";
  spec.core.rob_entries = 128;
  spec.core.shadow_icache.entries = 128;
  spec.core.shadow_itlb.entries = 128;
  spec.core.shadow_dcache.full_policy = shadow::FullPolicy::kStall;
  spec.regions.push_back({0x700000, kPageSize, memory::PagePerm::kUser});
  spec.regions.push_back({0x900000, 2 * kPageSize, memory::PagePerm::kKernel});
  spec.pokes.push_back({0x700008, 42});

  const std::string json = spec.to_json();
  const MachineSpec parsed = MachineSpec::from_json(json);
  EXPECT_EQ(parsed.to_json(), json);
  EXPECT_EQ(parsed.core.policy, "WFC");
  EXPECT_EQ(parsed.core.rob_entries, 128);
  EXPECT_EQ(parsed.core.shadow_dcache.full_policy,
            shadow::FullPolicy::kStall);
  ASSERT_EQ(parsed.regions.size(), 2u);
  EXPECT_EQ(parsed.regions[1].perm, memory::PagePerm::kKernel);
  ASSERT_EQ(parsed.pokes.size(), 1u);
  EXPECT_EQ(parsed.pokes[0].value, 42u);
}

TEST(MachineSpecJson, PartialDocumentKeepsPresetDefaults) {
  const MachineSpec spec = MachineSpec::from_json(
      R"({"preset": "embedded", "policy": "WFB",
          "core": {"rob_entries": 48},
          "shadows": {"icache": {"entries": 48}, "itlb": {"entries": 48}}})");
  EXPECT_EQ(spec.preset, "embedded");
  EXPECT_EQ(spec.core.policy, "WFB");
  EXPECT_EQ(spec.core.rob_entries, 48);
  // Untouched fields come from the embedded preset.
  EXPECT_EQ(spec.core.fetch_width, 2);
  EXPECT_EQ(spec.core.hierarchy.l1d.size_bytes, 8u * 1024u);
}

TEST(MachineSpecJson, HexStringsAcceptedForAddresses) {
  const MachineSpec spec = MachineSpec::from_json(
      R"({"memory_map": [{"base": "0x200000", "bytes": 4096}],
          "pokes": [{"addr": "0x200000", "value": "0xff"}]})");
  ASSERT_EQ(spec.regions.size(), 1u);
  EXPECT_EQ(spec.regions[0].base, 0x200000u);
  EXPECT_EQ(spec.pokes[0].value, 0xffu);
}

TEST(MachineSpecJson, MalformedDocumentThrows) {
  EXPECT_THROW(MachineSpec::from_json("{\"policy\": }"),
               std::invalid_argument);
  EXPECT_THROW(MachineSpec::from_json("[1,2,3]"), std::invalid_argument);
  EXPECT_THROW(MachineSpec::from_json_file("/nonexistent/machine.json"),
               std::invalid_argument);
}

// ---- validation ------------------------------------------------------------

TEST(MachineSpecValidate, RejectsZeroWidths) {
  MachineSpec spec;
  spec.core.issue_width = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(MachineSpecValidate, RejectsDegenerateCacheGeometry) {
  MachineSpec spec;
  spec.core.hierarchy.l1d.size_bytes = 1000;  // not ways*line aligned
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(MachineSpecValidate, RejectsUnknownPolicyListingRegistered) {
  MachineSpec spec;
  spec.core.policy = "no-such-policy";
  try {
    spec.validate();
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-such-policy"), std::string::npos);
    EXPECT_NE(what.find("baseline"), std::string::npos);
    EXPECT_NE(what.find("WFB"), std::string::npos);
    EXPECT_NE(what.find("WFC"), std::string::npos);
    EXPECT_NE(what.find("WFB-stall"), std::string::npos);
  }
}

TEST(MachineSpecValidate, RejectsOverlappingRegions) {
  MachineSpec spec;
  spec.regions.push_back({0x1000, 0x3000, memory::PagePerm::kUser});
  spec.regions.push_back({0x2000, 0x1000, memory::PagePerm::kUser});
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(MachineSpecValidate, RejectsRegionsWrappingTheAddressSpace) {
  // base + bytes overflowing uint64 must not slip past the overlap check.
  MachineSpec spec;
  spec.regions.push_back({0x1000, ~0ull - 0xfff, memory::PagePerm::kUser});
  spec.regions.push_back({0x2000, 0x1000, memory::PagePerm::kUser});
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(MachineSpecValidate, UndersizedShadowsNeedExplicitOptIn) {
  MachineSpec spec;  // skylake: secure bound is LDQ=72 / ROB=224
  spec.core.shadow_dcache.entries = 8;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.allow_undersized_shadows = true;
  EXPECT_NO_THROW(spec.validate());
}

// ---- --set grammar ---------------------------------------------------------

TEST(MachineSpecSet, OverridesNestedFields) {
  MachineSpec spec;
  spec.set("policy=WFB-stall");
  spec.set("rob_entries=64");
  spec.set("l2.size_bytes=524288");
  spec.set("shadow_dcache.entries", "16");
  spec.set("shadow_dcache.full_policy", "stall");
  spec.set("predictor.direction", "perceptron");
  spec.set("allow_undersized_shadows=true");
  EXPECT_EQ(spec.core.policy, "WFB-stall");
  EXPECT_EQ(spec.core.rob_entries, 64);
  EXPECT_EQ(spec.core.hierarchy.l2.size_bytes, 524288u);
  EXPECT_EQ(spec.core.shadow_dcache.entries, 16);
  EXPECT_EQ(spec.core.shadow_dcache.full_policy, shadow::FullPolicy::kStall);
  EXPECT_EQ(spec.core.predictor.direction.kind,
            predictor::DirectionKind::kPerceptron);
}

TEST(MachineSpecSet, PresetReseedsCoreButKeepsPolicy) {
  MachineSpec spec;
  spec.set("policy=WFC");
  spec.set("preset=embedded");
  EXPECT_EQ(spec.preset, "embedded");
  EXPECT_EQ(spec.core.fetch_width, 2);
  EXPECT_EQ(spec.core.policy, "WFC");
}

TEST(MachineSpecJson, SamplingScheduleRoundTrips) {
  MachineSpec spec = sim::machine_preset("skylake");
  spec.sampling.fast_forward_interval = 500'000;
  spec.sampling.warmup_instrs = 3'000;
  spec.sampling.detail_instrs = 7'000;
  const std::string json = spec.to_json();
  const MachineSpec parsed = MachineSpec::from_json(json);
  EXPECT_EQ(parsed.to_json(), json);
  EXPECT_EQ(parsed.sampling.fast_forward_interval, 500'000u);
  EXPECT_EQ(parsed.sampling.warmup_instrs, 3'000u);
  EXPECT_EQ(parsed.sampling.detail_instrs, 7'000u);
  EXPECT_TRUE(parsed.sampling.enabled());
  // A document without a "sampling" object keeps sampling disabled.
  EXPECT_FALSE(
      MachineSpec::from_json(R"({"preset": "skylake"})").sampling.enabled());
}

TEST(MachineSpecSet, SamplingKeysOverrideSchedule) {
  MachineSpec spec;
  spec.set("sampling.fast_forward_interval=100000");
  spec.set("sampling.warmup_instrs=4000");
  spec.set("sampling.detail_instrs", "8000");
  EXPECT_EQ(spec.sampling.fast_forward_interval, 100'000u);
  EXPECT_EQ(spec.sampling.warmup_instrs, 4'000u);
  EXPECT_EQ(spec.sampling.detail_instrs, 8'000u);
}

TEST(MachineSpecValidate, RejectsEnabledSamplingWithZeroDetailWindow) {
  MachineSpec spec = sim::machine_preset("skylake");
  spec.sampling.fast_forward_interval = 1'000;
  spec.sampling.detail_instrs = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.sampling.fast_forward_interval = 0;  // disabled: anything goes
  EXPECT_NO_THROW(spec.validate());
}

// ---- cores axis ------------------------------------------------------------

TEST(MachineSpecJson, CoresRoundTripsAndDefaultsToOne) {
  MachineSpec spec = sim::machine_preset("skylake");
  spec.core.cores = 4;
  const std::string json = spec.to_json();
  const MachineSpec parsed = MachineSpec::from_json(json);
  EXPECT_EQ(parsed.to_json(), json);
  EXPECT_EQ(parsed.core.cores, 4);
  // A document without the field stays single-core.
  EXPECT_EQ(MachineSpec::from_json(R"({"preset": "skylake"})").core.cores, 1);
}

TEST(MachineSpecSet, CoresOverrideAndPresetReseedKeepsCores) {
  MachineSpec spec;
  spec.set("cores=2");
  EXPECT_EQ(spec.core.cores, 2);
  // preset= re-seeds the micro-architecture but cores is a machine-level
  // choice and must survive, like policy does.
  spec.set("preset=embedded");
  EXPECT_EQ(spec.core.fetch_width, 2);
  EXPECT_EQ(spec.core.cores, 2);
  EXPECT_THROW(spec.set("cores=banana"), std::invalid_argument);
}

TEST(MachineSpecValidate, RejectsOutOfRangeCoresAndSampledMulticore) {
  MachineSpec spec = sim::machine_preset("skylake");
  spec.core.cores = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.core.cores = 65;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.core.cores = 2;
  EXPECT_NO_THROW(spec.validate());
  // Sampling fast-forwards one architectural thread; it is single-core
  // only and the combination must be rejected up front.
  spec.sampling.fast_forward_interval = 10'000;
  spec.sampling.detail_instrs = 1'000;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.core.cores = 1;
  EXPECT_NO_THROW(spec.validate());
}

TEST(MachineSpecJson, SharpDetectorFieldsRoundTrip) {
  MachineSpec spec = sim::machine_preset("skylake");
  spec.core.policy = "SHARP";
  spec.core.sharp_alarm_threshold = 50;
  spec.core.sharp_alarm_epoch = 100'000;
  EXPECT_NO_THROW(spec.validate());
  const std::string json = spec.to_json();
  const MachineSpec parsed = MachineSpec::from_json(json);
  EXPECT_EQ(parsed.to_json(), json);
  EXPECT_EQ(parsed.core.policy, "SHARP");
  EXPECT_EQ(parsed.core.sharp_alarm_threshold, 50u);
  EXPECT_EQ(parsed.core.sharp_alarm_epoch, 100'000u);
  // A document without the fields keeps the exemplar defaults.
  const MachineSpec bare = MachineSpec::from_json(R"({"preset": "skylake"})");
  EXPECT_EQ(bare.core.sharp_alarm_threshold, 2000u);
  EXPECT_EQ(bare.core.sharp_alarm_epoch, 1'000'000'000u);
}

TEST(MachineSpecSet, SharpDetectorKeysAndPolicyNames) {
  MachineSpec spec;
  spec.set("policy=SHARP");
  spec.set("sharp_alarm_threshold=7");
  spec.set("sharp_alarm_epoch=500");
  EXPECT_EQ(spec.core.policy, "SHARP");
  EXPECT_EQ(spec.core.sharp_alarm_threshold, 7u);
  EXPECT_EQ(spec.core.sharp_alarm_epoch, 500u);
  EXPECT_NO_THROW(spec.validate());
  spec.set("policy=detect-only");
  EXPECT_NO_THROW(spec.validate());
  // A zero threshold or epoch would make the detector fire on nothing /
  // divide the run into empty epochs; both are rejected.
  spec.set("sharp_alarm_threshold=0");
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.set("sharp_alarm_threshold=2000");
  spec.set("sharp_alarm_epoch=0");
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(MachineSpecSet, RejectsUnknownKeysAndBadValues) {
  MachineSpec spec;
  EXPECT_THROW(spec.set("no_such_field=1"), std::invalid_argument);
  EXPECT_THROW(spec.set("not-an-override"), std::invalid_argument);
  EXPECT_THROW(spec.set("rob_entries=many"), std::invalid_argument);
  // strtoull would silently wrap negatives to huge values.
  EXPECT_THROW(spec.set("memory_latency=-5"), std::invalid_argument);
  EXPECT_THROW(spec.set("l1d.size_bytes=-1"), std::invalid_argument);
  EXPECT_THROW(spec.set("shadow_dcache.full_policy=explode"),
               std::invalid_argument);
  EXPECT_THROW(spec.set("policy=no-such-policy"), std::out_of_range);
}

/// Requires `parse` to throw std::invalid_argument naming both `key` and
/// the rejected `text` as given.
template <typename Parse>
void expect_out_of_range(Parse parse, const std::string& key,
                         const std::string& text) {
  try {
    parse();
    ADD_FAILURE() << key << "=" << text << " was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find(key), std::string::npos) << message;
    EXPECT_NE(message.find(text), std::string::npos) << message;
  }
}

TEST(MachineSpecSet, IntFieldsRejectValuesAboveIntMaxInsteadOfWrapping) {
  // A bare static_cast<int> reads 2^32 + 64 as 64 and 2^32 + 2 as 2.
  MachineSpec spec;
  for (const auto& [key, text] :
       {std::pair<std::string, std::string>{"rob_entries", "4294967360"},
        {"cores", "4294967298"},
        {"cores", "99999999999"},
        {"l1d.ways", "2147483648"},
        {"itlb.entries", "0x100000040"}}) {
    expect_out_of_range([&] { spec.set(key + "=" + text); }, key, text);
  }
  EXPECT_EQ(spec.core.rob_entries, 224);
  EXPECT_EQ(spec.core.cores, 1);
  spec.set("rob_entries=2147483647");  // INT_MAX itself still parses
  EXPECT_EQ(spec.core.rob_entries, INT_MAX);
}

TEST(MachineSpecJson, IntFieldsRejectValuesAboveIntMaxInsteadOfWrapping) {
  expect_out_of_range(
      [] {
        MachineSpec::from_json(R"({"core": {"rob_entries": 4294967360}})");
      },
      "rob_entries", "4294967360");
  expect_out_of_range(
      [] { MachineSpec::from_json(R"({"cores": 4294967298})"); }, "cores",
      "4294967298");
  expect_out_of_range(
      [] {
        MachineSpec::from_json(
            R"({"caches": {"l2": {"ways": "0x80000000"}}})");
      },
      "ways", "0x80000000");
  EXPECT_EQ(
      MachineSpec::from_json(R"({"core": {"rob_entries": 2147483647}})")
          .core.rob_entries,
      INT_MAX);
}

// ---- builder ---------------------------------------------------------------

TEST(MachineBuilderTest, BuildsReadyToRunSimulator) {
  constexpr Addr kData = 0x200000;
  auto sim = MachineBuilder::from_preset("skylake")
                 .policy("WFC")
                 .map_region(kData, kPageSize)
                 .poke(kData, 123)
                 .build(tiny_program());
  EXPECT_EQ(sim->peek(kData), 123u);
  const auto result = sim->run();
  EXPECT_EQ(result.stop, cpu::StopReason::kHalted);
  EXPECT_EQ(sim->core().reg(1), 7u);
  EXPECT_EQ(sim->core().config().policy, "WFC");
}

TEST(MachineBuilderTest, ValidationFailuresSurfaceAtBuild) {
  EXPECT_THROW(
      MachineBuilder().shadow_entries(4, 4).build(tiny_program()),
      std::invalid_argument);
  // Same sizing is fine once explicitly allowed.
  EXPECT_NO_THROW(MachineBuilder()
                      .policy("WFC")
                      .shadow_entries(4, 4)
                      .allow_undersized_shadows()
                      .build(tiny_program()));
}

TEST(MachineBuilderTest, WfbStallSelectableByNameForcesStallShadows) {
  auto sim = MachineBuilder()
                 .policy("WFB-stall")
                 .build(tiny_program());
  // The policy's full-table override reaches the constructed core.
  EXPECT_EQ(sim->core().shadow_dcache().config().full_policy,
            shadow::FullPolicy::kStall);
  EXPECT_EQ(sim->core().shadow_itlb().config().full_policy,
            shadow::FullPolicy::kStall);
  EXPECT_TRUE(
      sim->core().protection_policy().promote_at_branch_resolution());
}

// ---- policy registry -------------------------------------------------------

TEST(PolicyRegistry, ShipsThePaperFamilyPlusWfbStall) {
  const auto names = policy::registered_policy_names();
  for (const char* expected : {"baseline", "WFB", "WFC", "WFB-stall"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
  EXPECT_FALSE(policy::named_policy("baseline").shadows_speculation());
  EXPECT_TRUE(policy::named_policy("WFC").shadows_speculation());
  EXPECT_FALSE(policy::named_policy("WFC").promote_at_branch_resolution());
  EXPECT_TRUE(policy::named_policy("WFB").promote_at_branch_resolution());
  EXPECT_EQ(policy::named_policy("WFB").commit_policy(),
            shadow::CommitPolicy::kWFB);
}

TEST(PolicyRegistry, UnknownNameListsRegisteredPolicies) {
  try {
    policy::named_policy("wfz");
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("wfz"), std::string::npos);
    EXPECT_NE(what.find("baseline"), std::string::npos);
    EXPECT_NE(what.find("WFB-stall"), std::string::npos);
  }
}

}  // namespace
}  // namespace safespec
