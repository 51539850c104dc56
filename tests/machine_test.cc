// MachineSpec / MachineBuilder / registries: JSON round-trip, builder
// validation errors, preset and policy lookup (unknown names must fail
// with a message listing what *is* registered).
#include <gtest/gtest.h>

#include <climits>
#include <iterator>
#include <stdexcept>
#include <string>

#include "isa/program.h"
#include "safespec/policy.h"
#include "sim/machine.h"

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

/// Requires `parse` to throw std::invalid_argument whose message contains
/// `needle`.
template <typename Parse>
void expect_rejected(Parse parse, const std::string& needle) {
  try {
    parse();
    ADD_FAILURE() << "accepted; expected an error naming " << needle;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(MachineSpecJson, RejectsUnknownKeysNamingTheFullPath) {
  // A misspelt field used to be skipped, leaving the preset's ROB of 224.
  expect_rejected(
      [] { MachineSpec::from_json(R"({"core": {"rob_entires": 8}})"); },
      "\"core.rob_entires\"");
  expect_rejected([] { MachineSpec::from_json(R"({"cache": {}})"); },
                  "\"cache\"");
  expect_rejected(
      [] { MachineSpec::from_json(R"({"caches": {"l4": {"ways": 2}}})"); },
      "\"caches.l4\"");
  expect_rejected(
      [] {
        MachineSpec::from_json(
            R"({"memory_map": [{"base": 4096, "bytes": 4096},
                               {"base": 8192, "bytes": 4096,
                                "kernal": true}]})");
      },
      "\"memory_map[1].kernal\"");
  expect_rejected(
      [] { MachineSpec::from_json(R"({"pokes": [{"adr": 4096}]})"); },
      "\"pokes[0].adr\"");
}

TEST(MachineSpecJson, RejectsMistypedValuesNamingTheFullPath) {
  expect_rejected([] { MachineSpec::from_json(R"({"core": 5})"); },
                  "expected an object for \"core\"");
  expect_rejected(
      [] { MachineSpec::from_json(R"({"caches": {"l1d": {"ways": "x"}}})"); },
      "\"caches.l1d.ways\"");
  expect_rejected(
      [] { MachineSpec::from_json(R"({"caches": {"l1d": {"ways": [2]}}})"); },
      "expected a number for \"caches.l1d.ways\"");
  expect_rejected([] { MachineSpec::from_json(R"({"map_text": 1})"); },
                  "expected true/false for \"map_text\"");
  expect_rejected(
      [] {
        MachineSpec::from_json(
            R"({"shadows": {"itlb": {"full_policy": "explode"}}})");
      },
      "\"shadows.itlb.full_policy\"");
  expect_rejected([] { MachineSpec::from_json(R"({"memory_map": {}})"); },
                  "expected an array for \"memory_map\"");
  expect_rejected([] { MachineSpec::from_json(R"({"pokes": [7]})"); },
                  "expected an object for \"pokes[0]\"");
}

// ---- predictor geometry ----------------------------------------------------
// The predictor's constructors shift by table_bits and history_bits and
// divide by btb_ways, so validate() must bound them before a build.

/// Requires validate() to accept `good` and to reject `bad`, naming `key`.
void expect_bound(const std::string& key, const std::string& good,
                  const std::string& bad) {
  MachineSpec spec;
  spec.set(key, good);
  EXPECT_NO_THROW(spec.validate()) << key << "=" << good;
  spec.set(key, bad);
  expect_rejected([&] { spec.validate(); }, key);
}

TEST(MachineSpecValidate, BtbEntriesMustBePositive) {
  expect_bound("predictor.btb_entries", "4", "0");
}

TEST(MachineSpecValidate, BtbWaysMustBePositive) {
  expect_bound("predictor.btb_ways", "1", "0");
}

TEST(MachineSpecValidate, BtbEntriesMustBeAMultipleOfBtbWays) {
  expect_bound("predictor.btb_entries", "1020", "1022");
}

TEST(MachineSpecValidate, TableBitsAtMost31) {
  expect_bound("predictor.table_bits", "31", "32");
}

TEST(MachineSpecValidate, HistoryBitsAtMost63) {
  expect_bound("predictor.history_bits", "63", "64");
}

TEST(MachineSpecValidate, PerceptronWeightsAtMost64) {
  expect_bound("predictor.perceptron_weights", "64", "65");
}

TEST(MachineSpecValidate, RsbDepthMustBePositive) {
  expect_bound("predictor.rsb_depth", "1", "0");
}

// ---- field table coverage ------------------------------------------------
//
// The documents below are to_json() output pinned before the JSON reader,
// writer and --set parser were folded into one field table: the table
// must reproduce them byte for byte.

const char* const kSkylakeJson = R"({
  "preset": "skylake",
  "policy": "baseline",
  "allow_undersized_shadows": false,
  "map_text": true,
  "trace": "",
  "cores": 1,
  "core": {
    "fetch_width": 6,
    "issue_width": 6,
    "commit_width": 6,
    "iq_entries": 96,
    "rob_entries": 224,
    "ldq_entries": 72,
    "stq_entries": 56,
    "fetch_to_dispatch_delay": 5,
    "commit_delay": 4,
    "dib_lines": 1024,
    "alu_latency": 1,
    "mul_latency": 3,
    "div_latency": 20,
    "shadow_hit_latency": 4,
    "sharp_alarm_threshold": 2000,
    "sharp_alarm_epoch": 1000000000
  },
  "caches": {
    "l1i": {
      "size_bytes": 32768,
      "ways": 8,
      "line_bytes": 64,
      "hit_latency": 4
    },
    "l1d": {
      "size_bytes": 32768,
      "ways": 8,
      "line_bytes": 64,
      "hit_latency": 4
    },
    "l2": {
      "size_bytes": 262144,
      "ways": 4,
      "line_bytes": 64,
      "hit_latency": 12
    },
    "l3": {
      "size_bytes": 2097152,
      "ways": 16,
      "line_bytes": 64,
      "hit_latency": 44
    },
    "memory_latency": 191
  },
  "tlbs": {
    "itlb": {
      "entries": 64,
      "ways": 4
    },
    "dtlb": {
      "entries": 64,
      "ways": 4
    }
  },
  "shadows": {
    "dcache": {
      "entries": 72,
      "full_policy": "drop"
    },
    "icache": {
      "entries": 224,
      "full_policy": "drop"
    },
    "dtlb": {
      "entries": 72,
      "full_policy": "drop"
    },
    "itlb": {
      "entries": 224,
      "full_policy": "drop"
    }
  },
  "predictor": {
    "direction": "gshare",
    "table_bits": 12,
    "history_bits": 12,
    "perceptron_weights": 16,
    "btb_entries": 1024,
    "btb_ways": 4,
    "rsb_depth": 16
  },
  "sampling": {
    "fast_forward_interval": 0,
    "warmup_instrs": 2000,
    "detail_instrs": 10000
  },
  "memory_map": [],
  "pokes": []
}
)";

const char* const kEmbeddedJson = R"({
  "preset": "embedded",
  "policy": "baseline",
  "allow_undersized_shadows": false,
  "map_text": true,
  "trace": "",
  "cores": 1,
  "core": {
    "fetch_width": 2,
    "issue_width": 2,
    "commit_width": 2,
    "iq_entries": 16,
    "rob_entries": 32,
    "ldq_entries": 12,
    "stq_entries": 8,
    "fetch_to_dispatch_delay": 3,
    "commit_delay": 2,
    "dib_lines": 1024,
    "alu_latency": 1,
    "mul_latency": 3,
    "div_latency": 20,
    "shadow_hit_latency": 4,
    "sharp_alarm_threshold": 2000,
    "sharp_alarm_epoch": 1000000000
  },
  "caches": {
    "l1i": {
      "size_bytes": 8192,
      "ways": 2,
      "line_bytes": 32,
      "hit_latency": 2
    },
    "l1d": {
      "size_bytes": 8192,
      "ways": 2,
      "line_bytes": 32,
      "hit_latency": 2
    },
    "l2": {
      "size_bytes": 65536,
      "ways": 4,
      "line_bytes": 32,
      "hit_latency": 8
    },
    "l3": {
      "size_bytes": 524288,
      "ways": 8,
      "line_bytes": 32,
      "hit_latency": 24
    },
    "memory_latency": 100
  },
  "tlbs": {
    "itlb": {
      "entries": 16,
      "ways": 4
    },
    "dtlb": {
      "entries": 16,
      "ways": 4
    }
  },
  "shadows": {
    "dcache": {
      "entries": 12,
      "full_policy": "drop"
    },
    "icache": {
      "entries": 32,
      "full_policy": "drop"
    },
    "dtlb": {
      "entries": 12,
      "full_policy": "drop"
    },
    "itlb": {
      "entries": 32,
      "full_policy": "drop"
    }
  },
  "predictor": {
    "direction": "bimodal",
    "table_bits": 10,
    "history_bits": 12,
    "perceptron_weights": 16,
    "btb_entries": 256,
    "btb_ways": 4,
    "rsb_depth": 8
  },
  "sampling": {
    "fast_forward_interval": 0,
    "warmup_instrs": 2000,
    "detail_instrs": 10000
  },
  "memory_map": [],
  "pokes": []
}
)";

/// Every --set key except preset=, each with a value no preset uses.
const char* const kEveryKey[] = {
    "policy=WFC", "allow_undersized_shadows=true", "map_text=false",
    "trace=t.sstr", "cores=3", "fetch_width=5", "issue_width=4",
    "commit_width=3", "iq_entries=90", "rob_entries=200", "ldq_entries=70",
    "stq_entries=50", "fetch_to_dispatch_delay=6", "commit_delay=7",
    "dib_lines=512", "alu_latency=2", "mul_latency=5", "div_latency=21",
    "shadow_hit_latency=6", "sharp_alarm_threshold=1999",
    "sharp_alarm_epoch=999", "l1i.size_bytes=65536", "l1i.ways=4",
    "l1i.line_bytes=32", "l1i.hit_latency=3", "l1d.size_bytes=16384",
    "l1d.ways=2", "l1d.line_bytes=128", "l1d.hit_latency=7",
    "l2.size_bytes=131072", "l2.ways=8", "l2.line_bytes=16",
    "l2.hit_latency=13", "l3.size_bytes=4194304", "l3.ways=32",
    "l3.line_bytes=256", "l3.hit_latency=45", "memory_latency=190",
    "itlb.entries=32", "itlb.ways=2", "dtlb.entries=128", "dtlb.ways=8",
    "shadow_dcache.entries=71", "shadow_dcache.full_policy=stall",
    "shadow_icache.entries=223", "shadow_icache.full_policy=stall",
    "shadow_dtlb.entries=69", "shadow_dtlb.full_policy=stall",
    "shadow_itlb.entries=222", "shadow_itlb.full_policy=stall",
    "predictor.direction=perceptron", "predictor.table_bits=11",
    "predictor.history_bits=13", "predictor.perceptron_weights=15",
    "predictor.btb_entries=2048", "predictor.btb_ways=8",
    "predictor.rsb_depth=17", "sampling.fast_forward_interval=100000",
    "sampling.warmup_instrs=2001", "sampling.detail_instrs=10001"};

const char* const kEveryKeyJson = R"({
  "preset": "skylake",
  "policy": "WFC",
  "allow_undersized_shadows": true,
  "map_text": false,
  "trace": "t.sstr",
  "cores": 3,
  "core": {
    "fetch_width": 5,
    "issue_width": 4,
    "commit_width": 3,
    "iq_entries": 90,
    "rob_entries": 200,
    "ldq_entries": 70,
    "stq_entries": 50,
    "fetch_to_dispatch_delay": 6,
    "commit_delay": 7,
    "dib_lines": 512,
    "alu_latency": 2,
    "mul_latency": 5,
    "div_latency": 21,
    "shadow_hit_latency": 6,
    "sharp_alarm_threshold": 1999,
    "sharp_alarm_epoch": 999
  },
  "caches": {
    "l1i": {
      "size_bytes": 65536,
      "ways": 4,
      "line_bytes": 32,
      "hit_latency": 3
    },
    "l1d": {
      "size_bytes": 16384,
      "ways": 2,
      "line_bytes": 128,
      "hit_latency": 7
    },
    "l2": {
      "size_bytes": 131072,
      "ways": 8,
      "line_bytes": 16,
      "hit_latency": 13
    },
    "l3": {
      "size_bytes": 4194304,
      "ways": 32,
      "line_bytes": 256,
      "hit_latency": 45
    },
    "memory_latency": 190
  },
  "tlbs": {
    "itlb": {
      "entries": 32,
      "ways": 2
    },
    "dtlb": {
      "entries": 128,
      "ways": 8
    }
  },
  "shadows": {
    "dcache": {
      "entries": 71,
      "full_policy": "stall"
    },
    "icache": {
      "entries": 223,
      "full_policy": "stall"
    },
    "dtlb": {
      "entries": 69,
      "full_policy": "stall"
    },
    "itlb": {
      "entries": 222,
      "full_policy": "stall"
    }
  },
  "predictor": {
    "direction": "perceptron",
    "table_bits": 11,
    "history_bits": 13,
    "perceptron_weights": 15,
    "btb_entries": 2048,
    "btb_ways": 8,
    "rsb_depth": 17
  },
  "sampling": {
    "fast_forward_interval": 100000,
    "warmup_instrs": 2001,
    "detail_instrs": 10001
  },
  "memory_map": [
    {
      "base": 9437184,
      "bytes": 8192,
      "kernel": true
    }
  ],
  "pokes": [
    {
      "addr": 9437192,
      "value": 42
    }
  ]
}
)";

TEST(MachineSpecFields, PresetsSerializeAsPinned) {
  EXPECT_EQ(sim::machine_preset("skylake").to_json(), kSkylakeJson);
  EXPECT_EQ(sim::machine_preset("embedded").to_json(), kEmbeddedJson);
  EXPECT_EQ(MachineSpec::from_json(kSkylakeJson).to_json(), kSkylakeJson);
  EXPECT_EQ(MachineSpec::from_json(kEmbeddedJson).to_json(), kEmbeddedJson);
}

TEST(MachineSpecFields, EveryKeyReachesItsOwnJsonField) {
  ASSERT_EQ(std::size(kEveryKey), 60u);
  const std::string skylake = MachineSpec().to_json();
  MachineSpec spec;
  for (const char* key_equals_value : kEveryKey) {
    MachineSpec single;  // alone, each override changes the document
    single.set(key_equals_value);
    EXPECT_NE(single.to_json(), skylake) << key_equals_value;
    spec.set(key_equals_value);
  }
  spec.regions.push_back({0x900000, 0x2000, memory::PagePerm::kKernel});
  spec.pokes.push_back({0x900008, 42});
  EXPECT_EQ(spec.to_json(), kEveryKeyJson);
  EXPECT_EQ(MachineSpec::from_json(kEveryKeyJson).to_json(), kEveryKeyJson);
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
