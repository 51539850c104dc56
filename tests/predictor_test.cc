// Unit tests for the branch prediction stack: direction predictors
// (bimodal / gshare / perceptron), BTB, RSB, the combined PredictorUnit,
// and the adversarial poisoning API the threat model grants.
#include <gtest/gtest.h>

#include <stdexcept>

#include "predictor/branch_predictor.h"
#include "predictor/btb.h"
#include "predictor/predictor_unit.h"

namespace safespec::predictor {
namespace {

using isa::Instruction;
using isa::OpClass;

// ---- direction predictors ---------------------------------------------------

class DirectionSweep : public ::testing::TestWithParam<DirectionKind> {
 protected:
  std::unique_ptr<DirectionPredictor> make() {
    DirectionConfig config;
    config.kind = GetParam();
    config.table_bits = 10;
    config.history_bits = 8;
    config.perceptron_weights = 8;
    return make_direction_predictor(config);
  }
};

TEST_P(DirectionSweep, LearnsAlwaysTaken) {
  auto p = make();
  for (int i = 0; i < 64; ++i) p->update(0x1000, true);
  EXPECT_TRUE(p->predict(0x1000));
}

TEST_P(DirectionSweep, LearnsAlwaysNotTaken) {
  auto p = make();
  for (int i = 0; i < 64; ++i) p->update(0x1000, false);
  EXPECT_FALSE(p->predict(0x1000));
}

TEST_P(DirectionSweep, RelearnsAfterPhaseChange) {
  auto p = make();
  for (int i = 0; i < 64; ++i) p->update(0x2000, true);
  for (int i = 0; i < 64; ++i) p->update(0x2000, false);
  EXPECT_FALSE(p->predict(0x2000));
}

TEST_P(DirectionSweep, ResetForgets) {
  auto p = make();
  for (int i = 0; i < 64; ++i) p->update(0x3000, true);
  p->reset();
  // After reset the predictor must behave identically to a fresh one.
  DirectionConfig config;
  config.kind = GetParam();
  config.table_bits = 10;
  config.history_bits = 8;
  config.perceptron_weights = 8;
  auto fresh = make_direction_predictor(config);
  EXPECT_EQ(p->predict(0x3000), fresh->predict(0x3000));
}

INSTANTIATE_TEST_SUITE_P(AllKinds, DirectionSweep,
                         ::testing::Values(DirectionKind::kBimodal,
                                           DirectionKind::kGshare,
                                           DirectionKind::kPerceptron));

TEST(Gshare, LearnsAlternatingPatternThroughHistory) {
  auto p = make_direction_predictor({.kind = DirectionKind::kGshare,
                                     .table_bits = 12,
                                     .history_bits = 8});
  // Alternating T/N on one pc: gshare separates by history and converges.
  bool taken = false;
  int correct = 0;
  for (int i = 0; i < 400; ++i) {
    taken = !taken;
    if (i >= 200 && p->predict(0x4000) == taken) ++correct;
    p->update(0x4000, taken);
  }
  EXPECT_GT(correct, 180);  // near-perfect in the second half
}

TEST(Perceptron, LearnsHistoryCorrelation) {
  auto p = make_direction_predictor({.kind = DirectionKind::kPerceptron,
                                     .table_bits = 8,
                                     .perceptron_weights = 8});
  // Branch taken iff the previous outcome was taken (strong correlation
  // with history bit 0) — a pattern a bimodal counter cannot learn.
  bool prev = false;
  int correct = 0;
  for (int i = 0; i < 600; ++i) {
    const bool taken = prev;
    if (i >= 300 && p->predict(0x5000) == taken) ++correct;
    p->update(0x5000, taken);
    prev = taken;
  }
  EXPECT_GT(correct, 270);
}

// ---- BTB ---------------------------------------------------------------------

TEST(BtbTest, RejectsZeroWaysBeforeDividingByThem) {
  EXPECT_THROW(Btb({.entries = 64, .ways = 0}), std::invalid_argument);
  EXPECT_THROW(Btb({.entries = 64, .ways = 3}), std::invalid_argument);
}

TEST(BtbTest, MissThenUpdateThenHit) {
  Btb btb({.entries = 64, .ways = 4});
  EXPECT_FALSE(btb.lookup(0x100).has_value());
  btb.update(0x100, 0x2000);
  const auto t = btb.lookup(0x100);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*t, 0x2000u);
}

TEST(BtbTest, UpdateOverwritesTarget) {
  Btb btb({.entries = 64, .ways = 4});
  btb.update(0x100, 0x2000);
  btb.update(0x100, 0x3000);  // this is exactly how poisoning works
  EXPECT_EQ(*btb.lookup(0x100), 0x3000u);
}

TEST(BtbTest, SetConflictEvictsLru) {
  Btb btb({.entries = 8, .ways = 2});  // 4 sets; pcs k*16 alias to set 0
  btb.update(0x00, 1);
  btb.update(0x10, 2);
  btb.lookup(0x00);        // refresh
  btb.update(0x20, 3);     // evicts 0x10
  EXPECT_TRUE(btb.lookup(0x00).has_value());
  EXPECT_FALSE(btb.lookup(0x10).has_value());
  EXPECT_TRUE(btb.lookup(0x20).has_value());
}

// ---- RSB ---------------------------------------------------------------------

TEST(RsbTest, LifoOrder) {
  Rsb rsb(4);
  rsb.push(1);
  rsb.push(2);
  rsb.push(3);
  EXPECT_EQ(rsb.pop(), 3u);
  EXPECT_EQ(rsb.pop(), 2u);
  EXPECT_EQ(rsb.pop(), 1u);
  EXPECT_FALSE(rsb.pop().has_value());  // underflow
}

TEST(RsbTest, OverflowWrapsOldestAway) {
  Rsb rsb(2);
  rsb.push(1);
  rsb.push(2);
  rsb.push(3);  // overwrites 1
  EXPECT_EQ(rsb.pop(), 3u);
  EXPECT_EQ(rsb.pop(), 2u);
  EXPECT_FALSE(rsb.pop().has_value());
}

// ---- PredictorUnit ------------------------------------------------------------

PredictorConfig unit_config() {
  PredictorConfig c;
  c.direction.kind = DirectionKind::kBimodal;
  return c;
}

Instruction make_branch(OpClass op, Addr target = 0) {
  Instruction i;
  i.op = op;
  i.target = target;
  return i;
}

TEST(PredictorUnit, ConditionalUsesDirectionAndStaticTarget) {
  PredictorUnit u(unit_config());
  const auto br = make_branch(OpClass::kBranch, 0x9000);
  for (int i = 0; i < 8; ++i) u.train(0x100, br, true, 0x9000);
  const auto p = u.predict(0x100, br);
  EXPECT_TRUE(p.taken);
  EXPECT_EQ(p.target, 0x9000u);
}

TEST(PredictorUnit, IndirectWithoutBtbEntryHasUnknownTarget) {
  PredictorUnit u(unit_config());
  const auto p = u.predict(0x200, make_branch(OpClass::kBranchIndirect));
  EXPECT_FALSE(p.target_known);
}

TEST(PredictorUnit, PoisonBtbRedirectsIndirectPrediction) {
  PredictorUnit u(unit_config());
  u.poison_btb(0x200, 0xBAD0);
  const auto p = u.predict(0x200, make_branch(OpClass::kBranchIndirect));
  EXPECT_TRUE(p.target_known);
  EXPECT_EQ(p.target, 0xBAD0u);
}

TEST(PredictorUnit, CallPushesReturnAddressForRet) {
  PredictorUnit u(unit_config());
  u.predict(0x300, make_branch(OpClass::kCall, 0x8000));
  const auto p = u.predict(0x8000, make_branch(OpClass::kRet));
  EXPECT_TRUE(p.target_known);
  EXPECT_EQ(p.target, 0x300u + isa::kInstrBytes);
}

TEST(PredictorUnit, MistrainDirectionForcesPrediction) {
  PredictorUnit u(unit_config());
  const auto br = make_branch(OpClass::kBranch, 0x9000);
  u.mistrain_direction(0x100, /*taken=*/false, 16);
  EXPECT_FALSE(u.predict(0x100, br).taken);
  u.mistrain_direction(0x100, /*taken=*/true, 16);
  EXPECT_TRUE(u.predict(0x100, br).taken);
}

TEST(PredictorUnit, ResolutionStatsTrackAccuracy) {
  PredictorUnit u(unit_config());
  u.note_resolution(true);
  u.note_resolution(true);
  u.note_resolution(false);
  EXPECT_EQ(u.direction_stats().hits.value(), 2u);
  EXPECT_EQ(u.direction_stats().misses.value(), 1u);
}

}  // namespace
}  // namespace safespec::predictor
