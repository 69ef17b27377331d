// Unit tests for the channel-access strategies in isolation.
#include "mac/access_strategy.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/idle_sense.hpp"
#include "util/rng.hpp"

namespace {

using namespace wlan;
using namespace wlan::mac;

WifiParams table1() { return WifiParams{}; }  // CWmin 8, CWmax 1024, m = 7

phy::ControlParams wtop_params(double p) {
  phy::ControlParams c;
  c.has_attempt_probability = true;
  c.attempt_probability = p;
  return c;
}

phy::ControlParams tora_params(double p0, int j) {
  phy::ControlParams c;
  c.has_random_reset = true;
  c.reset_probability = p0;
  c.reset_stage = j;
  return c;
}

// ------------------------------------------------------------- p-persistent

TEST(PPersistent, AttemptFrequencyMatchesP) {
  PPersistentStrategy s(0.25, 1.0, false);
  util::Rng rng(1);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += s.decide_transmit(rng) ? 1 : 0;
  EXPECT_NEAR(hits / static_cast<double>(n), 0.25, 0.01);
}

TEST(PPersistent, WeightTransformLemma1) {
  // p_j = w p / (1 + (w-1) p): odds ratio p_j/(1-p_j) = w * p/(1-p).
  const double p = 0.2;
  for (double w : {0.5, 1.0, 2.0, 3.0, 10.0}) {
    const double pj = PPersistentStrategy::weighted_probability(p, w);
    const double odds = pj / (1.0 - pj);
    const double base_odds = p / (1.0 - p);
    EXPECT_NEAR(odds, w * base_odds, 1e-12) << "w=" << w;
  }
}

TEST(PPersistent, WeightTransformEdgeCases) {
  EXPECT_DOUBLE_EQ(PPersistentStrategy::weighted_probability(0.0, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(PPersistentStrategy::weighted_probability(1.0, 5.0), 1.0);
  EXPECT_DOUBLE_EQ(PPersistentStrategy::weighted_probability(0.3, 1.0), 0.3);
}

TEST(PPersistent, AdaptiveAppliesEveryAck) {
  PPersistentStrategy s(0.1, 2.0, true);
  util::Rng rng(1);
  s.apply_params(wtop_params(0.2), /*own_ack=*/false, rng);
  EXPECT_NEAR(s.attempt_probability(),
              PPersistentStrategy::weighted_probability(0.2, 2.0), 1e-12);
}

TEST(PPersistent, NonAdaptiveIgnoresAcks) {
  PPersistentStrategy s(0.1, 2.0, false);
  util::Rng rng(1);
  s.apply_params(wtop_params(0.9), false, rng);
  EXPECT_DOUBLE_EQ(s.attempt_probability(), 0.1);
}

TEST(PPersistent, IgnoresForeignParams) {
  PPersistentStrategy s(0.1, 1.0, true);
  util::Rng rng(1);
  s.apply_params(tora_params(0.5, 3), true, rng);
  EXPECT_DOUBLE_EQ(s.attempt_probability(), 0.1);
}

TEST(PPersistent, Validation) {
  EXPECT_THROW(PPersistentStrategy(-0.1, 1.0, false), std::invalid_argument);
  EXPECT_THROW(PPersistentStrategy(1.1, 1.0, false), std::invalid_argument);
  EXPECT_THROW(PPersistentStrategy(0.5, 0.0, false), std::invalid_argument);
  PPersistentStrategy s(0.5, 1.0, false);
  EXPECT_THROW(s.set_probability(2.0), std::invalid_argument);
}

// -------------------------------------------------------------- standard DCF

TEST(StandardDcf, CounterWithinWindow) {
  StandardDcfStrategy s(table1());
  util::Rng rng(2);
  // Walk the counter down: at most CWmin slots to the first transmission.
  int slots = 0;
  while (!s.decide_transmit(rng)) ++slots;
  EXPECT_LT(slots, 8);
}

TEST(StandardDcf, StageDoublesOnFailureUpToMax) {
  StandardDcfStrategy s(table1());
  util::Rng rng(3);
  EXPECT_EQ(s.stage(), 0);
  for (int i = 1; i <= 7; ++i) {
    s.on_failure(rng);
    EXPECT_EQ(s.stage(), i);
  }
  s.on_failure(rng);
  EXPECT_EQ(s.stage(), 7);  // capped at m
}

TEST(StandardDcf, SuccessResetsToStageZero) {
  StandardDcfStrategy s(table1());
  util::Rng rng(4);
  s.on_failure(rng);
  s.on_failure(rng);
  EXPECT_EQ(s.stage(), 2);
  s.on_success(rng);
  EXPECT_EQ(s.stage(), 0);
}

TEST(StandardDcf, DrawWithinStageWindow) {
  StandardDcfStrategy s(table1());
  util::Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    s.on_success(rng);  // stage 0, window [0, 7]
    EXPECT_LT(s.counter(), 8u);
    s.on_failure(rng);  // stage 1, window [0, 15]
    EXPECT_LT(s.counter(), 16u);
    s.on_success(rng);
  }
}

TEST(StandardDcf, MeanAttemptProbabilityByStage) {
  StandardDcfStrategy s(table1());
  util::Rng rng(6);
  EXPECT_NEAR(s.attempt_probability(), 2.0 / 9.0, 1e-12);
  s.on_failure(rng);
  EXPECT_NEAR(s.attempt_probability(), 2.0 / 17.0, 1e-12);
}

TEST(StandardDcf, CounterZeroTransmitsRepeatedlyUntilResolved) {
  StandardDcfStrategy s(table1());
  util::Rng rng(7);
  while (!s.decide_transmit(rng)) {
  }
  // Without a success/failure notification, the counter stays at 0 and the
  // strategy keeps requesting transmission (stations always resolve).
  EXPECT_TRUE(s.decide_transmit(rng));
}

// -------------------------------------------------------------- RandomReset

TEST(RandomReset, StartsAtResetStage) {
  RandomResetStrategy s(table1(), 2, 0.5, false);
  EXPECT_EQ(s.stage(), 2);
  EXPECT_NEAR(s.attempt_probability(), 2.0 / 32.0, 1e-12);  // CW = 8*2^2
}

TEST(RandomReset, FailureClimbsStages) {
  RandomResetStrategy s(table1(), 0, 1.0, false);
  util::Rng rng(8);
  for (int i = 1; i <= 7; ++i) {
    s.on_failure(rng);
    EXPECT_EQ(s.stage(), i);
  }
  s.on_failure(rng);
  EXPECT_EQ(s.stage(), 7);
}

TEST(RandomReset, SuccessWithP0OneAlwaysResetsToJ) {
  RandomResetStrategy s(table1(), 3, 1.0, false);
  util::Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    s.on_failure(rng);
    s.on_failure(rng);
    s.on_success(rng);
    EXPECT_EQ(s.stage(), 3);
  }
}

TEST(RandomReset, SuccessWithP0ZeroNeverChoosesJ) {
  RandomResetStrategy s(table1(), 3, 0.0, false);
  util::Rng rng(10);
  for (int i = 0; i < 500; ++i) {
    s.on_success(rng);
    EXPECT_GE(s.stage(), 4);
    EXPECT_LE(s.stage(), 7);
  }
}

TEST(RandomReset, ResetDistributionMatchesDefinition4) {
  // j = 2, p0 = 0.4, m = 7: stage 2 w.p. 0.4, stages 3..7 w.p. 0.12 each.
  RandomResetStrategy s(table1(), 2, 0.4, false);
  util::Rng rng(11);
  std::vector<int> counts(8, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    s.on_success(rng);
    ++counts[static_cast<std::size_t>(s.stage())];
  }
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.4, 0.01);
  for (int i = 3; i <= 7; ++i)
    EXPECT_NEAR(counts[static_cast<std::size_t>(i)] / static_cast<double>(n),
                0.12, 0.01)
        << "stage " << i;
  EXPECT_EQ(counts[0], 0);
  EXPECT_EQ(counts[1], 0);
}

TEST(RandomReset, AdaptiveConsumesOwnAckOnly) {
  RandomResetStrategy s(table1(), 0, 1.0, true);
  util::Rng rng(12);
  s.apply_params(tora_params(0.3, 4), /*own_ack=*/false, rng);
  EXPECT_EQ(s.reset_stage(), 0);
  EXPECT_DOUBLE_EQ(s.reset_probability(), 1.0);
  s.apply_params(tora_params(0.3, 4), /*own_ack=*/true, rng);
  EXPECT_EQ(s.reset_stage(), 4);
  EXPECT_DOUBLE_EQ(s.reset_probability(), 0.3);
}

TEST(RandomReset, NonAdaptiveIgnoresParams) {
  RandomResetStrategy s(table1(), 0, 1.0, false);
  util::Rng rng(13);
  s.apply_params(tora_params(0.3, 4), true, rng);
  EXPECT_EQ(s.reset_stage(), 0);
}

TEST(RandomReset, Validation) {
  EXPECT_THROW(RandomResetStrategy(table1(), -1, 0.5, false),
               std::invalid_argument);
  EXPECT_THROW(RandomResetStrategy(table1(), 8, 0.5, false),
               std::invalid_argument);
  EXPECT_THROW(RandomResetStrategy(table1(), 0, 1.5, false),
               std::invalid_argument);
}

TEST(RandomReset, AttemptFrequencyMatchesTwoOverCw) {
  RandomResetStrategy s(table1(), 0, 1.0, false);  // stage 0, CW = 8
  util::Rng rng(14);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += s.decide_transmit(rng) ? 1 : 0;
  EXPECT_NEAR(hits / static_cast<double>(n), 0.25, 0.01);
}

// ------------------------------------------------------------------ FixedCW

TEST(FixedCw, AttemptProbability) {
  FixedCwStrategy s(15.0);
  EXPECT_NEAR(s.attempt_probability(), 2.0 / 16.0, 1e-12);
  s.set_cw(0.5);  // clamped to 1
  EXPECT_DOUBLE_EQ(s.cw(), 1.0);
  EXPECT_DOUBLE_EQ(s.attempt_probability(), 1.0);
}

TEST(FixedCw, RejectsBadCw) {
  EXPECT_THROW(FixedCwStrategy(0.0), std::invalid_argument);
}

// ---------------------------------------------------------------- IdleSense

TEST(IdleSense, IncreasesCwWhenIdleSlotsBelowTarget) {
  core::IdleSenseStrategy::Options opt;
  opt.initial_cw = 32.0;
  core::IdleSenseStrategy s(opt);
  // 5 observations below the 3.1 target -> CW += epsilon.
  for (int i = 0; i < 5; ++i) s.on_transmission_observed(1.0);
  EXPECT_DOUBLE_EQ(s.cw(), 32.0 + opt.epsilon);
  EXPECT_EQ(s.updates_applied(), 1);
}

TEST(IdleSense, DecreasesCwWhenIdleSlotsAboveTarget) {
  core::IdleSenseStrategy::Options opt;
  opt.initial_cw = 32.0;
  core::IdleSenseStrategy s(opt);
  for (int i = 0; i < 5; ++i) s.on_transmission_observed(10.0);
  EXPECT_DOUBLE_EQ(s.cw(), 32.0 * opt.alpha);
}

TEST(IdleSense, NoUpdateBeforeMaxTrans) {
  core::IdleSenseStrategy s;
  for (int i = 0; i < 4; ++i) s.on_transmission_observed(0.0);
  EXPECT_EQ(s.updates_applied(), 0);
}

TEST(IdleSense, CwClampedToBounds) {
  core::IdleSenseStrategy::Options opt;
  opt.initial_cw = 3.0;
  opt.cw_min = 2.0;
  opt.cw_max = 10.0;
  core::IdleSenseStrategy s(opt);
  for (int round = 0; round < 50; ++round)
    for (int i = 0; i < 5; ++i) s.on_transmission_observed(100.0);
  EXPECT_DOUBLE_EQ(s.cw(), 2.0);
  for (int round = 0; round < 50; ++round)
    for (int i = 0; i < 5; ++i) s.on_transmission_observed(0.0);
  EXPECT_DOUBLE_EQ(s.cw(), 10.0);
}

TEST(IdleSense, TracksLifetimeAverage) {
  core::IdleSenseStrategy s;
  s.on_transmission_observed(2.0);
  s.on_transmission_observed(4.0);
  EXPECT_DOUBLE_EQ(s.average_measured_idle(), 3.0);
}

TEST(IdleSense, Validation) {
  core::IdleSenseStrategy::Options bad;
  bad.max_trans = 0;
  EXPECT_THROW(core::IdleSenseStrategy{bad}, std::invalid_argument);
  core::IdleSenseStrategy::Options bad2;
  bad2.alpha = 1.5;
  EXPECT_THROW(core::IdleSenseStrategy{bad2}, std::invalid_argument);
}

// The batched-backoff contract: checkpoint + restore + replay with the
// same RNG reproduces decide_transmit's state and answers draw-for-draw.
TEST(DecisionCheckpoint, DcfRestoreRewindsCounterAndInitialDraw) {
  StandardDcfStrategy s{WifiParams::ns3_like()};
  util::Rng rng(11, 2);
  s.checkpoint_decision_state();  // before the very first (initial) draw
  util::Rng pre_draw_rng = rng;
  std::vector<bool> first;
  for (int i = 0; i < 6; ++i) first.push_back(s.decide_transmit(rng));
  const auto counter_after = s.counter();
  s.restore_decision_state();
  rng = pre_draw_rng;
  for (int i = 0; i < 6; ++i)
    EXPECT_EQ(s.decide_transmit(rng), first[static_cast<std::size_t>(i)]);
  EXPECT_EQ(s.counter(), counter_after);
}

TEST(DecisionCheckpoint, DcfPartialReplayAdvancesExactly) {
  StandardDcfStrategy s{WifiParams::ns3_like()};
  util::Rng rng(11, 2);
  // Consume the initial draw so the counter is live, then checkpoint.
  (void)s.decide_transmit(rng);
  const auto counter0 = s.counter();
  s.checkpoint_decision_state();
  util::Rng snapshot = rng;
  for (int i = 0; i < 4; ++i) (void)s.decide_transmit(rng);
  // Rollback and replay only 2 of the 4: counter rewinds by exactly 2.
  s.restore_decision_state();
  rng = snapshot;
  for (int i = 0; i < 2; ++i) (void)s.decide_transmit(rng);
  EXPECT_EQ(s.counter() + 2, counter0);
}

TEST(DecisionCheckpoint, StatelessStrategiesAreReplaySafeByDefault) {
  // p-persistent and RandomReset mutate nothing in decide_transmit; a
  // rewound RNG alone must reproduce their answers.
  PPersistentStrategy p(0.3, 1.0, /*adaptive=*/false);
  RandomResetStrategy r(WifiParams::ns3_like(), 1, 0.8, /*adaptive=*/false);
  util::Rng rng(9, 4);
  for (AccessStrategy* s : {static_cast<AccessStrategy*>(&p),
                            static_cast<AccessStrategy*>(&r)}) {
    s->checkpoint_decision_state();
    util::Rng snapshot = rng;
    std::vector<bool> first;
    for (int i = 0; i < 16; ++i) first.push_back(s->decide_transmit(rng));
    s->restore_decision_state();
    rng = snapshot;
    for (int i = 0; i < 16; ++i)
      EXPECT_EQ(s->decide_transmit(rng), first[static_cast<std::size_t>(i)]);
  }
}

// decide_run is the only slot-decision call mac::Station makes (a batch,
// and its replay after a busy interruption). Run on a copy of the strategy
// and of the RNG, it must return what a loop of decide_transmit returns,
// consume the same draws and leave the same strategy state.
struct RunOutcome {
  int count;
  bool transmit;
  std::uint64_t next_draw;
};

template <class S>
RunOutcome loop_decide_transmit(S& s, util::Rng rng, int limit) {
  int k = 0;
  bool transmit = false;
  while (!transmit && k < limit) {
    ++k;
    transmit = s.decide_transmit(rng);
  }
  return {k, transmit, rng.next_u64()};
}

template <class S>
RunOutcome call_decide_run(S& s, util::Rng rng, int limit) {
  bool transmit = true;  // decide_run must set it
  const int k = static_cast<AccessStrategy&>(s).decide_run(rng, limit,
                                                           transmit);
  return {k, transmit, rng.next_u64()};
}

/// Compares decide_run and the loop on copies of `s` for every limit in
/// 0..64 and a few RNG streams; `same_state` compares the copies after.
template <class S, class SameState>
void expect_run_matches_loop(const S& s, SameState same_state,
                             const std::string& what) {
  for (int limit = 0; limit <= 64; ++limit) {
    for (std::uint64_t stream = 0; stream < 4; ++stream) {
      const util::Rng rng(17, stream);
      S by_loop = s;
      S by_run = s;
      const RunOutcome want = loop_decide_transmit(by_loop, rng, limit);
      const RunOutcome got = call_decide_run(by_run, rng, limit);
      EXPECT_EQ(got.count, want.count) << what << " limit=" << limit;
      EXPECT_EQ(got.transmit, want.transmit) << what << " limit=" << limit;
      EXPECT_EQ(got.next_draw, want.next_draw) << what << " limit=" << limit;
      EXPECT_TRUE(same_state(by_run, by_loop)) << what << " limit=" << limit;
    }
  }
}

TEST(DecideRun, PPersistentMatchesDecideTransmitLoop) {
  for (const double p : {0.0, 1e-9, 0.01, 0.5, 1.0}) {
    const PPersistentStrategy s(p, 1.0, /*adaptive=*/false);
    expect_run_matches_loop(
        s,
        [](const PPersistentStrategy& a, const PPersistentStrategy& b) {
          return a.attempt_probability() == b.attempt_probability();
        },
        "p=" + std::to_string(p));
  }
}

TEST(DecideRun, RandomResetMatchesAtEveryStage) {
  const WifiParams params = table1();
  for (int stage = 0; stage <= params.num_backoff_stages(); ++stage) {
    const RandomResetStrategy s(params, stage, 0.5, /*adaptive=*/false);
    ASSERT_EQ(s.stage(), stage);
    expect_run_matches_loop(
        s,
        [](const RandomResetStrategy& a, const RandomResetStrategy& b) {
          return a.stage() == b.stage();
        },
        "stage=" + std::to_string(stage));
  }
}

TEST(DecideRun, IdleSenseMatchesDecideTransmitLoop) {
  for (const double cw : {1.0, 2.0, 32.0, 1000.0}) {
    core::IdleSenseStrategy s;
    s.set_cw(cw);
    expect_run_matches_loop(
        s,
        [](const core::IdleSenseStrategy& a, const core::IdleSenseStrategy& b) {
          return a.cw() == b.cw();
        },
        "cw=" + std::to_string(cw));
  }
}

bool same_dcf(const StandardDcfStrategy& a, const StandardDcfStrategy& b) {
  return a.counter() == b.counter() && a.stage() == b.stage();
}

TEST(DecideRun, DcfMatchesWithCounterBelowAtAndAboveLimit) {
  const WifiParams params = table1();
  int below = 0, at = 0, above = 0;
  for (int stage = 0; stage <= params.num_backoff_stages(); ++stage) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      StandardDcfStrategy s{params};
      util::Rng rng(seed, 3);
      // Past the initial draw, each outcome redraws a live counter at the
      // new stage: the counter the run below starts from.
      (void)s.decide_transmit(rng);
      s.on_success(rng);
      for (int i = 0; i < stage; ++i) s.on_failure(rng);
      ASSERT_EQ(s.stage(), stage);
      expect_run_matches_loop(s, same_dcf, "stage=" + std::to_string(stage));
      for (int limit = 1; limit <= 64; ++limit) {
        const auto c = static_cast<int>(s.counter());
        below += c < limit;
        at += c == limit;
        above += c > limit;
      }
    }
  }
  EXPECT_GT(below, 0);
  EXPECT_GT(at, 0);
  EXPECT_GT(above, 0);
}

TEST(DecideRun, DcfMatchesFreshAndAfterCheckpointRestore) {
  // A fresh station has not drawn its first counter; the first decision
  // does, and limit 0 must not.
  expect_run_matches_loop(StandardDcfStrategy{table1()}, same_dcf, "fresh");
  // The station's rollback: checkpoint, decide, restore, then replay with
  // decide_run. Checkpoints taken before and after the initial draw.
  for (const bool initial_drawn : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      StandardDcfStrategy s{WifiParams::ns3_like()};
      util::Rng rng(seed, 9);
      if (initial_drawn) (void)s.decide_transmit(rng);
      s.checkpoint_decision_state();
      for (int i = 0; i < 5; ++i) (void)s.decide_transmit(rng);
      s.restore_decision_state();
      expect_run_matches_loop(s, same_dcf,
                              initial_drawn ? "restored" : "restored fresh");
    }
  }
}

TEST(DecideRun, BaseClassLoopsOverDecideTransmit) {
  // A strategy that only implements decide_transmit gets the default
  // decide_run, which must stop at the first "transmit".
  struct EveryThird final : AccessStrategy {
    int calls = 0;
    bool decide_transmit(util::Rng& rng) override {
      (void)rng.next_u64();
      return ++calls % 3 == 0;
    }
    void on_success(util::Rng&) override {}
    void on_failure(util::Rng&) override {}
    double attempt_probability() const override { return 1.0 / 3.0; }
    std::string name() const override { return "EveryThird"; }
  };
  expect_run_matches_loop(
      EveryThird{},
      [](const EveryThird& a, const EveryThird& b) { return a.calls == b.calls; },
      "every third");
  EveryThird s;
  util::Rng rng(1);
  bool transmit = false;
  EXPECT_EQ(s.decide_run(rng, 2, transmit), 2);
  EXPECT_FALSE(transmit);
  EXPECT_EQ(s.decide_run(rng, 64, transmit), 1);
  EXPECT_TRUE(transmit);
}

}  // namespace
