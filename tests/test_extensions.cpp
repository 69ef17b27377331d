// Tests for the optional extensions: IID channel errors (paper footnote 1),
// the capture effect, obstacle shadowing (Section I), KW robustness guards
// (dead-zone escape, trust region), beacon-based parameter recovery, and
// live weight changes.
#include <gtest/gtest.h>

#include <memory>

#include "core/kiefer_wolfowitz.hpp"
#include "exp/runner.hpp"
#include "mac/network.hpp"
#include "phy/medium.hpp"
#include "phy/propagation.hpp"
#include "topology/hidden.hpp"

namespace {

using namespace wlan;
using sim::Duration;
using sim::Time;

// ---------------------------------------------------------------- channel

TEST(ChannelErrors, ThroughputScalesWithDeliveryProbability) {
  auto run = [](double fer) {
    auto scenario = exp::ScenarioConfig::connected(1, 1);
    scenario.phy.frame_error_rate = fer;
    exp::RunOptions opts;
    opts.warmup = Duration::seconds(0.5);
    opts.measure = Duration::seconds(5.0);
    return exp::run_scenario(scenario,
                             exp::SchemeConfig::fixed_p_persistent(0.5), opts);
  };
  const auto clean = run(0.0);
  const auto lossy = run(0.3);
  // Retry cycles cost about as much as success cycles, so throughput drops
  // roughly in proportion to the delivery probability.
  EXPECT_NEAR(lossy.total_mbps / clean.total_mbps, 0.7, 0.06);
}

TEST(ChannelErrors, CountedAtTheAp) {
  auto scenario = exp::ScenarioConfig::connected(2, 1);
  scenario.phy.frame_error_rate = 0.2;
  auto net = exp::build_network(scenario,
                                exp::SchemeConfig::fixed_p_persistent(0.05));
  net->start();
  net->run_for(Duration::seconds(2.0));
  EXPECT_GT(net->ap().data_frames_channel_errors(), 0u);
  EXPECT_GT(net->counters().total_failures(), 0u);  // stations see timeouts
}

TEST(ChannelErrors, WTopStillConvergesUnderErrors) {
  // The paper's footnote: IID errors just scale the objective; KW's
  // optimum is unchanged and adaptation still works.
  auto scenario = exp::ScenarioConfig::connected(10, 1);
  scenario.phy.frame_error_rate = 0.2;
  exp::RunOptions opts;
  opts.warmup = Duration::seconds(20.0);
  opts.measure = Duration::seconds(10.0);
  const auto r = exp::run_scenario(scenario, exp::SchemeConfig::wtop_csma(),
                                   opts);
  // ~0.8 x the error-free optimum (~22.8).
  EXPECT_GT(r.total_mbps, 0.8 * 0.85 * 22.8);
}

// ---------------------------------------------------------------- capture

class CaptureProbe : public phy::MediumClient {
 public:
  int clean_rx = 0;
  int corrupt_rx = 0;
  void on_channel_busy(Time) override {}
  void on_channel_idle(Time) override {}
  void on_frame_received(const phy::Frame&, bool clean, Time) override {
    clean ? ++clean_rx : ++corrupt_rx;
  }
};

phy::Frame data_to(phy::NodeId src, phy::NodeId dst) {
  phy::Frame f;
  f.kind = phy::FrameKind::kData;
  f.src = src;
  f.dst = dst;
  f.payload_bits = 8000;
  return f;
}

TEST(Capture, StrongFrameSurvivesWeakInterferer) {
  sim::Simulator simulator;
  phy::DiscPropagation prop(1e9, 1e9, /*path_loss_exponent=*/3.5);
  phy::Medium medium(simulator, prop);
  CaptureProbe ap, near_station, far_station;
  medium.add_node({0, 0}, ap);                 // node 0
  medium.add_node({1, 0}, near_station);       // node 1: strong at AP
  medium.add_node({100, 0}, far_station);      // node 2: weak at AP
  medium.set_capture_ratio(10.0);              // 10 dB-ish threshold
  medium.finalize();

  simulator.schedule_at(Time::from_ns(0), [&] {
    medium.start_transmission(1, data_to(1, 0), Duration::microseconds(100));
  });
  simulator.schedule_at(Time::from_ns(20'000), [&] {
    medium.start_transmission(2, data_to(2, 0), Duration::microseconds(100));
  });
  simulator.run_until(Time::from_seconds(1));

  // Near frame captured (power ratio (101/2)^3.5 >> 10); far frame lost.
  EXPECT_EQ(ap.clean_rx, 1);
  EXPECT_EQ(ap.corrupt_rx, 1);
}

TEST(Capture, DisabledMeansBothCorrupt) {
  sim::Simulator simulator;
  phy::DiscPropagation prop(1e9, 1e9);
  phy::Medium medium(simulator, prop);
  CaptureProbe ap, a, b;
  medium.add_node({0, 0}, ap);
  medium.add_node({1, 0}, a);
  medium.add_node({100, 0}, b);
  medium.finalize();  // capture_ratio defaults to 0 = off

  simulator.schedule_at(Time::from_ns(0), [&] {
    medium.start_transmission(1, data_to(1, 0), Duration::microseconds(100));
  });
  simulator.schedule_at(Time::from_ns(20'000), [&] {
    medium.start_transmission(2, data_to(2, 0), Duration::microseconds(100));
  });
  simulator.run_until(Time::from_seconds(1));
  EXPECT_EQ(ap.clean_rx, 0);
  EXPECT_EQ(ap.corrupt_rx, 2);
}

TEST(Capture, NeverRescuesHalfDuplexReceiver) {
  sim::Simulator simulator;
  phy::DiscPropagation prop(1e9, 1e9);
  phy::Medium medium(simulator, prop);
  CaptureProbe ap, a;
  medium.add_node({0, 0}, ap);
  medium.add_node({1, 0}, a);
  medium.set_capture_ratio(1e-9);  // capture "always" wins...
  medium.finalize();

  // ...but the AP transmitting during a's frame still kills a's copy.
  simulator.schedule_at(Time::from_ns(0), [&] {
    medium.start_transmission(1, data_to(1, 0), Duration::microseconds(100));
  });
  simulator.schedule_at(Time::from_ns(10'000), [&] {
    phy::Frame ack;
    ack.kind = phy::FrameKind::kAck;
    ack.src = 0;
    ack.dst = 1;
    medium.start_transmission(0, ack, Duration::microseconds(20));
  });
  simulator.run_until(Time::from_seconds(1));
  EXPECT_EQ(ap.clean_rx, 0);
  EXPECT_EQ(ap.corrupt_rx, 1);
}

TEST(Capture, RxPowerDefaultsEqual) {
  // Base-class default: all links power 1 -> capture impossible for
  // thresholds > 1.
  std::vector<std::vector<bool>> m{{false, true}, {true, false}};
  phy::ExplicitGraph g(m, m);
  EXPECT_DOUBLE_EQ(
      g.rx_power(phy::graph_position(0), phy::graph_position(1)), 1.0);
}

TEST(Capture, HiddenScenarioThroughputImproves) {
  auto scenario = exp::ScenarioConfig::hidden(20, 16.0, 1);
  exp::RunOptions opts;
  opts.warmup = Duration::seconds(1.0);
  opts.measure = Duration::seconds(4.0);
  const auto base =
      exp::run_scenario(scenario, exp::SchemeConfig::standard(), opts);
  scenario.phy.capture_ratio = 4.0;
  const auto cap =
      exp::run_scenario(scenario, exp::SchemeConfig::standard(), opts);
  EXPECT_GT(cap.total_mbps, base.total_mbps);
}

// --------------------------------------------------------------- shadowing

TEST(Shadowing, DeterministicAndSymmetric) {
  phy::ShadowedDisc prop(1e9, 24.0, 0.5, /*seed=*/7, {{0, 0}});
  phy::ShadowedDisc same(1e9, 24.0, 0.5, 7, {{0, 0}});
  int shadowed = 0;
  for (int i = 0; i < 100; ++i) {
    const phy::Vec2 a{static_cast<double>(i), 1.0};
    const phy::Vec2 b{2.0, static_cast<double>(i)};
    EXPECT_EQ(prop.shadowed(a, b), prop.shadowed(b, a));
    EXPECT_EQ(prop.shadowed(a, b), same.shadowed(a, b));
    if (prop.shadowed(a, b)) ++shadowed;
  }
  EXPECT_GT(shadowed, 20);
  EXPECT_LT(shadowed, 80);  // ~50% expected
}

TEST(Shadowing, SeedChangesPattern) {
  phy::ShadowedDisc a(1e9, 24.0, 0.5, 1, {{0, 0}});
  phy::ShadowedDisc b(1e9, 24.0, 0.5, 2, {{0, 0}});
  int differing = 0;
  for (int i = 0; i < 100; ++i) {
    const phy::Vec2 u{static_cast<double>(i), 0.0};
    const phy::Vec2 v{0.0, static_cast<double>(i + 1)};
    if (a.shadowed(u, v) != b.shadowed(u, v)) ++differing;
  }
  EXPECT_GT(differing, 10);
}

TEST(Shadowing, ProtectedPositionNeverShadowed) {
  const phy::Vec2 ap{0, 0};
  phy::ShadowedDisc prop(1e9, 24.0, 1.0, 3, {ap});
  for (int i = 1; i < 50; ++i) {
    const phy::Vec2 s{static_cast<double>(i % 7), static_cast<double>(i % 5)};
    if (s == ap) continue;
    EXPECT_TRUE(prop.can_sense(ap, s));
    EXPECT_TRUE(prop.can_sense(s, ap));
  }
}

TEST(Shadowing, ProbabilityExtremes) {
  phy::ShadowedDisc none(1e9, 24.0, 0.0, 1, {{0, 0}});
  phy::ShadowedDisc all(1e9, 24.0, 1.0, 1, {{0, 0}});
  const phy::Vec2 a{1, 2}, b{3, 4};
  EXPECT_FALSE(none.shadowed(a, b));
  EXPECT_TRUE(all.shadowed(a, b));
  EXPECT_FALSE(all.can_sense(a, b));
  EXPECT_DOUBLE_EQ(all.rx_power(a, b), 0.0);
}

TEST(Shadowing, CreatesHiddenPairsInConnectedGeometry) {
  // Section I: obstacles create hidden nodes that the "sensing radius =
  // 2x transmission radius" rule cannot remove.
  const auto scenario = exp::ScenarioConfig::shadowed(20, 0.3, /*seed=*/1);
  const auto plan = exp::make_plan(scenario);
  const topology::Layout layout{plan.aps[0], plan.stations};
  const auto prop = exp::make_propagation(scenario);
  EXPECT_GT(topology::count_hidden_pairs(layout, *prop), 0u);

  // Without shadowing the same layout is fully connected.
  const auto plain = exp::ScenarioConfig::connected(20, 1);
  EXPECT_EQ(topology::count_hidden_pairs(layout, *exp::make_propagation(plain)),
            0u);
}

TEST(Shadowing, ToraOutperformsIdleSenseUnderShadowing) {
  const auto scenario = exp::ScenarioConfig::shadowed(20, 0.3, 1);
  exp::RunOptions opts;
  opts.warmup = Duration::seconds(12.0);
  opts.measure = Duration::seconds(8.0);
  const auto tora =
      exp::run_scenario(scenario, exp::SchemeConfig::tora_csma(), opts);
  const auto idle = exp::run_scenario(
      scenario, exp::SchemeConfig::idle_sense_scheme(), opts);
  EXPECT_GT(tora.total_mbps, idle.total_mbps);
  EXPECT_GT(tora.total_mbps, 10.0);
}

// ------------------------------------------------------------ KW guards

TEST(KwGuards, DeadZoneEscapeStepsDown) {
  core::KwOptions o;
  o.initial = 0.8;
  o.probe_min = 0.0;
  o.probe_max = 1.0;
  o.value_min = 0.0;
  o.value_max = 1.0;
  o.dead_measurement_threshold = 0.1;
  core::KieferWolfowitz kw(o);
  const double b = kw.b_k();
  kw.report(0.0);
  kw.report(0.05);  // both <= threshold: escape down by b_k
  EXPECT_NEAR(kw.estimate(), 0.8 - b, 1e-12);
}

TEST(KwGuards, DeadZoneEscapeRespectsFloor) {
  core::KwOptions o;
  o.initial = 0.005;
  o.probe_min = 0.0;
  o.probe_max = 1.0;
  o.value_min = 0.0;
  o.value_max = 1.0;
  o.dead_measurement_threshold = 0.1;
  o.dead_zone_floor = 0.01;  // estimate below floor: no escape
  core::KieferWolfowitz kw(o);
  kw.report(0.0);
  kw.report(0.0);  // zero gradient, no escape
  EXPECT_NEAR(kw.estimate(), 0.005, 1e-12);
}

TEST(KwGuards, LiveMeasurementDisablesEscape) {
  core::KwOptions o;
  o.initial = 0.8;
  o.dead_measurement_threshold = 0.1;
  o.probe_max = 1.0;
  core::KieferWolfowitz kw(o);
  kw.report(5.0);   // plus probe alive
  kw.report(0.0);   // minus dead -> normal (positive) gradient step
  EXPECT_GT(kw.estimate(), 0.8);
}

TEST(KwGuards, TrustRegionCapsStep) {
  core::KwOptions o;
  o.initial = 0.5;
  o.probe_max = 1.0;
  o.max_step = 0.1;
  core::KieferWolfowitz kw(o);
  kw.report(1000.0);
  kw.report(0.0);  // raw step would be huge
  EXPECT_NEAR(kw.estimate(), 0.6, 1e-12);
  kw.report(0.0);
  kw.report(1000.0);
  EXPECT_NEAR(kw.estimate(), 0.5, 1e-12);  // capped downward too
}

// ------------------------------------------------------------ beacons

TEST(Beacons, SentOnlyWithController) {
  auto with = exp::build_network(exp::ScenarioConfig::connected(5, 1),
                                 exp::SchemeConfig::wtop_csma());
  with->start();
  with->run_for(Duration::seconds(2.0));
  EXPECT_GT(with->ap().beacons_sent(), 10u);

  auto without = exp::build_network(exp::ScenarioConfig::connected(5, 1),
                                    exp::SchemeConfig::standard());
  without->start();
  without->run_for(Duration::seconds(2.0));
  EXPECT_EQ(without->ap().beacons_sent(), 0u);
}

TEST(Beacons, RecoverFromCollisionSaturatedStart) {
  // Force the worst case: the controller starts at pval = 0.9 and the
  // stations also start at p = 0.9 — a network that is born dead. Without
  // beacons no ACK could ever distribute a better probe; with them (plus
  // the dead-zone escape) the system must recover.
  auto scenario = exp::ScenarioConfig::connected(30, 2);
  auto scheme = exp::SchemeConfig::wtop_csma();
  scheme.wtop.kw.initial = 0.9;

  auto net = exp::build_network(scenario, scheme);
  for (int i = 0; i < net->num_stations(); ++i)
    static_cast<mac::PPersistentStrategy&>(net->station(i).strategy())
        .set_probability(0.9);
  net->start();
  net->run_for(Duration::seconds(25.0));
  net->reset_counters();
  net->run_for(Duration::seconds(10.0));
  EXPECT_GT(net->total_mbps(), 15.0);
}

// ------------------------------------------------------------ live weights

TEST(LiveWeights, ChangeTakesEffectMidRun) {
  auto net = exp::build_network(exp::ScenarioConfig::connected(4, 6),
                                exp::SchemeConfig::wtop_csma());
  net->start();
  net->run_for(Duration::seconds(15.0));
  static_cast<mac::PPersistentStrategy&>(net->station(0).strategy())
      .set_weight(4.0);
  net->run_for(Duration::seconds(5.0));  // settle
  net->reset_counters();
  net->run_for(Duration::seconds(15.0));
  const auto per = net->counters().per_node_mbps(net->measured_duration());
  EXPECT_NEAR(per[0] / per[1], 4.0, 1.0);
}

}  // namespace
