// Unit tests for the AP-side controllers (wTOP-CSMA, TORA-CSMA) driven with
// synthetic packet streams — no simulator involved.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/tora_csma.hpp"
#include "core/wtop_csma.hpp"
#include "par/thread_pool.hpp"

namespace {

using namespace wlan;
using namespace wlan::core;
using sim::Duration;
using sim::Time;

phy::Frame data_frame(std::int64_t bits = 8000) {
  phy::Frame f;
  f.kind = phy::FrameKind::kData;
  f.src = 1;
  f.dst = 0;
  f.payload_bits = bits;
  return f;
}

/// Pushes `count` packets spaced uniformly across `span` starting at `t0`,
/// plus one packet at exactly t0 + span that closes the segment (segment
/// boundaries are evaluated on packet arrival, Algorithm 1 line 5).
template <typename Controller>
void feed_packets(Controller& c, Time t0, Duration span, int count,
                  std::int64_t bits = 8000) {
  for (int i = 0; i < count; ++i) {
    c.on_data_received(data_frame(bits), t0 + (span / count) * i);
  }
  c.on_data_received(data_frame(bits), t0 + span);
}

TEST(WTopController, FillsAckWithProbe) {
  WTopCsmaController c;
  phy::ControlParams params;
  c.fill_ack(params, Time::zero());
  ASSERT_TRUE(params.has_attempt_probability);
  EXPECT_DOUBLE_EQ(params.attempt_probability, c.current_probe());
  EXPECT_FALSE(params.has_random_reset);
}

TEST(WTopController, SegmentClosesAfterUpdatePeriod) {
  WTopCsmaController::Options opt;
  opt.update_period = Duration::milliseconds(250);
  WTopCsmaController c(opt);
  EXPECT_EQ(c.iterations(), 0);
  // One full segment of packets -> plus measurement stored (no iteration
  // completes until the minus segment also closes).
  feed_packets(c, Time::zero(), Duration::milliseconds(250), 100);
  feed_packets(c, Time::from_seconds(0.25), Duration::milliseconds(250), 100);
  EXPECT_EQ(c.iterations(), 1);
}

TEST(WTopController, GradientMovesTowardBetterProbe) {
  WTopCsmaController c;
  // Plus probe earns much more throughput than minus: estimate must rise.
  const double before = c.estimate();
  feed_packets(c, Time::zero(), Duration::milliseconds(250), 200);  // Splus
  feed_packets(c, Time::from_seconds(0.25), Duration::milliseconds(250),
               10);  // Sminus
  EXPECT_GT(c.estimate(), before);

  WTopCsmaController c2;
  feed_packets(c2, Time::zero(), Duration::milliseconds(250), 10);
  feed_packets(c2, Time::from_seconds(0.25), Duration::milliseconds(250), 200);
  EXPECT_LT(c2.estimate(), before);
}

TEST(WTopController, ThroughputMeasuredInMbps) {
  WTopCsmaController c;
  // 250 ms segments of 8000-bit packets: 501 packets are 16.032 Mb/s (the
  // plus segment), 251 are 8.032 Mb/s (the minus segment).
  feed_packets(c, Time::zero(), Duration::milliseconds(250), 500);
  feed_packets(c, Time::from_seconds(0.25), Duration::milliseconds(250), 250);
  ASSERT_EQ(c.iterations(), 1);
  // The gradient of that first iteration is (y+ - y-) / b_k at k = 2.
  EXPECT_NEAR(c.optimizer().last_gradient() * std::pow(2.0, -1.0 / 3.0), 8.0,
              1e-9);
}

TEST(ToraController, FillsAckWithP0AndStage) {
  mac::WifiParams params;
  ToraCsmaController c(params);
  phy::ControlParams p;
  c.fill_ack(p, Time::zero());
  ASSERT_TRUE(p.has_random_reset);
  EXPECT_DOUBLE_EQ(p.reset_probability, c.current_probe());
  EXPECT_EQ(p.reset_stage, 0);
  EXPECT_FALSE(p.has_attempt_probability);
}

TEST(ToraController, StageEscapesUpWhenP0PinsLow) {
  mac::WifiParams params;  // m = 7
  ToraCsmaController::Options opt;
  ToraCsmaController c(params, opt);
  // Feed segments where the minus probe always wins by a lot: pval is
  // driven to 0, crossing delta_low and bumping the stage.
  Time t = Time::zero();
  for (int iter = 0; iter < 30 && c.stage() == 0; ++iter) {
    feed_packets(c, t, Duration::milliseconds(250), 10);  // weak plus
    t += Duration::milliseconds(250);
    feed_packets(c, t, Duration::milliseconds(250), 300);  // strong minus
    t += Duration::milliseconds(250);
  }
  EXPECT_GE(c.stage(), 1);
  // Stage change resets pval to 0.5.
  EXPECT_NEAR(c.estimate(), 0.5, 0.5);  // was re-centred, then kept moving
  EXPECT_GT(c.stage_changes(), 0);
}

TEST(ToraController, StageEscapesDownWhenP0PinsHigh) {
  mac::WifiParams params;
  ToraCsmaController c(params, ToraCsmaController::Options{},
                       /*initial_stage=*/3);
  Time t = Time::zero();
  for (int iter = 0; iter < 30 && c.stage() == 3; ++iter) {
    feed_packets(c, t, Duration::milliseconds(250), 300);  // strong plus
    t += Duration::milliseconds(250);
    feed_packets(c, t, Duration::milliseconds(250), 10);  // weak minus
    t += Duration::milliseconds(250);
  }
  EXPECT_EQ(c.stage(), 2);
}

TEST(ToraController, StageNeverLeavesBounds) {
  mac::WifiParams params;  // stages 0..7, j in [0, 6]
  ToraCsmaController c(params);
  Time t = Time::zero();
  for (int iter = 0; iter < 200; ++iter) {
    feed_packets(c, t, Duration::milliseconds(250), 10);
    t += Duration::milliseconds(250);
    feed_packets(c, t, Duration::milliseconds(250), 300);
    t += Duration::milliseconds(250);
  }
  EXPECT_LE(c.stage(), params.num_backoff_stages() - 1);
  EXPECT_GE(c.stage(), 0);
}

TEST(ToraController, Validation) {
  mac::WifiParams params;
  EXPECT_THROW(
      ToraCsmaController(params, ToraCsmaController::Options{}, /*stage=*/7),
      std::invalid_argument);
  EXPECT_THROW(
      ToraCsmaController(params, ToraCsmaController::Options{}, /*stage=*/-1),
      std::invalid_argument);
  ToraCsmaController::Options bad;
  bad.delta_low = 0.9;
  bad.delta_high = 0.1;
  EXPECT_THROW(ToraCsmaController(params, bad), std::invalid_argument);
}

TEST(WTopController, IndependentControllersAreIsolatedAcrossPoolLanes) {
  // Controllers driven on thread-pool lanes (as run_sweep does with whole
  // simulations) must land exactly where serially driven twins land.
  auto drive = [](int packets_per_segment) {
    WTopCsmaController c;
    for (int seg = 0; seg < 4; ++seg)
      feed_packets(c, Time::from_seconds(0.25 * seg),
                   Duration::milliseconds(250), packets_per_segment);
    return c.estimate();
  };
  const std::vector<int> loads{10, 50, 100, 200, 300, 400};
  std::vector<double> serial;
  for (const int load : loads) serial.push_back(drive(load));

  wlan::par::ThreadPool pool(4);
  const auto parallel = pool.parallel_map<double>(
      loads.size(), [&](std::size_t i) { return drive(loads[i]); });
  EXPECT_EQ(parallel, serial);
}

}  // namespace
