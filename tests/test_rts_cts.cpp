// Tests of the RTS/CTS/NAV machinery — the hidden-node countermeasure the
// paper's Section I discusses (and argues is usually disabled).
#include <gtest/gtest.h>

#include <memory>

#include "exp/runner.hpp"
#include "mac/network.hpp"
#include "phy/propagation.hpp"

namespace {

using namespace wlan;
using namespace wlan::mac;
using sim::Duration;
using sim::Time;

WifiParams rts_params() {
  WifiParams p;
  p.rts_threshold_bits = 0;  // every data frame uses RTS/CTS
  return p;
}

std::unique_ptr<phy::PropagationModel> everyone_connected() {
  return std::make_unique<phy::DiscPropagation>(1e9, 1e9);
}

/// AP node 0; stations 1 and 2 mutually hidden, both connected to the AP.
std::unique_ptr<phy::PropagationModel> hidden_pair_graph() {
  std::vector<std::vector<bool>> sense{{false, true, true},
                                       {true, false, false},
                                       {true, false, false}};
  return std::make_unique<phy::ExplicitGraph>(sense, sense);
}

TEST(WifiParamsRts, ThresholdSemantics) {
  WifiParams p;
  EXPECT_FALSE(p.rts_cts_enabled());  // default 2347 octets: disabled
  p.rts_threshold_bits = 0;
  EXPECT_TRUE(p.rts_cts_enabled());
  p.rts_threshold_bits = p.payload_bits;  // strictly-greater rule
  EXPECT_FALSE(p.rts_cts_enabled());
}

TEST(WifiParamsRts, ControlFrameAirtimes) {
  const WifiParams p = rts_params();
  // 160 bits at 6 Mb/s = 26.67us + 20us preamble.
  EXPECT_NEAR(p.rts_airtime().us(), 46.7, 0.1);
  EXPECT_NEAR(p.cts_airtime().us(), 38.7, 0.1);
  EXPECT_GT(p.cts_timeout_after_rts_start(),
            p.rts_airtime() + p.sifs + p.cts_airtime());
}

TEST(RtsCts, SingleStationFourWayExchange) {
  const WifiParams params = rts_params();
  Network net(params, everyone_connected(), {{0, 0}}, 1);
  net.add_station({1, 0},
                  std::make_unique<PPersistentStrategy>(1.0, 1.0, false));
  net.finalize();
  net.start();

  // RTS starts at DIFS + slot; full exchange:
  const Time rts_start = Time::zero() + params.difs + params.slot;
  const Time ack_end = rts_start + params.rts_airtime() + params.sifs +
                       params.cts_airtime() + params.sifs +
                       params.data_airtime() + params.sifs +
                       params.ack_airtime();
  net.run_until(ack_end);

  EXPECT_EQ(net.counters().node(0).rts_attempts, 1u);
  EXPECT_EQ(net.counters().node(0).data_tx_attempts, 1u);
  EXPECT_EQ(net.counters().node(0).successes, 1u);
  EXPECT_EQ(net.counters().node(0).cts_timeouts, 0u);
  EXPECT_EQ(net.ap().rts_frames_received(), 1u);
  EXPECT_EQ(net.counters().node(0).bits_delivered, params.payload_bits);
}

TEST(RtsCts, HiddenPairProtectedFromDataCollisions) {
  // NAV protection is not airtight: a hidden station that was itself
  // transmitting an RTS while the AP's CTS went out misses the reservation
  // and may later hit the data frame (the classic residual RTS/CTS
  // vulnerability window). The window scales with the attempt rate, so at
  // moderate p the DATA loss must be small even though RTS collisions are
  // plentiful.
  auto data_loss_at = [&](double p) {
    const WifiParams params = rts_params();
    Network net(params, hidden_pair_graph(), {phy::graph_position(0)}, 3);
    net.add_station(phy::graph_position(1),
                    std::make_unique<PPersistentStrategy>(p, 1.0, false));
    net.add_station(phy::graph_position(2),
                    std::make_unique<PPersistentStrategy>(p, 1.0, false));
    net.finalize();
    net.start();
    net.run_for(Duration::seconds(2.0));
    EXPECT_GT(net.counters().total_successes(), 100u) << "p=" << p;
    return static_cast<double>(net.ap().data_frames_corrupted()) /
           static_cast<double>(net.ap().data_frames_received() + 1);
  };
  EXPECT_LT(data_loss_at(0.05), 0.08);
  // The vulnerability window grows with aggressiveness.
  EXPECT_LT(data_loss_at(0.05), data_loss_at(0.3));
}

TEST(RtsCts, BeatsBasicAccessOnAggressiveHiddenPair) {
  // Same hidden pair, aggressive p: basic access loses most data frames to
  // hidden collisions; RTS/CTS converts them into cheap RTS collisions.
  auto run = [](bool rts) {
    WifiParams params;
    if (rts) params.rts_threshold_bits = 0;
    Network net(params, hidden_pair_graph(), {phy::graph_position(0)}, 3);
    for (int i = 1; i <= 2; ++i)
      net.add_station(phy::graph_position(static_cast<std::size_t>(i)),
                      std::make_unique<PPersistentStrategy>(0.2, 1.0, false));
    net.finalize();
    net.start();
    net.run_for(Duration::seconds(2.0));
    return net.total_mbps();
  };
  EXPECT_GT(run(true), 1.5 * run(false));
}

TEST(RtsCts, OverheadCostsThroughputWhenConnected) {
  // Section I's argument AGAINST always-on RTS/CTS: control frames at
  // 6 Mb/s are expensive next to 54 Mb/s data. In a well-tuned connected
  // network, basic access outperforms RTS/CTS.
  auto run = [](bool rts) {
    WifiParams params;
    if (rts) params.rts_threshold_bits = 0;
    Network net(params, everyone_connected(), {{0, 0}}, 5);
    for (int i = 0; i < 10; ++i)
      net.add_station({static_cast<double>(i + 1), 0},
                      std::make_unique<PPersistentStrategy>(
                          0.028, 1.0, false));  // near-optimal p for n=10
    net.finalize();
    net.start();
    net.run_for(Duration::seconds(3.0));
    return net.total_mbps();
  };
  const double basic = run(false);
  const double rtscts = run(true);
  EXPECT_GT(basic, rtscts * 1.10);
}

TEST(RtsCts, NavDefersThirdStation) {
  // Three connected stations; station 2 and 3 are p = 0 (never contend on
  // their own) — wait, they must contend to test NAV... instead: two
  // contenders and verify no data frame is ever hit by the third party
  // while NAV reserves the channel. Use three active stations at moderate
  // p: with RTS/CTS in a CONNECTED network, data corruption at the AP must
  // be zero (everyone hears every RTS/CTS and defers).
  const WifiParams params = rts_params();
  Network net(params, everyone_connected(), {{0, 0}}, 9);
  for (int i = 0; i < 3; ++i)
    net.add_station({static_cast<double>(i + 1), 0},
                    std::make_unique<PPersistentStrategy>(0.15, 1.0, false));
  net.finalize();
  net.start();
  net.run_for(Duration::seconds(2.0));
  EXPECT_EQ(net.ap().data_frames_corrupted(), 0u);
  EXPECT_GT(net.counters().total_successes(), 1000u);
}

TEST(RtsCts, WorksWithToraController) {
  // Adaptive TORA over RTS/CTS access: converges and delivers.
  auto scenario = exp::ScenarioConfig::hidden(10, 16.0, 2);
  scenario.phy.rts_threshold_bits = 0;
  exp::RunOptions opts;
  opts.warmup = sim::Duration::seconds(10.0);
  opts.measure = sim::Duration::seconds(5.0);
  const auto r = exp::run_scenario(scenario, exp::SchemeConfig::tora_csma(),
                                   opts);
  EXPECT_GT(r.total_mbps, 10.0);
}

}  // namespace
