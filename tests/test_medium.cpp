// Unit tests for the Medium: carrier sensing, collision resolution per
// receiver, promiscuous delivery, hidden-node overlap semantics, and the
// per-link received-power cache behind capture.
#include "phy/medium.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "exp/scenario.hpp"
#include "mac/network.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace {

using namespace wlan;
using namespace wlan::phy;
using sim::Duration;
using sim::Time;

/// Records every callback with its time.
class Probe : public MediumClient {
 public:
  struct Rx {
    Frame frame;
    bool clean;
    Time t;
  };
  int busy_events = 0;
  int idle_events = 0;
  std::vector<Rx> received;
  Time last_busy = Time::zero();
  Time last_idle = Time::zero();

  void on_channel_busy(Time now) override {
    ++busy_events;
    last_busy = now;
  }
  void on_channel_idle(Time now) override {
    ++idle_events;
    last_idle = now;
  }
  void on_frame_received(const Frame& f, bool clean, Time now) override {
    received.push_back(Rx{f, clean, now});
  }
};

Frame data_frame(NodeId src, NodeId dst) {
  Frame f;
  f.kind = FrameKind::kData;
  f.src = src;
  f.dst = dst;
  f.payload_bits = 8000;
  return f;
}

/// Fully-connected 3-node fixture: AP=0, stations 1 and 2.
struct ConnectedWorld {
  sim::Simulator sim;
  DiscPropagation prop{100.0, 100.0};
  Medium medium{sim, prop};
  Probe ap, s1, s2;

  ConnectedWorld() {
    medium.add_node({0, 0}, ap);
    medium.add_node({1, 0}, s1);
    medium.add_node({2, 0}, s2);
    medium.finalize();
  }
};

TEST(Medium, CleanDeliveryToDecodableReceivers) {
  ConnectedWorld w;
  w.sim.schedule_at(Time::from_ns(100), [&] {
    w.medium.start_transmission(1, data_frame(1, 0),
                                Duration::microseconds(100));
  });
  w.sim.run_until(Time::from_seconds(1));
  ASSERT_EQ(w.ap.received.size(), 1u);
  EXPECT_TRUE(w.ap.received[0].clean);
  EXPECT_EQ(w.ap.received[0].frame.src, 1);
  EXPECT_EQ(w.ap.received[0].t.ns(), 100 + 100000);
  // Promiscuous: station 2 also hears it, cleanly.
  ASSERT_EQ(w.s2.received.size(), 1u);
  EXPECT_TRUE(w.s2.received[0].clean);
  // The transmitter does not receive its own frame.
  EXPECT_TRUE(w.s1.received.empty());
}

TEST(Medium, BusyIdleCallbacksForListeners) {
  ConnectedWorld w;
  w.sim.schedule_at(Time::from_ns(0), [&] {
    w.medium.start_transmission(1, data_frame(1, 0),
                                Duration::microseconds(50));
  });
  w.sim.run_until(Time::from_seconds(1));
  EXPECT_EQ(w.ap.busy_events, 1);
  EXPECT_EQ(w.ap.idle_events, 1);
  EXPECT_EQ(w.s2.busy_events, 1);
  EXPECT_EQ(w.s2.idle_events, 1);
  // The transmitter never senses itself.
  EXPECT_EQ(w.s1.busy_events, 0);
  EXPECT_EQ(w.s1.idle_events, 0);
  EXPECT_EQ(w.s2.last_idle.ns(), 50000);
}

TEST(Medium, IsBusyForExcludesSelf) {
  ConnectedWorld w;
  w.sim.schedule_at(Time::from_ns(0), [&] {
    w.medium.start_transmission(1, data_frame(1, 0),
                                Duration::microseconds(50));
    EXPECT_FALSE(w.medium.is_busy_for(1));
    EXPECT_TRUE(w.medium.is_busy_for(0));
    EXPECT_TRUE(w.medium.is_busy_for(2));
    EXPECT_TRUE(w.medium.is_transmitting(1));
  });
  w.sim.run_until(Time::from_seconds(1));
  EXPECT_FALSE(w.medium.is_busy_for(0));
  EXPECT_FALSE(w.medium.is_transmitting(1));
}

TEST(Medium, OverlappingTransmissionsBothCorrupt) {
  ConnectedWorld w;
  w.sim.schedule_at(Time::from_ns(0), [&] {
    w.medium.start_transmission(1, data_frame(1, 0),
                                Duration::microseconds(100));
  });
  w.sim.schedule_at(Time::from_ns(50'000), [&] {
    w.medium.start_transmission(2, data_frame(2, 0),
                                Duration::microseconds(100));
  });
  w.sim.run_until(Time::from_seconds(1));
  ASSERT_EQ(w.ap.received.size(), 2u);
  EXPECT_FALSE(w.ap.received[0].clean);
  EXPECT_FALSE(w.ap.received[1].clean);
  EXPECT_EQ(w.medium.corrupt_deliveries(), 2u + 2u);  // at AP and at peers
}

TEST(Medium, SequentialTransmissionsBothClean) {
  ConnectedWorld w;
  w.sim.schedule_at(Time::from_ns(0), [&] {
    w.medium.start_transmission(1, data_frame(1, 0),
                                Duration::microseconds(100));
  });
  w.sim.schedule_at(Time::from_ns(100'000), [&] {  // back-to-back, no overlap
    w.medium.start_transmission(2, data_frame(2, 0),
                                Duration::microseconds(100));
  });
  w.sim.run_until(Time::from_seconds(1));
  ASSERT_EQ(w.ap.received.size(), 2u);
  EXPECT_TRUE(w.ap.received[0].clean);
  EXPECT_TRUE(w.ap.received[1].clean);
}

TEST(Medium, MergedBusyPeriodSingleTransition) {
  ConnectedWorld w;
  w.sim.schedule_at(Time::from_ns(0), [&] {
    w.medium.start_transmission(1, data_frame(1, 0),
                                Duration::microseconds(100));
  });
  w.sim.schedule_at(Time::from_ns(50'000), [&] {
    w.medium.start_transmission(2, data_frame(2, 0),
                                Duration::microseconds(100));
  });
  w.sim.run_until(Time::from_seconds(1));
  // The AP sees one continuous busy period [0, 150us].
  EXPECT_EQ(w.ap.busy_events, 1);
  EXPECT_EQ(w.ap.idle_events, 1);
  EXPECT_EQ(w.ap.last_idle.ns(), 150'000);
}

TEST(Medium, HalfDuplexReceiverCorrupts) {
  ConnectedWorld w;
  // Station 2 transmits to the AP while the AP itself is transmitting.
  w.sim.schedule_at(Time::from_ns(0), [&] {
    Frame ack;
    ack.kind = FrameKind::kAck;
    ack.src = 0;
    ack.dst = 1;
    w.medium.start_transmission(0, ack, Duration::microseconds(40));
  });
  w.sim.schedule_at(Time::from_ns(10'000), [&] {
    w.medium.start_transmission(2, data_frame(2, 0),
                                Duration::microseconds(20));
  });
  w.sim.run_until(Time::from_seconds(1));
  // Station 2's frame ends while the AP transmits: corrupt at the AP.
  bool found = false;
  for (const auto& rx : w.ap.received) {
    if (rx.frame.src == 2) {
      found = true;
      EXPECT_FALSE(rx.clean);
    }
  }
  EXPECT_TRUE(found);
  // The ACK at station 2 is also corrupt (it transmitted during it), but
  // clean at station 1 — no, station 1 heard station 2's overlap too.
  ASSERT_FALSE(w.s1.received.empty());
  EXPECT_FALSE(w.s1.received[0].clean);
}

/// Hidden-node fixture: stations 1 and 2 cannot sense each other but both
/// reach the AP (ExplicitGraph row = source, column = observer).
struct HiddenWorld {
  sim::Simulator sim;
  ExplicitGraph prop{
      // sense: AP audible everywhere; stations mutually hidden.
      {{false, true, true}, {true, false, false}, {true, false, false}},
      // decode: same structure.
      {{false, true, true}, {true, false, false}, {true, false, false}}};
  Medium medium{sim, prop};
  Probe ap, s1, s2;

  HiddenWorld() {
    medium.add_node(graph_position(0), ap);
    medium.add_node(graph_position(1), s1);
    medium.add_node(graph_position(2), s2);
    medium.finalize();
  }
};

TEST(Medium, HiddenNodesDoNotSenseEachOther) {
  HiddenWorld w;
  w.sim.schedule_at(Time::from_ns(0), [&] {
    w.medium.start_transmission(1, data_frame(1, 0),
                                Duration::microseconds(100));
    EXPECT_TRUE(w.medium.is_busy_for(0));
    EXPECT_FALSE(w.medium.is_busy_for(2));  // hidden!
  });
  w.sim.run_until(Time::from_seconds(1));
  EXPECT_EQ(w.s2.busy_events, 0);
  EXPECT_TRUE(w.s2.received.empty());  // cannot decode either
}

TEST(Medium, HiddenOverlapCorruptsAtApOnly) {
  HiddenWorld w;
  w.sim.schedule_at(Time::from_ns(0), [&] {
    w.medium.start_transmission(1, data_frame(1, 0),
                                Duration::microseconds(100));
  });
  // Station 2 cannot sense station 1, so it may start mid-flight.
  w.sim.schedule_at(Time::from_ns(60'000), [&] {
    w.medium.start_transmission(2, data_frame(2, 0),
                                Duration::microseconds(100));
  });
  w.sim.run_until(Time::from_seconds(1));
  ASSERT_EQ(w.ap.received.size(), 2u);
  EXPECT_FALSE(w.ap.received[0].clean);
  EXPECT_FALSE(w.ap.received[1].clean);
}

TEST(Medium, ApBroadcastReachesHiddenStations) {
  HiddenWorld w;
  w.sim.schedule_at(Time::from_ns(0), [&] {
    Frame ack;
    ack.kind = FrameKind::kAck;
    ack.src = 0;
    ack.dst = 1;
    w.medium.start_transmission(0, ack, Duration::microseconds(40));
  });
  w.sim.run_until(Time::from_seconds(1));
  // Both stations decode the AP's ACK (wTOP relies on overhearing).
  ASSERT_EQ(w.s1.received.size(), 1u);
  ASSERT_EQ(w.s2.received.size(), 1u);
  EXPECT_TRUE(w.s1.received[0].clean);
  EXPECT_TRUE(w.s2.received[0].clean);
}

TEST(Medium, SensesAndDecodesQueries) {
  HiddenWorld w;
  EXPECT_TRUE(w.medium.senses(0, 1));
  EXPECT_TRUE(w.medium.senses(1, 0));
  EXPECT_FALSE(w.medium.senses(1, 2));
  EXPECT_TRUE(w.medium.decodes(2, 0));
  EXPECT_FALSE(w.medium.decodes(2, 1));
}

TEST(Medium, ThrowsOnDoubleTransmit) {
  ConnectedWorld w;
  w.sim.schedule_at(Time::from_ns(0), [&] {
    w.medium.start_transmission(1, data_frame(1, 0),
                                Duration::microseconds(100));
    EXPECT_THROW(w.medium.start_transmission(1, data_frame(1, 0),
                                             Duration::microseconds(100)),
                 std::logic_error);
  });
  w.sim.run_until(Time::from_seconds(1));
}

TEST(Medium, ThrowsWhenNotFinalized) {
  sim::Simulator s;
  DiscPropagation prop(10, 10);
  Medium m(s, prop);
  Probe p;
  m.add_node({0, 0}, p);
  EXPECT_THROW(m.start_transmission(0, data_frame(0, 0),
                                    Duration::microseconds(1)),
               std::logic_error);
}

TEST(Medium, ThrowsOnAddAfterFinalize) {
  ConnectedWorld w;
  Probe extra;
  EXPECT_THROW(w.medium.add_node({5, 5}, extra), std::logic_error);
}

TEST(Medium, CountsTransmissions) {
  ConnectedWorld w;
  w.sim.schedule_at(Time::from_ns(0), [&] {
    w.medium.start_transmission(1, data_frame(1, 0),
                                Duration::microseconds(10));
  });
  w.sim.schedule_at(Time::from_ns(100'000), [&] {
    w.medium.start_transmission(2, data_frame(2, 0),
                                Duration::microseconds(10));
  });
  w.sim.run_until(Time::from_seconds(1));
  EXPECT_EQ(w.medium.transmissions_started(), 2u);
}

TEST(Medium, CorruptionMarksResetWhenTxSlotReused) {
  // Regression guard for the pooled per-source TxSlot design: node 1's
  // first transmission is corrupted by an overlap; its SECOND transmission
  // reuses the same slot and must start with clean marks.
  ConnectedWorld w;
  w.sim.schedule_at(Time::from_ns(0), [&] {
    w.medium.start_transmission(1, data_frame(1, 0),
                                Duration::microseconds(100));
  });
  w.sim.schedule_at(Time::from_ns(50'000), [&] {
    w.medium.start_transmission(2, data_frame(2, 0),
                                Duration::microseconds(100));
  });
  // Round 2: node 1 alone, well after the collision resolved.
  w.sim.schedule_at(Time::from_ns(1'000'000), [&] {
    w.medium.start_transmission(1, data_frame(1, 0),
                                Duration::microseconds(100));
  });
  w.sim.run_until(Time::from_seconds(1));
  ASSERT_EQ(w.ap.received.size(), 3u);
  EXPECT_FALSE(w.ap.received[0].clean);  // collided copy of node 1's frame
  EXPECT_FALSE(w.ap.received[1].clean);  // collided copy of node 2's frame
  EXPECT_TRUE(w.ap.received[2].clean);   // reused slot: marks were reset
}

TEST(Medium, SlotReuseStressAlternatingCorruptClean) {
  // Many reuse generations per slot: odd rounds collide, even rounds are
  // clean. Any leakage of corruption marks (or of the in-flight list's
  // swap-removal bookkeeping) across reuses breaks the expected pattern.
  ConnectedWorld w;
  constexpr int kRounds = 50;
  for (int round = 0; round < kRounds; ++round) {
    const auto base = Time::from_ns(round * 1'000'000);
    w.sim.schedule_at(base, [&] {
      w.medium.start_transmission(1, data_frame(1, 0),
                                  Duration::microseconds(100));
    });
    if (round % 2 == 1) {
      w.sim.schedule_at(base + Duration::microseconds(30), [&] {
        w.medium.start_transmission(2, data_frame(2, 0),
                                    Duration::microseconds(100));
      });
    }
  }
  w.sim.run_until(Time::from_seconds(1));
  int idx = 0;
  for (int round = 0; round < kRounds; ++round) {
    ASSERT_LT(idx, static_cast<int>(w.ap.received.size()));
    const bool expect_clean = round % 2 == 0;
    EXPECT_EQ(w.ap.received[static_cast<std::size_t>(idx)].clean,
              expect_clean)
        << "round " << round;
    idx += expect_clean ? 1 : 2;  // collision rounds deliver two frames
  }
  EXPECT_EQ(idx, static_cast<int>(w.ap.received.size()));
  EXPECT_EQ(w.medium.transmissions_started(),
            static_cast<std::uint64_t>(kRounds + kRounds / 2));
}

TEST(Medium, ThreeWayCollisionAllCorrupt) {
  ConnectedWorld w;
  w.sim.schedule_at(Time::from_ns(0), [&] {
    w.medium.start_transmission(1, data_frame(1, 0),
                                Duration::microseconds(100));
    w.medium.start_transmission(2, data_frame(2, 0),
                                Duration::microseconds(100));
  });
  w.sim.run_until(Time::from_seconds(1));
  ASSERT_EQ(w.ap.received.size(), 2u);
  EXPECT_FALSE(w.ap.received[0].clean);
  EXPECT_FALSE(w.ap.received[1].clean);
}

TEST(Medium, ThrowsOnCaptureRatioAfterFinalize) {
  ConnectedWorld w;
  EXPECT_THROW(w.medium.set_capture_ratio(4.0), std::logic_error);
  EXPECT_EQ(w.medium.capture_ratio(), 0.0);
}

/// DiscPropagation that counts its rx_power calls per ordered pair of
/// positions (from.x, from.y, to.x, to.y).
class CountingDisc final : public PropagationModel {
 public:
  using Calls = std::map<std::array<double, 4>, int>;
  CountingDisc(double decode_radius, double sense_radius, Calls& calls)
      : base_(decode_radius, sense_radius), calls_(calls) {}

  bool can_sense(const Vec2& from, const Vec2& to) const override {
    return base_.can_sense(from, to);
  }
  bool can_decode(const Vec2& from, const Vec2& to) const override {
    return base_.can_decode(from, to);
  }
  Link link(const Vec2& from, const Vec2& to) const override {
    return base_.link(from, to);
  }
  bool symmetric() const override { return true; }
  double max_range() const override { return base_.max_range(); }
  double rx_power(const Vec2& from, const Vec2& to) const override {
    ++calls_[{from.x, from.y, to.x, to.y}];
    return base_.rx_power(from, to);
  }

 private:
  DiscPropagation base_;
  Calls& calls_;
};

TEST(MediumPowerCache, FinalizeAsksNoPowerAndARunAsksEachLinkOnce) {
  // The ess9x10_std geometry: 9 cells x 10 stations, 16/24 discs, capture 4.
  const auto s = exp::ScenarioConfig::multicell(9, 10, 40.0, 3);
  ASSERT_GT(s.phy.capture_ratio, 0.0);
  const auto plan = exp::make_plan(s);
  CountingDisc::Calls calls;
  mac::Network net(
      s.phy,
      std::make_unique<CountingDisc>(s.decode_radius, s.sense_radius, calls),
      plan.aps, s.seed);
  for (int i = 0; i < s.num_stations; ++i) {
    const auto si = static_cast<std::size_t>(i);
    net.add_station(plan.stations[si],
                    exp::make_strategy(exp::SchemeConfig::standard(), s.phy, i),
                    plan.cell_of[si]);
  }
  net.finalize();
  EXPECT_TRUE(calls.empty()) << "finalize() asked " << calls.size()
                             << " powers";

  net.start();
  net.run_for(Duration::seconds(0.5));
  const Medium& m = net.medium();
  std::map<std::array<double, 2>, NodeId> node_at;
  for (NodeId n = 0; static_cast<std::size_t>(n) < m.num_nodes(); ++n)
    node_at[{m.position(n).x, m.position(n).y}] = n;
  ASSERT_EQ(node_at.size(), m.num_nodes()) << "positions must be distinct";
  std::uint64_t asked = 0;
  for (const auto& [link, count] : calls) {
    const NodeId from = node_at.at({link[0], link[1]});
    const NodeId to = node_at.at({link[2], link[3]});
    EXPECT_EQ(count, 1) << from << " -> " << to;
    EXPECT_TRUE(m.senses(from, to) || m.decodes(from, to))
        << from << " -> " << to << " is not a link";
    asked += static_cast<std::uint64_t>(count);
  }
  // Each check reads two powers; the cache must answer most of them.
  EXPECT_GT(asked, 0u);
  EXPECT_LT(asked, m.interference_checks());
}

/// Every node senses and decodes every other, and a link's power depends
/// on its direction: P(a -> b) = 1 + (3a + 7b) mod 11, which differs from
/// P(b -> a) for every pair of distinct nodes below 11.
class DirectedPower final : public PropagationModel {
 public:
  bool can_sense(const Vec2&, const Vec2&) const override { return true; }
  bool can_decode(const Vec2&, const Vec2&) const override { return true; }
  double rx_power(const Vec2& from, const Vec2& to) const override {
    return power(std::llround(from.x), std::llround(to.x));
  }
  static double power(long long a, long long b) {
    return 1.0 + static_cast<double>((3 * a + 7 * b) % 11);
  }
};

TEST(MediumPowerCache, CaptureReadsEachDirectionsOwnPower) {
  // Random overlapping frames among 8 mutually audible nodes; every
  // delivered flag must equal the pairwise-capture definition evaluated
  // with the model's own directed powers. The same schedule under the
  // transposed powers must disagree somewhere, so a cache that assumed
  // P(a -> b) == P(b -> a) fails here.
  constexpr int kNodes = 8;
  constexpr double kRatio = 1.5;
  sim::Simulator simulator;
  DirectedPower prop;
  Medium medium(simulator, prop);
  std::vector<Probe> probes(kNodes);
  for (int i = 0; i < kNodes; ++i)
    medium.add_node(graph_position(static_cast<std::size_t>(i)),
                    probes[static_cast<std::size_t>(i)]);
  medium.set_capture_ratio(kRatio);
  medium.finalize();

  struct Tx {
    NodeId src;
    std::int64_t start, end;  // ns, half-open
  };
  std::vector<Tx> txs;
  util::Rng rng(7);
  for (NodeId i = 0; i < kNodes; ++i) {
    std::int64_t t = rng.uniform_int(std::int64_t{0}, std::int64_t{100'000});
    for (int k = 0; k < 25; ++k) {
      const std::int64_t len =
          rng.uniform_int(std::int64_t{10'000}, std::int64_t{100'000});
      txs.push_back({i, t, t + len});
      // A gap of at least 1 ns: the previous frame's end event must fire
      // before the node's next start.
      t += len + rng.uniform_int(std::int64_t{1}, std::int64_t{300'000});
    }
  }
  for (std::size_t k = 0; k < txs.size(); ++k) {
    simulator.schedule_at(Time::from_ns(txs[k].start), [&, k] {
      Frame f = data_frame(txs[k].src, 0);
      f.seq = k;
      medium.start_transmission(
          txs[k].src, f, Duration::nanoseconds(txs[k].end - txs[k].start));
    });
  }
  simulator.run_until(Time::from_seconds(1));

  // Receiver r's copy of v is clean iff r sent nothing overlapping v and
  // v's power at r is at least kRatio times every overlapping frame's.
  const auto clean_by_definition = [&](const Tx& v, NodeId r, bool transpose) {
    const auto p = [&](NodeId a, NodeId b) {
      return transpose ? DirectedPower::power(b, a)
                       : DirectedPower::power(a, b);
    };
    for (const Tx& i : txs) {
      if (i.src == v.src || i.start >= v.end || v.start >= i.end) continue;
      if (i.src == r || p(v.src, r) < kRatio * p(i.src, r)) return false;
    }
    return true;
  };
  std::size_t deliveries = 0, clean = 0, transposed_differs = 0;
  for (NodeId r = 0; r < kNodes; ++r) {
    for (const Probe::Rx& rx : probes[static_cast<std::size_t>(r)].received) {
      const Tx& v = txs[static_cast<std::size_t>(rx.frame.seq)];
      ++deliveries;
      clean += rx.clean ? 1 : 0;
      EXPECT_EQ(rx.clean, clean_by_definition(v, r, false))
          << "frame " << rx.frame.seq << " from " << v.src << " at " << r;
      transposed_differs +=
          clean_by_definition(v, r, true) != clean_by_definition(v, r, false);
    }
  }
  EXPECT_EQ(deliveries, txs.size() * (kNodes - 1));
  EXPECT_GT(clean, 0u);
  EXPECT_LT(clean, deliveries);
  EXPECT_GT(transposed_differs, 0u);
}

}  // namespace
