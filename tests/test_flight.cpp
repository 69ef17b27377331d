// Tests for the frame-lifecycle flight recorder (src/obs/flight.hpp):
// unit-level span-chain accounting on a recorder fed the trace records a
// station exchange produces, the integration path through run_scenario
// (flight.* metrics, and the station events against the MAC counters),
// and the acceptance bar shared with the rest of obs/ — a run with the
// recorder attached is bit-identical to one without.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "mac/network.hpp"
#include "obs/collect.hpp"
#include "obs/flight.hpp"
#include "obs/trace.hpp"
#include "phy/frame.hpp"
#include "util/fnv.hpp"

namespace {

using namespace wlan;
using exp::ScenarioConfig;
using exp::SchemeConfig;

/// Restores the process-wide flight override on scope exit.
struct FlightOverrideGuard {
  explicit FlightOverrideGuard(int v) { obs::SimObs::set_flight_override(v); }
  ~FlightOverrideGuard() { obs::SimObs::set_flight_override(-1); }
};

// ------------------------------------------------------- span accounting

constexpr std::uint32_t kAp = 10;  // receiver of every data frame below

std::uint64_t frame(phy::FrameKind kind, std::uint32_t dst) {
  return obs::pack_frame_detail(static_cast<unsigned>(kind), dst, 0);
}

obs::TraceRecord rec(std::int64_t t, obs::Category c, std::uint16_t event,
                     std::uint32_t node, std::uint64_t a = 0,
                     std::uint64_t b = 0) {
  return obs::TraceRecord{t, static_cast<std::uint16_t>(c), event, node, a, b};
}

/// Feeds a recorder the records SimObs::point hands it during a station's
/// exchanges with the AP, in the order the traffic source, MAC and medium
/// emit them.
struct Feed {
  obs::FlightRecorder& fr;

  void arrival(std::int64_t t, std::uint32_t node, std::uint64_t queue_size,
               bool accepted) {
    fr.consume(rec(t, obs::kCatTraffic, obs::ev::kArrival, node, queue_size,
                   accepted));
  }
  void contention(std::int64_t t, std::uint32_t node, std::uint64_t slots) {
    fr.consume(rec(t, obs::kCatStation, obs::ev::kContention, node, slots));
  }
  /// A data frame goes on air (tx_start), then the station's attempt.
  void attempt(std::int64_t t, std::uint32_t node, std::uint64_t slots,
               std::uint64_t cohort, std::int64_t air_ns) {
    fr.consume(rec(t, obs::kCatMedium, obs::ev::kTxStart, node,
                   frame(phy::FrameKind::kData, kAp),
                   static_cast<std::uint64_t>(air_ns)));
    fr.consume(
        rec(t, obs::kCatStation, obs::ev::kAttempt, node, slots, cohort));
  }
  /// The data frame ends (tx_end) and its copy reaches the AP.
  void deliver(std::int64_t t, std::uint32_t node, bool clean) {
    fr.consume(rec(t, obs::kCatMedium, obs::ev::kTxEnd, node,
                   frame(phy::FrameKind::kData, kAp)));
    fr.consume(rec(t, obs::kCatMedium, obs::ev::kDeliver, kAp,
                   frame(phy::FrameKind::kData, kAp), clean));
  }
  void timeout(std::int64_t t, std::uint32_t node) {
    fr.consume(rec(t, obs::kCatStation, obs::ev::kTimeout, node));
  }
  void ack(std::int64_t t, std::uint32_t node) {
    fr.consume(rec(t, obs::kCatStation, obs::ev::kAck, node));
  }
};

TEST(Flight, PackAttemptDetailKeepsFieldsSeparate) {
  const std::uint64_t d = obs::pack_attempt_detail(/*slots=*/0xABCDEF,
                                                   /*cohort=*/0x123456);
  EXPECT_EQ(d & 0xFFFFFFFFu, 0xABCDEFu);
  EXPECT_EQ(d >> 32, 0x123456u);
}

TEST(Flight, TrafficFrameFullLifecycle) {
  obs::FlightRecorder fr;
  Feed f{fr};
  // enqueue at t=0 -> contention at t=100 -> attempt after 7 slots at
  // t=500, 200ns on air -> clean copy at the AP -> ACK at t=1000.
  f.arrival(0, /*node=*/3, /*queue_size=*/1, /*accepted=*/true);
  f.contention(100, 3, /*slots=*/10);
  f.attempt(500, 3, /*slots=*/17, /*cohort=*/0, /*air_ns=*/200);
  f.deliver(700, 3, /*clean=*/true);
  f.ack(1000, 3);

  const obs::FlightTotals& t = fr.totals();
  EXPECT_EQ(t.frames_enqueued, 1u);
  EXPECT_EQ(t.frames_saturated, 0u);
  EXPECT_EQ(t.frames_completed, 1u);
  EXPECT_EQ(t.frames_dropped, 0u);
  EXPECT_EQ(t.attempts, 1u);
  EXPECT_EQ(t.timeouts, 0u);
  EXPECT_EQ(t.slots_waited, 7u);  // delta from the contention-entry mark
  EXPECT_EQ(t.air_ns, 200);
  EXPECT_EQ(t.queue_ns, 100);              // enqueue -> first contention
  EXPECT_EQ(t.contention_ns, 1000 - 100 - 200);  // span minus airtime

  const std::vector<obs::FrameStat> frames = fr.completed_frames();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].frame, 1u);
  EXPECT_EQ(frames[0].node, 3u);
  EXPECT_EQ(frames[0].enqueue_ns, 0);
  EXPECT_EQ(frames[0].contention_ns, 100);
  EXPECT_EQ(frames[0].complete_ns, 1000);
  EXPECT_EQ(frames[0].attempts, 1u);
  EXPECT_FALSE(frames[0].dropped);
  EXPECT_EQ(fr.attempts_per_success(), 1.0);
}

TEST(Flight, RetryAfterTimeoutAccumulatesOnSameFrame) {
  obs::FlightRecorder fr;
  Feed f{fr};
  f.arrival(0, 1, 1, true);
  f.contention(10, 1, 0);
  f.attempt(100, 1, 5, /*cohort=*/42, 50);  // 5 slots waited
  f.deliver(150, 1, /*clean=*/false);       // collision at the receiver
  f.timeout(300, 1);
  f.attempt(600, 1, 14, 42, 50);            // 9 more slots
  f.deliver(650, 1, true);
  f.ack(800, 1);

  const obs::FlightTotals& t = fr.totals();
  EXPECT_EQ(t.frames_completed, 1u);
  EXPECT_EQ(t.attempts, 2u);
  EXPECT_EQ(t.timeouts, 1u);
  EXPECT_EQ(t.verdicts_corrupt, 1u);
  EXPECT_EQ(t.slots_waited, 14u);
  EXPECT_EQ(t.air_ns, 100);
  EXPECT_EQ(fr.attempts_per_success(), 2.0);
}

TEST(Flight, TailDropClosesFrameImmediately) {
  obs::FlightRecorder fr;
  Feed f{fr};
  f.arrival(0, 2, 1, true);
  f.arrival(50, 2, 1, /*accepted=*/false);  // queue full: tail drop
  const obs::FlightTotals& t = fr.totals();
  EXPECT_EQ(t.frames_enqueued, 1u);  // only the accepted push counts
  EXPECT_EQ(t.frames_dropped, 1u);
  EXPECT_EQ(t.frames_completed, 0u);
  // The drop landed in the per-node event ring with its own FrameId.
  const std::vector<obs::FlightEvent> evs = fr.node_events(2);
  ASSERT_GE(evs.size(), 2u);
  EXPECT_EQ(evs.back().kind, obs::fev::kDrop);
  EXPECT_NE(evs.back().frame, evs.front().frame);
}

TEST(Flight, SaturatedStationMintsAtContentionEntry) {
  obs::FlightRecorder fr;
  Feed f{fr};
  // No enqueue ever happens: the station is backlogged. The first
  // contention entry mints the FrameId; the ACK closes it; the next
  // contention entry mints the next.
  f.contention(10, 0, 0);
  f.attempt(50, 0, 3, 0, 20);
  f.ack(100, 0);
  f.contention(150, 0, 3);
  f.attempt(200, 0, 8, 0, 20);
  f.ack(260, 0);

  const obs::FlightTotals& t = fr.totals();
  EXPECT_EQ(t.frames_saturated, 2u);
  EXPECT_EQ(t.frames_enqueued, 0u);
  EXPECT_EQ(t.frames_completed, 2u);
  EXPECT_EQ(t.queue_ns, 0);  // no queue residency without an enqueue
  const std::vector<obs::FrameStat> frames = fr.completed_frames();
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].enqueue_ns, -1);
  EXPECT_NE(frames[0].frame, frames[1].frame);
}

TEST(Flight, ReContentionAfterBusyDoesNotReopenSpan) {
  obs::FlightRecorder fr;
  Feed f{fr};
  f.contention(10, 0, 0);
  f.contention(400, 0, 2);  // medium went busy, wait restarted
  f.attempt(500, 0, 6, 0, 20);
  f.ack(600, 0);
  const std::vector<obs::FrameStat> frames = fr.completed_frames();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].contention_ns, 10);  // first entry won
  EXPECT_EQ(frames[0].slots_waited, 6u);   // delta from the FIRST mark
}

TEST(Flight, OnlyADataCopyAtItsDestinationIsAVerdict) {
  obs::FlightRecorder fr;
  Feed f{fr};
  f.contention(0, 1, 0);
  // An RTS on air: a non-data tx_start adds no airtime.
  fr.consume(rec(10, obs::kCatMedium, obs::ev::kTxStart, 1,
                 frame(phy::FrameKind::kRts, kAp), 40));
  f.attempt(100, 1, 2, 0, 50);
  // The data frame ends; a bystander (station 2) decodes a corrupt copy
  // before the AP decodes a clean one. Only the AP's copy is a verdict.
  fr.consume(rec(150, obs::kCatMedium, obs::ev::kTxEnd, 1,
                 frame(phy::FrameKind::kData, kAp)));
  fr.consume(rec(150, obs::kCatMedium, obs::ev::kDeliver, 2,
                 frame(phy::FrameKind::kData, kAp), /*clean=*/0));
  fr.consume(rec(150, obs::kCatMedium, obs::ev::kDeliver, kAp,
                 frame(phy::FrameKind::kData, kAp), /*clean=*/1));
  // The AP's ACK arrives corrupt at its own destination: not a data copy.
  fr.consume(rec(170, obs::kCatMedium, obs::ev::kTxEnd, kAp,
                 frame(phy::FrameKind::kAck, 1)));
  fr.consume(rec(170, obs::kCatMedium, obs::ev::kDeliver, 1,
                 frame(phy::FrameKind::kAck, 1), /*clean=*/0));
  f.ack(200, 1);

  const obs::FlightTotals& t = fr.totals();
  EXPECT_EQ(t.frames_completed, 1u);
  EXPECT_EQ(t.verdicts_corrupt, 0u);
  EXPECT_EQ(t.air_ns, 50);
  std::size_t verdicts = 0;
  for (const obs::FlightEvent& e : fr.node_events(1))
    if (e.kind == obs::fev::kVerdict) {
      ++verdicts;
      EXPECT_EQ(e.detail, 1u);  // the AP's clean copy
    }
  EXPECT_EQ(verdicts, 1u);
  EXPECT_TRUE(fr.node_events(2).empty());
}

TEST(Flight, ExcerptNamesFrameIds) {
  obs::FlightRecorder fr;
  Feed f{fr};
  f.arrival(0, 5, 1, true);
  f.contention(10, 5, 0);
  const std::string ex = fr.excerpt(5);
  EXPECT_NE(ex.find("node 5"), std::string::npos);
  EXPECT_NE(ex.find("frame=1"), std::string::npos);
  EXPECT_NE(ex.find("enqueue"), std::string::npos);
  // A node with no records says so instead of fabricating history.
  EXPECT_NE(fr.excerpt(9).find("no flight records"), std::string::npos);
}

TEST(Flight, RingOverwritesOldestAndCountsDrops) {
  obs::FlightRecorder fr(/*ring_capacity=*/4, /*frames_capacity=*/2);
  Feed f{fr};
  for (int i = 0; i < 6; ++i) {
    f.contention(i * 100, 0, static_cast<std::uint64_t>(i));
    f.ack(i * 100 + 50, 0);
  }
  // 12 records pushed through a 4-slot ring: only the newest 4 survive.
  const std::vector<obs::FlightEvent> evs = fr.node_events(0);
  ASSERT_EQ(evs.size(), 4u);
  EXPECT_EQ(evs.front().time_ns, 400);
  // Totals still see every frame; the FrameStat table kept the last 2.
  EXPECT_EQ(fr.totals().frames_completed, 6u);
  EXPECT_EQ(fr.completed_frames().size(), 2u);
  EXPECT_EQ(fr.completed_dropped(), 4u);
}

TEST(Flight, CsvAndChromeJsonExports) {
  obs::FlightRecorder fr;
  Feed f{fr};
  f.arrival(0, 1, 1, true);
  f.contention(100, 1, 0);
  f.attempt(500, 1, 7, 3, 200);
  f.ack(1000, 1);

  const std::string csv = fr.frames_csv();
  EXPECT_NE(csv.find("frame,node,enqueue_us"), std::string::npos);
  EXPECT_NE(csv.find(",ack\n"), std::string::npos);

  const std::string json = fr.chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_EQ(json.find("NaN"), std::string::npos);
}

// ------------------------------------------------------ integration path

exp::RunOptions quick_series_options() {
  exp::RunOptions opts;
  opts.warmup = sim::Duration::seconds(0.1);
  opts.measure = sim::Duration::seconds(0.3);
  opts.sample_period = sim::Duration::seconds(0.05);
  opts.record_series = true;  // bypasses the run cache
  return opts;
}

TEST(Flight, RunScenarioExportsFlightMetricsSaturated) {
  FlightOverrideGuard guard(1);
  const auto r = exp::run_scenario(ScenarioConfig::connected(6, 1),
                                   SchemeConfig::standard(),
                                   quick_series_options());
  EXPECT_GT(r.metrics.get("flight.frames_saturated", 0.0), 0.0);
  EXPECT_EQ(r.metrics.get("flight.frames_enqueued", -1.0), 0.0);
  const double completed = r.metrics.get("flight.frames_completed", 0.0);
  const double attempts = r.metrics.get("flight.attempts", 0.0);
  EXPECT_GT(completed, 0.0);
  EXPECT_GE(attempts, completed);  // every success needed >= 1 attempt
  EXPECT_GE(r.metrics.get("flight.attempts_per_success", 0.0), 1.0);
}

TEST(Flight, RunScenarioExportsFlightMetricsTraffic) {
  FlightOverrideGuard guard(1);
  auto scenario = ScenarioConfig::connected(6, 2);
  scenario.traffic = traffic::TrafficConfig::poisson(1.0);
  const auto r = exp::run_scenario(scenario, SchemeConfig::standard(),
                                   quick_series_options());
  EXPECT_GT(r.metrics.get("flight.frames_enqueued", 0.0), 0.0);
  EXPECT_GT(r.metrics.get("flight.frames_completed", 0.0), 0.0);
  EXPECT_GT(r.metrics.get("flight.queue_ns", -1.0), 0.0);
}

TEST(Flight, MetricsAbsentWhenRecorderOff) {
  FlightOverrideGuard guard(0);
  const auto r = exp::run_scenario(ScenarioConfig::connected(6, 1),
                                   SchemeConfig::standard(),
                                   quick_series_options());
  EXPECT_FALSE(r.metrics.contains("flight.frames_completed"));
}

/// Builds `scenario` under 802.11, attaches `o` and simulates `seconds`.
std::unique_ptr<mac::Network> run_attached(const ScenarioConfig& scenario,
                                           obs::SimObs& o, double seconds) {
  auto net = exp::build_network(scenario, SchemeConfig::standard());
  net->simulator().attach_obs(&o);
  net->start();
  net->run_for(sim::Duration::seconds(seconds));
  return net;
}

TEST(Flight, StationEventsMatchTheCounters) {
  // The recorder's whole view of a station is these trace points, so each
  // must fire exactly where the MAC counts: an attempt per data frame
  // sent, an ack per success, a timeout per ACK or CTS timeout.
  for (const bool rts : {false, true}) {
    auto scenario = ScenarioConfig::hidden(12, 16.0, 3);
    if (rts) scenario.phy.rts_threshold_bits = 0;  // every frame uses RTS/CTS
    obs::SimObs o(obs::category_bit(obs::kCatStation), 1u << 20);
    const auto net = run_attached(scenario, o, 1.0);
    ASSERT_EQ(o.trace.dropped(), 0u);

    std::uint64_t attempts = 0, acks = 0, timeouts = 0;
    for (const obs::TraceRecord& r : o.trace.snapshot()) {
      attempts += r.event == obs::ev::kAttempt;
      acks += r.event == obs::ev::kAck;
      timeouts += r.event == obs::ev::kTimeout;
    }
    std::uint64_t sent = 0, successes = 0, failed = 0;
    for (std::size_t i = 0; i < net->counters().num_stations(); ++i) {
      const stats::NodeCounters& n = net->counters().node(i);
      sent += n.data_tx_attempts;
      successes += n.successes;
      failed += n.failures + n.cts_timeouts;
    }
    EXPECT_GT(attempts, 0u);
    EXPECT_GT(timeouts, 0u);  // hidden stations collide
    EXPECT_EQ(attempts, sent) << "rts=" << rts;
    EXPECT_EQ(acks, successes) << "rts=" << rts;
    EXPECT_EQ(timeouts, failed) << "rts=" << rts;
  }
}

// ------------------------------------------------- zero-perturbation bar

void hash_series(const stats::TimeSeries& s, util::Fnv1a& h) {
  for (const auto& sample : s.samples()) {
    h.mix_double_word(sample.t_seconds);
    h.mix_double_word(sample.value);
  }
}

std::uint64_t hash_run(const exp::RunResult& r) {
  util::Fnv1a h;
  hash_series(r.throughput_series, h);
  hash_series(r.control_series, h);
  h.mix_double_word(r.total_mbps);
  for (double v : r.per_station_mbps) h.mix_double_word(v);
  h.mix_double_word(static_cast<double>(r.successes));
  h.mix_double_word(static_cast<double>(r.failures));
  h.mix_double_word(r.mean_delay_s);
  h.mix_double_word(r.drop_rate);
  return h.digest();
}

TEST(FlightIdentity, RecorderChangesNothing) {
  const exp::RunOptions opts = quick_series_options();
  for (const auto& scenario :
       {ScenarioConfig::connected(8, 2), ScenarioConfig::hidden(8, 16.0, 3)}) {
    for (const auto& scheme :
         {SchemeConfig::standard(), SchemeConfig::wtop_csma()}) {
      std::uint64_t off_hash, on_hash;
      {
        FlightOverrideGuard off(0);
        off_hash = hash_run(exp::run_scenario(scenario, scheme, opts));
      }
      {
        FlightOverrideGuard on(1);
        const auto r = exp::run_scenario(scenario, scheme, opts);
        on_hash = hash_run(r);
        EXPECT_GT(r.metrics.get("flight.frames_completed", 0.0), 0.0);
      }
      EXPECT_EQ(off_hash, on_hash)
          << scheme.name() << ": flight recorder must not perturb the run";
    }
  }
}

TEST(FlightIdentity, RecorderChangesNothingWithTraffic) {
  auto scenario = ScenarioConfig::connected(6, 2);
  scenario.traffic = traffic::TrafficConfig::poisson(1.0);
  const exp::RunOptions opts = quick_series_options();
  std::uint64_t off_hash, on_hash;
  {
    FlightOverrideGuard off(0);
    off_hash = hash_run(exp::run_scenario(scenario, SchemeConfig::standard(), opts));
  }
  {
    FlightOverrideGuard on(1);
    on_hash = hash_run(exp::run_scenario(scenario, SchemeConfig::standard(), opts));
  }
  EXPECT_EQ(off_hash, on_hash);
}

TEST(FlightIdentity, MetricsIndependentOfTraceMask) {
  // The recorder reads every trace point, including the ones the mask
  // keeps out of the ring.
  auto loaded = ScenarioConfig::hidden(8, 16.0, 3);
  loaded.traffic = traffic::TrafficConfig::poisson(1.0);
  for (const auto& scenario : {ScenarioConfig::hidden(8, 16.0, 3), loaded}) {
    const auto flight_run = [&](std::uint32_t mask) {
      obs::SimObs o(mask, 1u << 14);
      o.flight = std::make_unique<obs::FlightRecorder>();
      run_attached(scenario, o, 0.4);
      obs::MetricsRegistry reg;
      obs::add_flight_metrics(reg, *o.flight);
      return std::make_pair(reg, o.flight->frames_csv());
    };
    const auto off = flight_run(0);
    const auto all = flight_run(obs::kAllCategories);
    EXPECT_GT(off.first.get("flight.frames_completed", 0.0), 0.0);
    EXPECT_EQ(off.first, all.first);
    EXPECT_EQ(off.second, all.second);
  }
}

}  // namespace
