// Integration tests for the traffic layer: station <-> source coupling,
// end-to-end delay/drop accounting, determinism across repeated runs and
// thread counts, the offered-load sweep axis, and the equivalence of the
// batched backoff with the per-slot reference stations (tests/reference/).
#include <gtest/gtest.h>

#include <stdexcept>

#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "mac/network.hpp"
#include "par/thread_pool.hpp"
#include "reference/differential.hpp"

namespace {

using namespace wlan;
using exp::ScenarioConfig;
using exp::SchemeConfig;
using traffic::TrafficConfig;

exp::RunOptions quick_options(double measure_s = 1.0, double warmup_s = 0.2) {
  exp::RunOptions opts;
  opts.warmup = sim::Duration::seconds(warmup_s);
  opts.measure = sim::Duration::seconds(measure_s);
  return opts;
}

TEST(TrafficIntegration, StationStaysSilentUntilTheFirstArrival) {
  // One station whose only packet arrives at t = 10 s: a 1-second run must
  // see zero transmissions, zero successes, zero channel activity.
  auto scenario = ScenarioConfig::connected(1, 1);
  scenario.traffic = TrafficConfig::trace({10.0}, /*repeat=*/false);
  const auto r =
      exp::run_scenario(scenario, SchemeConfig::standard(), quick_options());
  EXPECT_EQ(r.successes, 0u);
  EXPECT_EQ(r.failures, 0u);
  EXPECT_EQ(r.packets_offered, 0u);
  EXPECT_DOUBLE_EQ(r.total_mbps, 0.0);
}

TEST(TrafficIntegration, SinglePacketIsDeliveredWithPlausibleDelay) {
  // One packet at 0.1 s into the measured window of a sole station: it is
  // ACKed within a few hundred microseconds (DIFS + slots + data + ACK).
  auto scenario = ScenarioConfig::connected(1, 1);
  scenario.traffic = TrafficConfig::trace({0.1}, /*repeat=*/false);
  auto opts = quick_options(1.0, /*warmup_s=*/0.0);
  const auto r = exp::run_scenario(scenario, SchemeConfig::standard(), opts);
  EXPECT_EQ(r.successes, 1u);
  EXPECT_EQ(r.packets_offered, 1u);
  EXPECT_EQ(r.packets_dropped, 0u);
  EXPECT_EQ(r.delays.count(), 1u);
  EXPECT_GT(r.mean_delay_s, 100e-6);  // at least DIFS + airtime
  EXPECT_LT(r.mean_delay_s, 5e-3);    // no contention: well under 5 ms
  // With a single sample every percentile reports the same bucket.
  EXPECT_NEAR(r.delay_p50_s, r.delay_p99_s, 1e-12);
}

TEST(TrafficIntegration, LightLoadDeliversEverythingWithoutDrops) {
  auto scenario = ScenarioConfig::connected(3, 1);
  scenario.traffic = TrafficConfig::poisson(0.2);  // far below saturation
  const auto r =
      exp::run_scenario(scenario, SchemeConfig::standard(), quick_options(2.0));
  EXPECT_GT(r.packets_offered, 10u);
  EXPECT_EQ(r.packets_dropped, 0u);
  EXPECT_DOUBLE_EQ(r.drop_rate, 0.0);
  // Delivered tracks offered (the queues drain; a few packets may sit in
  // flight at the boundary).
  EXPECT_NEAR(r.total_mbps, r.offered_mbps, 0.15 * r.offered_mbps + 0.1);
  EXPECT_LT(r.mean_delay_s, 5e-3);
  EXPECT_LT(r.mean_queue_occupancy, 1.0);
}

TEST(TrafficIntegration, OverloadFillsQueuesAndDrops) {
  auto scenario = ScenarioConfig::connected(5, 1);
  scenario.traffic = TrafficConfig::cbr(10.0, /*capacity=*/4);  // 50 Mb/s in
  const auto r =
      exp::run_scenario(scenario, SchemeConfig::standard(), quick_options(2.0));
  EXPECT_GT(r.drop_rate, 0.4);  // offered ~50 Mb/s, sustainable ~30
  EXPECT_GT(r.mean_queue_occupancy, 5.0 * 4.0 * 0.5);  // queues near full
  EXPECT_GT(r.total_mbps, 10.0);  // still saturates the channel
  // Delay is bounded by the small queue: = queue depth * service time.
  EXPECT_LT(r.delay_p99_s, 0.1);
  EXPECT_LE(r.delay_p50_s, r.delay_p95_s);
  EXPECT_LE(r.delay_p95_s, r.delay_p99_s);
}

TEST(TrafficIntegration, SaturatedDefaultReportsNoTrafficMetrics) {
  const auto scenario = ScenarioConfig::connected(4, 1);
  ASSERT_TRUE(scenario.traffic.saturated());
  const auto r =
      exp::run_scenario(scenario, SchemeConfig::standard(), quick_options());
  EXPECT_GT(r.successes, 0u);
  EXPECT_EQ(r.packets_offered, 0u);
  EXPECT_EQ(r.delays.count(), 0u);
  EXPECT_DOUBLE_EQ(r.offered_mbps, 0.0);
  EXPECT_DOUBLE_EQ(r.mean_delay_s, 0.0);
}

TEST(TrafficIntegration, RepeatedRunsAreBitIdentical) {
  auto scenario = ScenarioConfig::hidden(6, 16.0, 3);
  scenario.traffic = TrafficConfig::poisson(1.0);
  const auto a =
      exp::run_scenario(scenario, SchemeConfig::standard(), quick_options());
  const auto b =
      exp::run_scenario(scenario, SchemeConfig::standard(), quick_options());
  EXPECT_EQ(a.total_mbps, b.total_mbps);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.packets_offered, b.packets_offered);
  EXPECT_EQ(a.packets_dropped, b.packets_dropped);
  EXPECT_EQ(a.mean_delay_s, b.mean_delay_s);
  EXPECT_EQ(a.delay_p99_s, b.delay_p99_s);
  EXPECT_EQ(a.mean_queue_occupancy, b.mean_queue_occupancy);
}

TEST(TrafficIntegration, ArrivalStreamsIndependentOfMacScheme) {
  // The arrival processes draw from their own RNG streams, so the offered
  // packet count is identical whatever the MAC does.
  auto scenario = ScenarioConfig::connected(4, 7);
  scenario.traffic = TrafficConfig::poisson(0.8);
  const auto opts = quick_options(2.0);
  const auto std80211 =
      exp::run_scenario(scenario, SchemeConfig::standard(), opts);
  const auto wtop =
      exp::run_scenario(scenario, SchemeConfig::wtop_csma(), opts);
  EXPECT_EQ(std80211.packets_offered, wtop.packets_offered);
}

TEST(TrafficIntegration, QueueSeriesRecordedOnlyWithTraffic) {
  auto opts = quick_options();
  opts.record_series = true;
  auto loaded = ScenarioConfig::connected(3, 1);
  loaded.traffic = TrafficConfig::poisson(2.0);
  const auto with_traffic =
      exp::run_scenario(loaded, SchemeConfig::standard(), opts);
  EXPECT_FALSE(with_traffic.queue_series.empty());
  EXPECT_FALSE(with_traffic.drop_series.empty());

  const auto saturated = exp::run_scenario(ScenarioConfig::connected(3, 1),
                                           SchemeConfig::standard(), opts);
  EXPECT_TRUE(saturated.queue_series.empty());
  EXPECT_TRUE(saturated.drop_series.empty());
  EXPECT_FALSE(saturated.throughput_series.empty());
}

// ------------------------------------------------------------- loads axis

TEST(SweepLoads, ExpansionInsertsLoadsBetweenParamsAndSeeds) {
  exp::SweepSpec spec;
  auto scenario = ScenarioConfig::connected(3, 10);
  scenario.traffic = TrafficConfig::poisson(1.0);
  spec.scenarios = {scenario};
  spec.schemes = {SchemeConfig::standard()};
  spec.loads = {0.5, 1.5};
  spec.seeds = 2;
  const auto jobs = exp::expand(spec);
  ASSERT_EQ(jobs.size(), 4u);
  EXPECT_EQ(jobs[0].point_index, 0u);
  EXPECT_DOUBLE_EQ(jobs[0].scenario.traffic.offered_load_mbps, 0.5);
  EXPECT_EQ(jobs[0].scenario.seed, 10u);
  EXPECT_EQ(jobs[1].point_index, 0u);
  EXPECT_EQ(jobs[1].scenario.seed, 11u);  // seeds innermost
  EXPECT_EQ(jobs[2].point_index, 1u);
  EXPECT_DOUBLE_EQ(jobs[2].scenario.traffic.offered_load_mbps, 1.5);
}

TEST(SweepLoads, LoadsAxisRequiresLoadDrivenTraffic) {
  exp::SweepSpec spec;
  spec.scenarios = {ScenarioConfig::connected(3, 1)};  // saturated default
  spec.schemes = {SchemeConfig::standard()};
  spec.loads = {1.0};
  EXPECT_THROW(exp::expand(spec), std::invalid_argument);
  // A trace replays fixed gaps and ignores offered_load_mbps entirely, so
  // sweeping a load over it would emit one flat "curve": rejected too.
  spec.scenarios[0].traffic = TrafficConfig::trace({0.01});
  EXPECT_THROW(exp::expand(spec), std::invalid_argument);
  spec.scenarios[0].traffic = TrafficConfig::poisson(1.0);
  EXPECT_EQ(exp::expand(spec).size(), 1u);
  // The bind runs before the validation: one that rewrites traffic to a
  // non-load-driven model is caught even though the base scenario is fine.
  spec.params = {0.5};
  spec.bind = [](double, exp::ScenarioConfig& sc, SchemeConfig&) {
    sc.traffic = TrafficConfig();  // back to saturated
  };
  EXPECT_THROW(exp::expand(spec), std::invalid_argument);
}

TEST(SweepLoads, ResultIndexingCoversTheLoadAxis) {
  exp::SweepSpec spec;
  auto scenario = ScenarioConfig::connected(2, 1);
  scenario.traffic = TrafficConfig::poisson(1.0);
  spec.scenarios = {scenario};
  spec.schemes = {SchemeConfig::standard()};
  spec.loads = {0.4, 0.8, 1.2};
  spec.options = quick_options(0.3, 0.05);
  const auto result = exp::run_sweep(spec);
  EXPECT_EQ(result.num_loads, 3u);
  ASSERT_EQ(result.points.size(), 3u);
  for (std::size_t li = 0; li < 3; ++li) {
    EXPECT_EQ(result.at(0, 0, 0, li).load_index, li);
    EXPECT_DOUBLE_EQ(result.at(0, 0, 0, li).load, spec.loads[li]);
  }
  EXPECT_THROW(result.at(0, 0, 0, 3), std::out_of_range);
}

TEST(SweepLoads, LoadSweepBitIdenticalAcrossThreadCounts) {
  // The acceptance gate for ext_load_delay_curve: one load grid, serial
  // fold identical to any parallel fan-out, including the delay metrics.
  exp::SweepSpec spec;
  auto scenario = ScenarioConfig::connected(4, 2);
  scenario.traffic = TrafficConfig::poisson(1.0);
  spec.scenarios = {scenario};
  spec.schemes = {SchemeConfig::standard(), SchemeConfig::idle_sense_scheme()};
  spec.loads = {0.5, 2.0};
  spec.seeds = 2;
  spec.options = quick_options(0.5, 0.1);
  spec.keep_runs = false;

  par::ThreadPool serial(1);
  const auto reference = exp::run_sweep(spec, &serial);
  for (const int threads : {2, 4}) {
    par::ThreadPool pool(threads);
    const auto parallel = exp::run_sweep(spec, &pool);
    ASSERT_EQ(parallel.points.size(), reference.points.size());
    for (std::size_t p = 0; p < reference.points.size(); ++p) {
      const auto& a = reference.points[p].averaged;
      const auto& b = parallel.points[p].averaged;
      EXPECT_EQ(a.mean_mbps, b.mean_mbps) << "threads=" << threads;
      EXPECT_EQ(a.mean_offered_mbps, b.mean_offered_mbps);
      EXPECT_EQ(a.mean_delay_s, b.mean_delay_s);
      EXPECT_EQ(a.mean_delay_p50_s, b.mean_delay_p50_s);
      EXPECT_EQ(a.mean_delay_p95_s, b.mean_delay_p95_s);
      EXPECT_EQ(a.mean_delay_p99_s, b.mean_delay_p99_s);
      EXPECT_EQ(a.mean_drop_rate, b.mean_drop_rate);
      EXPECT_EQ(a.mean_queue_occupancy, b.mean_queue_occupancy);
    }
  }
}

// -------------------------------------------------- batched backoff path

TEST(BatchedBackoff, MatchesPerSlotPathBitForBit) {
  // Production's batched decisions (pre-drawn per backoff, rewound on busy
  // interruptions) must reproduce the reference model's one-event-per-slot
  // stations bit for bit: same medium trace, same per-station counters.
  // A long hidden-node run, saturated and then Poisson-gated, where busy
  // interruptions land mid-batch all the time.
  for (const bool traffic_on : {false, true}) {
    ScenarioConfig scenario = ScenarioConfig::hidden(8, 16.0, 5);
    if (traffic_on) scenario.traffic = TrafficConfig::poisson(1.5);
    const reference::Case c{scenario, SchemeConfig::standard(),
                            sim::Duration::seconds(1.5)};
    const std::string report = reference::check_case(c);
    EXPECT_TRUE(report.empty()) << report;
  }
}

TEST(BatchedBackoff, DynamicActivationRollsBackCleanly) {
  // run_dynamic toggles stations mid-backoff; with batching this exercises
  // the deactivation rollback. The run must complete and stay sane.
  const auto scenario = ScenarioConfig::connected(6, 1);
  const std::vector<exp::PopulationStep> schedule{
      {0.0, 6}, {0.3, 2}, {0.6, 5}};
  const auto r = exp::run_dynamic(scenario, SchemeConfig::standard(),
                                  schedule, sim::Duration::seconds(1.0),
                                  sim::Duration::seconds(0.1));
  EXPECT_GT(r.successes, 0u);
  EXPECT_GT(r.total_mbps, 1.0);
}

}  // namespace
