// Tests of the experiment layer: scenario/scheme builders, the runner's
// measurement bookkeeping, its hidden-pair count, seed averaging, and
// dynamic population schedules.
// Repeated-run tests go through exp::run_sweep so their independent
// simulations fan out across the thread pool.
#include <gtest/gtest.h>

#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "topology/hidden.hpp"

namespace {

using namespace wlan;
using namespace wlan::exp;

TEST(Scenario, Builders) {
  const auto c = ScenarioConfig::connected(25, 7);
  EXPECT_EQ(c.num_stations, 25);
  EXPECT_EQ(c.topology, TopologyKind::kCircleEdge);
  EXPECT_DOUBLE_EQ(c.radius, 8.0);
  EXPECT_EQ(c.seed, 7u);

  const auto h = ScenarioConfig::hidden(30, 20.0, 9);
  EXPECT_EQ(h.topology, TopologyKind::kUniformDisc);
  EXPECT_DOUBLE_EQ(h.radius, 20.0);
}

TEST(Scenario, LayoutMatchesTopologyKind) {
  const auto circle = make_plan(ScenarioConfig::connected(12, 1));
  ASSERT_EQ(circle.aps.size(), 1u);
  ASSERT_EQ(circle.stations.size(), 12u);
  for (const auto& s : circle.stations)
    EXPECT_NEAR(phy::distance(circle.aps[0], s), 8.0, 1e-9);

  const auto disc = make_plan(ScenarioConfig::hidden(12, 16.0, 1));
  for (const auto& s : disc.stations)
    EXPECT_LE(phy::distance(disc.aps[0], s), 16.0);
}

TEST(Scheme, NamesAreDescriptive) {
  EXPECT_EQ(SchemeConfig::standard().name(), "Standard 802.11");
  EXPECT_EQ(SchemeConfig::wtop_csma().name(), "wTOP-CSMA");
  EXPECT_EQ(SchemeConfig::tora_csma().name(), "TORA-CSMA");
  EXPECT_EQ(SchemeConfig::idle_sense_scheme().name(), "IdleSense");
  EXPECT_NE(SchemeConfig::fixed_p_persistent(0.05).name().find("0.05"),
            std::string::npos);
  EXPECT_NE(SchemeConfig::fixed_random_reset(2, 0.5).name().find("j=2"),
            std::string::npos);
}

TEST(Scheme, WeightDefaultsAndRepeats) {
  SchemeConfig s = SchemeConfig::wtop_csma();
  EXPECT_DOUBLE_EQ(s.weight_of(5), 1.0);
  s.weights = {1, 2};
  EXPECT_DOUBLE_EQ(s.weight_of(0), 1.0);
  EXPECT_DOUBLE_EQ(s.weight_of(1), 2.0);
  EXPECT_DOUBLE_EQ(s.weight_of(9), 2.0);  // repeats last
}

TEST(Scheme, StrategyFactoryProducesRightTypes) {
  const mac::WifiParams phy;
  EXPECT_EQ(make_strategy(SchemeConfig::standard(), phy, 0)->name(),
            "Standard802.11");
  EXPECT_EQ(make_strategy(SchemeConfig::wtop_csma(), phy, 0)->name(),
            "wTOP-CSMA");
  EXPECT_EQ(make_strategy(SchemeConfig::tora_csma(), phy, 0)->name(),
            "TORA-CSMA");
  EXPECT_EQ(make_strategy(SchemeConfig::idle_sense_scheme(), phy, 0)->name(),
            "IdleSense");
  EXPECT_EQ(make_strategy(SchemeConfig::fixed_p_persistent(0.1), phy, 0)
                ->attempt_probability(),
            0.1);
}

TEST(Runner, MeasurementExcludesWarmup) {
  const auto scenario = ScenarioConfig::connected(5, 1);
  RunOptions opts;
  opts.warmup = sim::Duration::seconds(2.0);
  opts.measure = sim::Duration::seconds(4.0);
  const auto r =
      run_scenario(scenario, SchemeConfig::fixed_p_persistent(0.05), opts);
  EXPECT_GT(r.total_mbps, 10.0);
  EXPECT_EQ(r.per_station_mbps.size(), 5u);
  EXPECT_EQ(r.hidden_pairs, 0u);
  EXPECT_GT(r.successes, 0u);
}

TEST(Runner, DeterministicForSameConfig) {
  const auto scenario = ScenarioConfig::connected(5, 42);
  // Two identical grid rows fan out as concurrent jobs: equal results
  // prove both run-to-run determinism and isolation between parallel
  // Simulator instances.
  SweepSpec spec;
  spec.scenarios = {scenario, scenario};
  spec.schemes = {SchemeConfig::fixed_p_persistent(0.05)};
  spec.options.warmup = sim::Duration::seconds(0.5);
  spec.options.measure = sim::Duration::seconds(2.0);
  const auto result = run_sweep(spec);
  const auto& a = result.at(0).runs[0];
  const auto& b = result.at(1).runs[0];
  EXPECT_DOUBLE_EQ(a.total_mbps, b.total_mbps);
}

TEST(Runner, SeriesRecordedWhenRequested) {
  const auto scenario = ScenarioConfig::connected(5, 1);
  RunOptions opts;
  opts.warmup = sim::Duration::seconds(1.0);
  opts.measure = sim::Duration::seconds(2.0);
  opts.record_series = true;
  opts.sample_period = sim::Duration::milliseconds(500);
  const auto r = run_scenario(scenario, SchemeConfig::wtop_csma(), opts);
  // ~6 samples over 3 s at 0.5 s period.
  EXPECT_GE(r.throughput_series.size(), 5u);
  EXPECT_EQ(r.control_series.size(), r.throughput_series.size());
  // Windowed throughput values are plausible Mb/s.
  for (const auto& s : r.throughput_series.samples()) {
    EXPECT_GE(s.value, 0.0);
    EXPECT_LT(s.value, 54.0);
  }
}

TEST(Runner, NoSeriesByDefault) {
  const auto scenario = ScenarioConfig::connected(3, 1);
  RunOptions opts;
  opts.warmup = sim::Duration::zero();
  opts.measure = sim::Duration::seconds(1.0);
  const auto r = run_scenario(scenario, SchemeConfig::standard(), opts);
  EXPECT_TRUE(r.throughput_series.empty());
}

TEST(Runner, AveragedRunsSpanSeeds) {
  const auto scenario = ScenarioConfig::hidden(8, 16.0, 1);
  RunOptions opts;
  opts.warmup = sim::Duration::seconds(0.5);
  opts.measure = sim::Duration::seconds(2.0);
  // A one-point sweep: the three seeds run as parallel jobs.
  const SweepResult sweep = run_sweep(
      SweepSpec::single(scenario, SchemeConfig::standard(), opts, /*seeds=*/3));
  const AveragedResult& avg = sweep.at(0).averaged;
  EXPECT_GT(avg.mean_mbps, 0.0);
  EXPECT_LE(avg.min_mbps, avg.mean_mbps);
  EXPECT_GE(avg.max_mbps, avg.mean_mbps);
  // Different seeds give different topologies -> a spread exists.
  EXPECT_NE(avg.min_mbps, avg.max_mbps);
}

TEST(Runner, DynamicScheduleChangesActivePopulation) {
  const auto scenario = ScenarioConfig::connected(10, 1);
  std::vector<PopulationStep> schedule{{0.0, 4}, {5.0, 10}, {10.0, 2}};
  const auto r =
      run_dynamic(scenario, SchemeConfig::standard(), schedule,
                  sim::Duration::seconds(15.0), sim::Duration::seconds(1.0));
  // The active-node series tracks the schedule.
  EXPECT_NEAR(r.active_nodes_series.value_at(2.0), 4.0, 0.1);
  EXPECT_NEAR(r.active_nodes_series.value_at(7.0), 10.0, 0.1);
  EXPECT_NEAR(r.active_nodes_series.value_at(14.0), 2.0, 0.1);
  // Throughput persists through the changes.
  EXPECT_GT(r.throughput_series.mean_in_window(11.0, 15.0), 5.0);
}

TEST(Runner, DynamicWTopAdaptsToPopulation) {
  const auto scenario = ScenarioConfig::connected(20, 1);
  std::vector<PopulationStep> schedule{{0.0, 5}, {30.0, 20}};
  const auto r =
      run_dynamic(scenario, SchemeConfig::wtop_csma(), schedule,
                  sim::Duration::seconds(60.0), sim::Duration::seconds(1.0));
  // After the jump from 5 to 20 nodes the control variable must fall
  // (optimal p ~ 1/N).
  const double p_before = r.control_series.mean_in_window(20.0, 30.0);
  const double p_after = r.control_series.mean_in_window(50.0, 60.0);
  EXPECT_LT(p_after, p_before);
  // Throughput stays healthy in both phases.
  EXPECT_GT(r.throughput_series.mean_in_window(20.0, 30.0), 15.0);
  EXPECT_GT(r.throughput_series.mean_in_window(50.0, 60.0), 15.0);
}

TEST(Runner, HiddenPairsMatchTopologyReference) {
  // RunResult::hidden_pairs is read from the built medium's sensing rows;
  // topology::count_hidden_pairs recomputes it pair by pair from a fresh
  // placement and propagation model. Both runner entry points must agree
  // with it on every scenario kind whose hidden pairs the drivers report.
  RunOptions zero;
  zero.warmup = sim::Duration::zero();
  zero.measure = sim::Duration::zero();
  std::size_t hidden_total = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    for (const ScenarioConfig& scenario :
         {ScenarioConfig::connected(20, seed),
          ScenarioConfig::hidden(20, 16.0, seed),
          ScenarioConfig::hidden(20, 20.0, seed),
          ScenarioConfig::shadowed(20, 0.3, seed),
          ScenarioConfig::multicell(4, 5, 30.0, seed),
          ScenarioConfig::multicell(9, 8, 30.0, seed)}) {
      SCOPED_TRACE(::testing::Message()
                   << "seed " << seed << " cells " << scenario.cells
                   << " radius " << scenario.radius << " shadow "
                   << scenario.shadow_probability);
      const auto model = make_propagation(scenario);
      // analyze_hidden ignores the AP, so one AP stands in for an ESS's.
      const auto plan = make_plan(scenario);
      const topology::Layout layout{plan.aps[0], plan.stations};
      const std::size_t expected = topology::count_hidden_pairs(layout, *model);
      hidden_total += expected;
      EXPECT_EQ(run_scenario(scenario, SchemeConfig::standard(), zero)
                    .hidden_pairs,
                expected);
      EXPECT_EQ(run_dynamic(scenario, SchemeConfig::standard(), {},
                            sim::Duration::zero(), sim::Duration::seconds(1.0))
                    .hidden_pairs,
                expected);
    }
  }
  EXPECT_GT(hidden_total, 0u);
}

}  // namespace
