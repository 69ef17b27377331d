// Integration tests on fully connected networks: the event-driven simulator
// must agree with the closed-form model (Eqs. 2-3), and the adaptive
// controllers must converge to near-optimal operating points (Theorems 1-3).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "analysis/ppersistent.hpp"
#include "analysis/randomreset.hpp"
#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "stats/fairness.hpp"

namespace {

using namespace wlan;
using namespace wlan::exp;

// ---------------------------------------------------------------------------
// Simulator vs analytical model for fixed p-persistent CSMA.

// gtest names a parameter that has no PrintTo by its raw bytes, so the
// struct must have no padding: padding bytes are uninitialised and would
// give the cases different names from one build to the next.
struct SimVsModelCase {
  std::int64_t n;
  double p;
};
static_assert(sizeof(SimVsModelCase) == sizeof(std::int64_t) + sizeof(double));

class SimVsModel : public ::testing::TestWithParam<SimVsModelCase> {};

TEST_P(SimVsModel, ThroughputMatchesEq3) {
  const auto& c = GetParam();
  auto scenario = ScenarioConfig::connected(static_cast<int>(c.n), /*seed=*/5);
  RunOptions opts;
  opts.warmup = sim::Duration::seconds(1.0);
  opts.measure = sim::Duration::seconds(10.0);
  const auto result =
      run_scenario(scenario, SchemeConfig::fixed_p_persistent(c.p), opts);

  std::vector<double> w(static_cast<std::size_t>(c.n), 1.0);
  const double model_mbps =
      analysis::ppersistent_system_throughput(c.p, w, scenario.phy) / 1e6;

  // The analytical model ignores some event-level details (e.g. the exact
  // post-collision resync), so allow 8% relative error.
  EXPECT_NEAR(result.total_mbps / model_mbps, 1.0, 0.08)
      << "n=" << c.n << " p=" << c.p << " sim=" << result.total_mbps
      << " model=" << model_mbps;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SimVsModel,
    ::testing::Values(SimVsModelCase{5, 0.01}, SimVsModelCase{5, 0.05},
                      SimVsModelCase{10, 0.02}, SimVsModelCase{10, 0.1},
                      SimVsModelCase{20, 0.015}, SimVsModelCase{40, 0.008},
                      SimVsModelCase{40, 0.02}),
    [](const auto& info) {
      std::string name = "n";
      name += std::to_string(info.param.n);
      name += "_p";
      name += std::to_string(static_cast<int>(info.param.p * 1000));
      return name;
    });

// ---------------------------------------------------------------------------
// RandomReset fixed-point model vs simulation.

TEST(SimVsModelRandomReset, FixedPointPredictsSimThroughput) {
  const int n = 15;
  auto scenario = ScenarioConfig::connected(n, 3);
  const std::vector<std::pair<int, double>> grid{{0, 1.0}, {2, 0.5}, {4, 0.8}};
  // The (j, p0) grid runs as a scheme-axis sweep across the thread pool.
  SweepSpec spec;
  spec.scenarios = {scenario};
  for (const auto& [j, p0] : grid)
    spec.schemes.push_back(SchemeConfig::fixed_random_reset(j, p0));
  spec.options.warmup = sim::Duration::seconds(1.0);
  spec.options.measure = sim::Duration::seconds(10.0);
  spec.keep_runs = false;
  const auto result = run_sweep(spec);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto& [j, p0] = grid[i];
    const double model_mbps =
        analysis::random_reset_throughput(j, p0, n, scenario.phy) / 1e6;
    // The decoupling approximation plus MAC details: 12% tolerance.
    EXPECT_NEAR(result.at(0, i).averaged.mean_mbps / model_mbps, 1.0, 0.12)
        << "j=" << j << " p0=" << p0;
  }
}

// ---------------------------------------------------------------------------
// wTOP-CSMA convergence (Theorems 1-2).

TEST(WTopIntegration, ConvergesNearAnalyticOptimum) {
  const int n = 10;
  auto scenario = ScenarioConfig::connected(n, 1);
  RunOptions opts;
  opts.warmup = sim::Duration::seconds(20.0);
  opts.measure = sim::Duration::seconds(15.0);
  const auto result = run_scenario(scenario, SchemeConfig::wtop_csma(), opts);

  std::vector<double> w(n, 1.0);
  const double p_star = analysis::optimal_master_probability(w, scenario.phy);
  const double s_star =
      analysis::ppersistent_system_throughput(p_star, w, scenario.phy) / 1e6;

  EXPECT_GT(result.total_mbps, 0.9 * s_star);
  // The attempt probability itself is in the right region (within ~2.5x;
  // the plateau is wide so throughput converges faster than p).
  EXPECT_GT(result.mean_attempt_probability, p_star / 2.5);
  EXPECT_LT(result.mean_attempt_probability, p_star * 2.5);
}

TEST(WTopIntegration, BeatsStandard80211At40Nodes) {
  // Fig. 3's main gap: standard 802.11 degrades with N, wTOP does not.
  auto scenario = ScenarioConfig::connected(40, 2);
  RunOptions opts;
  opts.warmup = sim::Duration::seconds(20.0);
  opts.measure = sim::Duration::seconds(10.0);
  const auto wtop = run_scenario(scenario, SchemeConfig::wtop_csma(), opts);
  const auto std80211 = run_scenario(scenario, SchemeConfig::standard(), opts);
  EXPECT_GT(wtop.total_mbps, std80211.total_mbps * 1.15);
}

TEST(WTopIntegration, WeightedFairnessTable2) {
  // Table II: weights (1,1,1,2,2,2,3,3,3,3) -> normalized throughput equal.
  auto scenario = ScenarioConfig::connected(10, 4);
  auto scheme = SchemeConfig::wtop_csma();
  scheme.weights = {1, 1, 1, 2, 2, 2, 3, 3, 3, 3};
  RunOptions opts;
  opts.warmup = sim::Duration::seconds(20.0);
  opts.measure = sim::Duration::seconds(20.0);
  const auto result = run_scenario(scenario, scheme, opts);

  EXPECT_GT(stats::weighted_jain_index(result.per_station_mbps,
                                       scheme.weights),
            0.99);
  EXPECT_LT(stats::max_normalized_deviation(result.per_station_mbps,
                                            scheme.weights),
            0.12);
  // Total close to the weighted optimum (Table II reports ~22.4 Mb/s).
  const double p_star =
      analysis::optimal_master_probability(scheme.weights, scenario.phy);
  const double s_star = analysis::ppersistent_system_throughput(
                            p_star, scheme.weights, scenario.phy) /
                        1e6;
  EXPECT_GT(result.total_mbps, 0.88 * s_star);
}

TEST(WTopIntegration, WeightsCanChangeWithoutCoordination) {
  // Nodes choose weights independently; no AP knowledge needed. Station 0
  // with weight 4 gets ~4x the throughput of weight-1 stations.
  auto scenario = ScenarioConfig::connected(5, 6);
  auto scheme = SchemeConfig::wtop_csma();
  scheme.weights = {4, 1, 1, 1, 1};
  RunOptions opts;
  opts.warmup = sim::Duration::seconds(15.0);
  opts.measure = sim::Duration::seconds(15.0);
  const auto result = run_scenario(scenario, scheme, opts);
  const double ratio = result.per_station_mbps[0] / result.per_station_mbps[1];
  EXPECT_NEAR(ratio, 4.0, 0.8);
}

// ---------------------------------------------------------------------------
// TORA-CSMA convergence (Theorem 3).

TEST(ToraIntegration, ConvergesNearOptimalBackoff) {
  const int n = 10;
  auto scenario = ScenarioConfig::connected(n, 1);
  RunOptions opts;
  opts.warmup = sim::Duration::seconds(30.0);
  opts.measure = sim::Duration::seconds(15.0);
  const auto result = run_scenario(scenario, SchemeConfig::tora_csma(), opts);

  // Best achievable over the whole RandomReset family (analytic).
  double best = 0.0;
  for (int j = 0; j < scenario.phy.num_backoff_stages(); ++j)
    for (double p0 = 0.0; p0 <= 1.0; p0 += 0.1)
      best = std::max(
          best, analysis::random_reset_throughput(j, p0, n, scenario.phy));
  EXPECT_GT(result.total_mbps, 0.85 * best / 1e6);
}

TEST(ToraIntegration, FairWithoutWeights) {
  auto scenario = ScenarioConfig::connected(8, 9);
  RunOptions opts;
  opts.warmup = sim::Duration::seconds(15.0);
  opts.measure = sim::Duration::seconds(20.0);
  const auto result = run_scenario(scenario, SchemeConfig::tora_csma(), opts);
  EXPECT_GT(stats::jain_index(result.per_station_mbps), 0.97);
}

// ---------------------------------------------------------------------------
// IdleSense baseline sanity in the connected case (Fig. 3: near-optimal).

TEST(IdleSenseIntegration, NearOptimalWhenConnected) {
  auto scenario = ScenarioConfig::connected(20, 3);
  RunOptions opts;
  opts.warmup = sim::Duration::seconds(10.0);
  opts.measure = sim::Duration::seconds(10.0);
  const auto idle = run_scenario(scenario, SchemeConfig::idle_sense_scheme(),
                                 opts);
  const auto std80211 = run_scenario(scenario, SchemeConfig::standard(), opts);
  EXPECT_GT(idle.total_mbps, std80211.total_mbps);

  std::vector<double> w(20, 1.0);
  const double s_star =
      analysis::ppersistent_system_throughput(
          analysis::optimal_master_probability(w, scenario.phy), w,
          scenario.phy) /
      1e6;
  EXPECT_GT(idle.total_mbps, 0.9 * s_star);
}

}  // namespace
