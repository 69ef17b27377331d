// Tests for the convergence analytics and short-term fairness metrics
// (Section VII references IdleSense's short-term fairness evaluation).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/wtop_csma.hpp"
#include "exp/runner.hpp"
#include "mac/network.hpp"
#include "stats/convergence.hpp"
#include "stats/fairness.hpp"

namespace {

using namespace wlan;
using namespace wlan::stats;

TimeSeries ramp_then_flat() {
  TimeSeries ts;
  // Ramp 0..9 over t=0..9, then flat 10 +- 0 for t=10..39.
  for (int t = 0; t < 10; ++t) ts.add(static_cast<double>(t), t * 1.0);
  for (int t = 10; t < 40; ++t) ts.add(static_cast<double>(t), 10.0);
  return ts;
}

TEST(Convergence, SettledMeanAndTimeToThreshold) {
  const auto report = analyze_convergence(ramp_then_flat());
  EXPECT_DOUBLE_EQ(report.settled_mean, 10.0);
  EXPECT_DOUBLE_EQ(report.settled_stddev, 0.0);
  // 90% of 10 = 9, first reached at t=9.
  EXPECT_DOUBLE_EQ(report.time_to_threshold, 9.0);
  EXPECT_FALSE(report.never_converged);
}

TEST(Convergence, OscillationShowsInStddev) {
  TimeSeries ts;
  for (int t = 0; t < 100; ++t)
    ts.add(static_cast<double>(t), 10.0 + (t % 2 == 0 ? 1.0 : -1.0));
  const auto report = analyze_convergence(ts);
  EXPECT_NEAR(report.settled_mean, 10.0, 0.05);
  EXPECT_NEAR(report.settled_stddev, 1.0, 0.05);
}

TEST(Convergence, NeverConverged) {
  TimeSeries ts;
  ts.add(0.0, 1.0);
  ts.add(1.0, 2.0);
  ts.add(2.0, 100.0);  // tail mean 100; threshold 90 never reached earlier
  const auto report = analyze_convergence(ts, /*settled=*/0.34, 0.9);
  EXPECT_DOUBLE_EQ(report.settled_mean, 100.0);
  // Reached at the last sample itself.
  EXPECT_FALSE(report.never_converged);
}

TEST(Convergence, EmptySeries) {
  const auto report = analyze_convergence(TimeSeries{});
  EXPECT_TRUE(report.never_converged);
}

TEST(Convergence, Validation) {
  EXPECT_THROW(analyze_convergence(ramp_then_flat(), 0.0),
               std::invalid_argument);
  EXPECT_THROW(analyze_convergence(ramp_then_flat(), 0.5, 1.5),
               std::invalid_argument);
}

TEST(ShortTermFairness, PerfectRoundRobin) {
  std::vector<int> sources;
  for (int k = 0; k < 100; ++k) sources.push_back(k % 4);
  EXPECT_DOUBLE_EQ(sliding_window_jain(sources, 4, 8), 1.0);
}

TEST(ShortTermFairness, BurstyHogIsUnfairShortTerm) {
  // Long-term equal (50/50) but bursty: windows of 10 see one station.
  std::vector<int> sources;
  for (int k = 0; k < 50; ++k) sources.push_back(0);
  for (int k = 0; k < 50; ++k) sources.push_back(1);
  const double short_term = sliding_window_jain(sources, 2, 10);
  EXPECT_LT(short_term, 0.7);
  // At the 100-window horizon it is perfectly fair again.
  EXPECT_DOUBLE_EQ(sliding_window_jain(sources, 2, 100), 1.0);
}

TEST(ShortTermFairness, SmallInputTriviallyFair) {
  EXPECT_DOUBLE_EQ(sliding_window_jain({0, 1}, 2, 10), 1.0);
}

TEST(ShortTermFairness, Validation) {
  EXPECT_THROW(sliding_window_jain({0}, 0, 1), std::invalid_argument);
  EXPECT_THROW(sliding_window_jain({0, 5}, 2, 2), std::invalid_argument);
  EXPECT_THROW(sliding_window_jain({0}, 1, 0), std::invalid_argument);
}

/// Logs the station index of each data frame the AP receives cleanly and
/// forwards every call to the scheme's own controller, when it has one.
class SuccessLog final : public mac::ApController {
 public:
  SuccessLog(std::vector<int>& sources, int num_aps,
             std::unique_ptr<mac::ApController> inner)
      : sources_(sources), num_aps_(num_aps), inner_(std::move(inner)) {}

  void on_data_received(const phy::Frame& frame, sim::Time now) override {
    // Station node ids start after the APs'.
    sources_.push_back(static_cast<int>(frame.src) - num_aps_);
    if (inner_ != nullptr) inner_->on_data_received(frame, now);
  }
  void fill_ack(phy::ControlParams& params, sim::Time now) override {
    if (inner_ != nullptr) inner_->fill_ack(params, now);
  }
  void on_tick(sim::Time now) override {
    if (inner_ != nullptr) inner_->on_tick(now);
  }

 private:
  std::vector<int>& sources_;
  int num_aps_;
  std::unique_ptr<mac::ApController> inner_;
};

/// Station index of each data frame the AP received cleanly over the
/// first `seconds` of a run, in order. `inner` is the controller the
/// scheme's build_network installs (null for plain 802.11).
std::vector<int> success_sources(const exp::ScenarioConfig& scenario,
                                 const exp::SchemeConfig& scheme,
                                 std::unique_ptr<mac::ApController> inner,
                                 double seconds) {
  std::vector<int> sources;  // outlives the network that logs into it
  auto net = exp::build_network(scenario, scheme);
  net->set_controller(0, std::make_unique<SuccessLog>(
                             sources, net->num_aps(), std::move(inner)));
  net->start();
  net->run_for(sim::Duration::seconds(seconds));
  return sources;
}

TEST(ShortTermFairness, WTopDeliversGoodShortTermFairness) {
  // The paper (via IdleSense): p-persistent-style access gives good
  // short-term fairness because every slot is a fresh lottery — no
  // binary-backoff streaks.
  auto scenario = exp::ScenarioConfig::connected(10, 1);
  const auto wtop_scheme = exp::SchemeConfig::wtop_csma();
  const std::vector<int> wtop = success_sources(
      scenario, wtop_scheme,
      std::make_unique<core::WTopCsmaController>(wtop_scheme.wtop), 25.0);
  ASSERT_GT(wtop.size(), 1000u);
  const double fairness = stats::sliding_window_jain(wtop, 10, 50, 10);
  EXPECT_GT(fairness, 0.75);

  // Standard 802.11's post-success CWmin reset produces streaks: short-term
  // fairness is no better than wTOP's. The logging controller would make
  // the AP beacon, which plain 802.11 does not.
  scenario.phy.beacons_enabled = false;
  const double std_fairness = stats::sliding_window_jain(
      success_sources(scenario, exp::SchemeConfig::standard(), nullptr, 25.0),
      10, 50, 10);
  EXPECT_GT(fairness + 0.05, std_fairness);
}

TEST(ConvergenceIntegration, WTopSettlesWithinWarmup) {
  exp::RunOptions opts;
  opts.warmup = sim::Duration::zero();
  opts.measure = sim::Duration::seconds(30.0);
  opts.record_series = true;
  const auto r = exp::run_scenario(exp::ScenarioConfig::connected(10, 1),
                                   exp::SchemeConfig::wtop_csma(), opts);
  const auto report = analyze_convergence(r.throughput_series);
  EXPECT_FALSE(report.never_converged);
  EXPECT_LT(report.time_to_threshold, 15.0);
  EXPECT_GT(report.settled_mean, 20.0);
  // Residual oscillation is modest once settled.
  EXPECT_LT(report.settled_stddev, 0.15 * report.settled_mean);
}

}  // namespace
