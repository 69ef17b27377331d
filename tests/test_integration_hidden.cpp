// Integration tests with hidden nodes: the phenomena of Section I/V-VI.
// Deterministic seeds keep these reproducible; the assertions target the
// paper's qualitative claims (orderings, quasi-concavity, idle-slot drift),
// not absolute numbers. Multi-run tests are phrased as exp::run_sweep
// grids so the independent simulations fan out across the thread pool —
// they remain bit-identical to the serial loops they replaced.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "analysis/quasiconcave.hpp"
#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "mac/network.hpp"

namespace {

using namespace wlan;
using namespace wlan::exp;

RunOptions fast_opts(double warm = 10.0, double measure = 10.0) {
  RunOptions o;
  o.warmup = sim::Duration::seconds(warm);
  o.measure = sim::Duration::seconds(measure);
  return o;
}

TEST(HiddenIntegration, TopologyActuallyHasHiddenPairs) {
  const auto scenario = ScenarioConfig::hidden(20, 16.0, 1);
  const auto result =
      run_scenario(scenario, SchemeConfig::standard(), fast_opts(1, 2));
  EXPECT_GT(result.hidden_pairs, 0u);
}

TEST(HiddenIntegration, IdleSenseCollapsesWithHiddenNodes) {
  // Fig. 1's headline: IdleSense beats Std 802.11 when connected but does
  // WORSE than Std 802.11 with hidden nodes.
  const int n = 20;
  const auto connected = ScenarioConfig::connected(n, 1);
  const auto hidden = ScenarioConfig::hidden(n, 16.0, 1);
  const auto opts = fast_opts();

  SweepSpec spec;
  spec.scenarios = {connected, hidden};
  spec.schemes = {SchemeConfig::idle_sense_scheme(), SchemeConfig::standard()};
  spec.options = opts;
  const auto result = run_sweep(spec);
  const auto& is_conn = result.at(0, 0).runs[0];
  const auto& std_conn = result.at(0, 1).runs[0];
  const auto& is_hidden = result.at(1, 0).runs[0];
  const auto& std_hidden = result.at(1, 1).runs[0];

  EXPECT_GT(is_conn.total_mbps, std_conn.total_mbps);
  EXPECT_LT(is_hidden.total_mbps, std_hidden.total_mbps);
}

TEST(HiddenIntegration, ToraBeatsWTopWithHiddenNodes) {
  // Figs. 6-7: the exponential-backoff scheme outperforms the optimal
  // p-persistent scheme when hidden nodes exist. The seed axis covers the
  // same scenarios (seeds 1, 2, 3) the serial loop used.
  SweepSpec spec = SweepSpec::single(ScenarioConfig::hidden(20, 16.0, 1),
                                     SchemeConfig::tora_csma(),
                                     fast_opts(15.0, 10.0), /*seeds=*/3);
  spec.schemes = {SchemeConfig::tora_csma(), SchemeConfig::wtop_csma()};
  spec.keep_runs = false;
  const auto result = run_sweep(spec);
  EXPECT_GT(result.at(0, 0).averaged.mean_mbps,
            result.at(0, 1).averaged.mean_mbps);
}

TEST(HiddenIntegration, AdaptiveSchemesBeatIdleSenseWithHiddenNodes) {
  SweepSpec spec;
  spec.scenarios = {ScenarioConfig::hidden(20, 16.0, 2)};
  spec.schemes = {SchemeConfig::idle_sense_scheme(), SchemeConfig::wtop_csma(),
                  SchemeConfig::tora_csma()};
  spec.options = fast_opts(15.0, 10.0);
  spec.keep_runs = false;
  const auto result = run_sweep(spec);
  const double idle = result.at(0, 0).averaged.mean_mbps;
  EXPECT_GT(result.at(0, 1).averaged.mean_mbps, idle);
  EXPECT_GT(result.at(0, 2).averaged.mean_mbps, idle);
}

TEST(HiddenIntegration, WTopIdleSlotsDependOnConfiguration) {
  // Table III: wTOP's converged idle-slot count differs between connected
  // and hidden configurations (so no fixed IdleSense target can be right),
  // while IdleSense pins its observable near the same value in both.
  const int n = 20;
  SweepSpec spec;
  spec.scenarios = {ScenarioConfig::connected(n, 1),
                    ScenarioConfig::hidden(n, 16.0, 1)};
  spec.schemes = {SchemeConfig::wtop_csma(),
                  SchemeConfig::idle_sense_scheme()};
  spec.options = fast_opts(15.0, 10.0);
  const auto result = run_sweep(spec);
  const auto& wtop_conn = result.at(0, 0).runs[0];
  const auto& wtop_hidden = result.at(1, 0).runs[0];
  EXPECT_GT(wtop_hidden.ap_avg_idle_slots,
            1.5 * wtop_conn.ap_avg_idle_slots);

  const auto& is_conn = result.at(0, 1).runs[0];
  const auto& is_hidden = result.at(1, 1).runs[0];
  EXPECT_NEAR(is_hidden.ap_avg_idle_slots / is_conn.ap_avg_idle_slots, 1.0,
              0.5);
}

TEST(HiddenIntegration, ThroughputQuasiConcaveInPWithHiddenNodes) {
  // Fig. 4 (coarse): measured throughput vs p on a hidden topology is
  // unimodal within noise tolerance. The log(p) grid is a params axis.
  SweepSpec spec;
  spec.scenarios = {ScenarioConfig::hidden(15, 16.0, 3)};
  spec.schemes = {SchemeConfig::standard()};  // rewritten by bind
  for (double logp = -7.0; logp <= -0.7; logp += 0.7)
    spec.params.push_back(logp);
  spec.bind = [](double logp, ScenarioConfig&, SchemeConfig& sch) {
    sch = SchemeConfig::fixed_p_persistent(std::exp(logp));
  };
  spec.options = fast_opts(1.0, 4.0);
  spec.keep_runs = false;
  const auto result = run_sweep(spec);
  std::vector<double> ys;
  for (const auto& point : result.points)
    ys.push_back(point.averaged.mean_mbps);
  const auto report = analysis::check_unimodal(ys, 0.10);
  EXPECT_TRUE(report.unimodal) << "violation=" << report.max_violation;
}

TEST(HiddenIntegration, ThroughputQuasiConcaveInP0WithHiddenNodes) {
  // Fig. 5 (coarse): throughput vs p0 for RandomReset(0; p0).
  SweepSpec spec;
  spec.scenarios = {ScenarioConfig::hidden(15, 16.0, 3)};
  spec.schemes = {SchemeConfig::standard()};  // rewritten by bind
  for (double p0 = 0.0; p0 <= 1.001; p0 += 0.2) spec.params.push_back(p0);
  spec.bind = [](double p0, ScenarioConfig&, SchemeConfig& sch) {
    sch = SchemeConfig::fixed_random_reset(0, p0);
  };
  spec.options = fast_opts(1.0, 4.0);
  spec.keep_runs = false;
  const auto result = run_sweep(spec);
  std::vector<double> ys;
  for (const auto& point : result.points)
    ys.push_back(point.averaged.mean_mbps);
  const auto report = analysis::check_unimodal(ys, 0.10);
  EXPECT_TRUE(report.unimodal) << "violation=" << report.max_violation;
}

TEST(HiddenIntegration, ExplicitTwoCliqueTopology) {
  // Deterministic worst case: two groups hidden from each other. Standard
  // 802.11 suffers persistent cross-group collisions; TORA-CSMA backs
  // off far enough to restore useful throughput.
  const int n = 6;  // two cliques of 3
  auto make_net = [&](SchemeConfig scheme) {
    std::vector<std::vector<bool>> sense(
        static_cast<std::size_t>(n + 1),
        std::vector<bool>(static_cast<std::size_t>(n + 1), false));
    for (int i = 0; i <= n; ++i)
      for (int j = 0; j <= n; ++j) {
        if (i == j) continue;
        const bool ap_involved = i == 0 || j == 0;
        const bool same_group = (i <= 3) == (j <= 3);
        sense[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
            ap_involved || same_group;
      }
    mac::WifiParams params;
    auto net = std::make_unique<mac::Network>(
        params, std::make_unique<phy::ExplicitGraph>(sense, sense),
        std::vector<phy::Vec2>{phy::graph_position(0)}, /*seed=*/11);
    for (int i = 1; i <= n; ++i)
      net->add_station(phy::graph_position(static_cast<std::size_t>(i)),
                       make_strategy(scheme, params, i - 1));
    if (scheme.kind == SchemeKind::kToraCsma)
      net->set_controller(std::make_unique<core::ToraCsmaController>(params));
    net->finalize();
    return net;
  };

  auto run = [&](SchemeConfig scheme) {
    auto net = make_net(scheme);
    net->start();
    net->run_for(sim::Duration::seconds(15.0));
    net->reset_counters();
    net->run_for(sim::Duration::seconds(10.0));
    return net->total_mbps();
  };

  const double std_mbps = run(SchemeConfig::standard());
  const double tora_mbps = run(SchemeConfig::tora_csma());
  // TORA must at least match standard 802.11 here (its optimality claim is
  // about the backoff family, and std 802.11 is already close to optimal
  // on this particular topology) and stay far from IdleSense-style
  // collapse.
  EXPECT_GT(tora_mbps, 0.85 * std_mbps);
  EXPECT_GT(tora_mbps, 10.0);
}

}  // namespace
