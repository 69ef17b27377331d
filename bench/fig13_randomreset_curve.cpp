// Figure 13: throughput of RandomReset(j=0; p0) vs p0 in a FULLY CONNECTED
// network, 20 and 40 nodes — analytic fixed-point model plus simulator
// cross-check (the simulated points run as one sweep on the thread pool).
//
// Paper shape: quasi-concave with a flat top (flatter than Fig. 2's
// p-persistent curve); the 40-node curve peaks at smaller p0.
#include <algorithm>
#include <cmath>

#include "analysis/quasiconcave.hpp"
#include "analysis/randomreset.hpp"
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace wlan;
  bench::init(argc, argv);
  bench::header("Figure 13",
                "RandomReset(0; p0) throughput vs p0, connected, 20/40 "
                "nodes (fixed-point model + simulator)");

  const mac::WifiParams params;
  const double step = util::bench_fast() ? 0.2 : 0.05;

  // Dense model grid; every fourth point (all of them in fast mode) is
  // cross-checked in simulation.
  const std::vector<double> grid = bench::arange(0.0, 1.0, step);
  std::vector<double> simulated;
  for (const double p0 : grid)
    if (std::fmod(p0 + 1e-9, 4.0 * step) < 2e-9 || util::bench_fast())
      simulated.push_back(p0);

  // One sweep: {20, 40} nodes × simulated p0 points.
  exp::SweepSpec spec;
  spec.scenarios = {exp::ScenarioConfig::connected(20, 1),
                    exp::ScenarioConfig::connected(40, 1)};
  spec.schemes = {exp::SchemeConfig::standard()};  // rewritten by bind
  spec.params = simulated;
  spec.bind = [](double p0, exp::ScenarioConfig&, exp::SchemeConfig& sch) {
    // min() guards the grid-accumulation overshoot past 1.0.
    sch = exp::SchemeConfig::fixed_random_reset(0, std::min(p0, 1.0));
  };
  spec.options = bench::fixed_options();
  spec.keep_runs = false;
  const auto sweep = exp::run_sweep(spec);
  sweep.throw_if_failed();

  util::CsvWriter csv("fig13_randomreset_curve.csv");
  csv.header({"p0", "model_n20", "model_n40", "sim_n20", "sim_n40"});

  std::vector<double> model20, model40;
  std::size_t sim_idx = 0;
  for (const double p0 : grid) {
    const double m20 =
        analysis::random_reset_throughput(0, std::min(p0, 1.0), 20, params) /
        1e6;
    const double m40 =
        analysis::random_reset_throughput(0, std::min(p0, 1.0), 40, params) /
        1e6;
    model20.push_back(m20);
    model40.push_back(m40);

    const bool simulate =
        sim_idx < simulated.size() && simulated[sim_idx] == p0;
    double s20 = NAN, s40 = NAN;
    if (simulate) {
      s20 = sweep.at(0, 0, sim_idx).averaged.mean_mbps;
      s40 = sweep.at(1, 0, sim_idx).averaged.mean_mbps;
      ++sim_idx;
    }
    csv.row_numeric({p0, m20, m40, s20, s40});
  }
  csv.print(std::cout);

  const auto r20 = analysis::check_unimodal(model20, 1e-9);
  const auto r40 = analysis::check_unimodal(model40, 1e-9);
  std::printf("\nQuasi-concave in p0 (Lemma 8): 20 nodes %s, 40 nodes %s.\n",
              r20.unimodal ? "yes" : "NO", r40.unimodal ? "yes" : "NO");
  std::printf("Expected: flat-topped bells; 40-node optimum at smaller p0 "
              "than 20-node.\n");
  return 0;
}
