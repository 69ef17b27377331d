// Figure 2: throughput of p-persistent CSMA vs log(attempt probability) in
// a fully connected network, 20 and 40 nodes.
//
// Paper shape: bell (strictly quasi-concave) curves peaking in the low 20s
// of Mb/s; the 40-node peak sits at a smaller p than the 20-node peak.
// This bench prints the closed-form curve (eq. 3) densely and cross-checks
// a handful of points against the event-driven simulator; the simulated
// points run as one declarative sweep across the thread pool.
#include <cmath>

#include "analysis/ppersistent.hpp"
#include "analysis/quasiconcave.hpp"
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace wlan;
  bench::init(argc, argv);
  bench::header("Figure 2",
                "p-persistent throughput vs log(p), 20/40 nodes, connected "
                "(analytic eq. 3 + simulator cross-check)");

  const mac::WifiParams params;
  util::CsvWriter csv("fig02_ppersistent_curve.csv");
  csv.header({"log_p", "model_n20_mbps", "model_n40_mbps", "sim_n20_mbps",
              "sim_n40_mbps"});

  const double step = util::bench_fast() ? 1.0 : 0.5;

  // The dense model grid, and the every-other subset that is cross-checked
  // in simulation (kept sparse to bound runtime).
  const std::vector<double> grid = bench::arange(-10.0, -2.0, step);
  std::vector<double> simulated;
  for (const double logp : grid)
    if (std::fmod(std::abs(logp), 2.0 * step) < 1e-9) simulated.push_back(logp);

  // One declarative sweep: {20, 40} nodes × simulated log(p) points.
  exp::SweepSpec spec;
  spec.scenarios = {exp::ScenarioConfig::connected(20, 1),
                    exp::ScenarioConfig::connected(40, 1)};
  spec.schemes = {exp::SchemeConfig::standard()};  // rewritten by bind
  spec.params = simulated;
  spec.bind = [](double logp, exp::ScenarioConfig&, exp::SchemeConfig& sch) {
    sch = exp::SchemeConfig::fixed_p_persistent(std::exp(logp));
  };
  spec.options = bench::fixed_options();
  spec.keep_runs = false;
  const auto sweep = exp::run_sweep(spec);
  sweep.throw_if_failed();

  std::vector<double> curve20, curve40;
  std::size_t sim_idx = 0;
  for (const double logp : grid) {
    const double p = std::exp(logp);
    std::vector<double> w20(20, 1.0), w40(40, 1.0);
    const double m20 =
        analysis::ppersistent_system_throughput(p, w20, params) / 1e6;
    const double m40 =
        analysis::ppersistent_system_throughput(p, w40, params) / 1e6;
    curve20.push_back(m20);
    curve40.push_back(m40);

    const bool simulate =
        sim_idx < simulated.size() && simulated[sim_idx] == logp;
    double s20 = NAN, s40 = NAN;
    if (simulate) {
      s20 = sweep.at(0, 0, sim_idx).averaged.mean_mbps;
      s40 = sweep.at(1, 0, sim_idx).averaged.mean_mbps;
      ++sim_idx;
    }
    csv.row_numeric({logp, m20, m40, s20, s40});
  }

  csv.print(std::cout);

  const auto r20 = analysis::check_unimodal(curve20, 0.0);
  const auto r40 = analysis::check_unimodal(curve40, 0.0);
  std::printf("\nQuasi-concave (20 nodes): %s;  (40 nodes): %s\n",
              r20.unimodal ? "yes" : "NO", r40.unimodal ? "yes" : "NO");
  std::printf("Peak p (20 nodes) ~ %.4f; (40 nodes) ~ %.4f — 40-node peak "
              "at smaller p, as in the paper.\n",
              analysis::optimal_master_probability(std::vector<double>(20, 1.0),
                                                   params),
              analysis::optimal_master_probability(std::vector<double>(40, 1.0),
                                                   params));
  return 0;
}
