// Section VI.B's flatness claim, quantified: "The RandomReset-CSMA exhibits
// a more flat characteristics about the maxima while the p-persistent CSMA
// has a sharper fall from the maxima. This indicates that if the control
// variable oscillates around the optimal the throughput variations would be
// lesser for TORA-CSMA than that for wTOP-CSMA."
//
// The KW probes oscillate forever by +-b_k, so the settled-state throughput
// standard deviation directly measures the cost of each scheme's curvature.
// Also reports each scheme's convergence time (time to 90% of the settled
// mean) and the analytic curvature proxy: throughput loss at the probe
// offsets around the optimum, from the closed-form curves of Figs. 2/13.
#include <cmath>

#include "analysis/ppersistent.hpp"
#include "analysis/randomreset.hpp"
#include "bench_common.hpp"
#include "stats/convergence.hpp"

int main(int argc, char** argv) {
  using namespace wlan;
  bench::init(argc, argv);
  bench::header("Ablation: oscillation cost (Section VI.B)",
                "Settled throughput jitter of wTOP vs TORA under perpetual "
                "KW probing, plus the closed-form curvature that predicts it");

  const double s = util::bench_time_scale() * (util::bench_fast() ? 0.4 : 1.0);
  exp::RunOptions opts;
  opts.warmup = sim::Duration::zero();
  opts.measure = sim::Duration::seconds(60.0 * s);
  opts.record_series = true;
  opts.sample_period = sim::Duration::seconds(1.0);

  // One sweep: 10 and 40 connected stations under wTOP and TORA.
  const std::vector<int> nodes{10, 40};
  exp::SweepSpec spec;
  for (int n : nodes)
    spec.scenarios.push_back(exp::ScenarioConfig::connected(n, 1));
  spec.schemes = {exp::SchemeConfig::wtop_csma(),
                  exp::SchemeConfig::tora_csma()};
  spec.options = opts;
  const auto sweep = exp::run_sweep(spec);
  sweep.throw_if_failed();

  util::CsvWriter csv("ablation_oscillation.csv");
  csv.header({"nodes", "scheme", "settled_mbps", "settled_stddev",
              "t90_seconds"});

  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t k = 0; k < spec.schemes.size(); ++k) {
      const auto report = stats::analyze_convergence(
          sweep.at(i, k).runs[0].throughput_series);
      csv.row({std::to_string(nodes[i]), spec.schemes[k].name(),
               util::format_double(report.settled_mean, 6),
               util::format_double(report.settled_stddev, 6),
               util::format_double(report.time_to_threshold, 6)});
    }
  }
  csv.print(std::cout);

  // Closed-form curvature proxy: relative throughput at a +-30% parameter
  // excursion around each optimum (Figs. 2 and 13 analytically).
  const mac::WifiParams phy;
  const int n = 20;
  std::vector<double> w(n, 1.0);
  const double p_star = analysis::optimal_master_probability(w, phy);
  const double s_star = analysis::ppersistent_system_throughput(p_star, w, phy);
  const double p_excursion =
      0.5 * (analysis::ppersistent_system_throughput(p_star * 1.3, w, phy) +
             analysis::ppersistent_system_throughput(p_star / 1.3, w, phy)) /
      s_star;

  // TORA: best (j, p0) then +-0.3 excursion in p0.
  int best_j = 0;
  double best_p0 = 0.5, best_s = 0.0;
  for (int j = 0; j < phy.num_backoff_stages(); ++j)
    for (double p0 = 0.0; p0 <= 1.0; p0 += 0.05) {
      const double v = analysis::random_reset_throughput(j, p0, n, phy);
      if (v > best_s) {
        best_s = v;
        best_j = j;
        best_p0 = p0;
      }
    }
  const double lo = std::max(0.0, best_p0 - 0.3);
  const double hi = std::min(1.0, best_p0 + 0.3);
  const double rr_excursion =
      0.5 * (analysis::random_reset_throughput(best_j, lo, n, phy) +
             analysis::random_reset_throughput(best_j, hi, n, phy)) /
      best_s;

  std::printf("\nClosed-form curvature at +-30%% excursions (n=20): "
              "p-persistent keeps %.1f%% of peak; RandomReset keeps %.1f%% "
              "(j*=%d, p0*=%.2f).\n",
              100.0 * p_excursion, 100.0 * rr_excursion, best_j, best_p0);
  std::printf("Expected: RandomReset's flatter top -> TORA's settled stddev "
              "comparable to or below wTOP's despite its coarser (linear) "
              "probes.\n");
  return 0;
}
