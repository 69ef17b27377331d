// Table II: wTOP-CSMA weighted fairness. 10 stations with weights
// (1,1,1,2,2,2,3,3,3,3) in a fully connected network; per-station
// throughput and normalized throughput (throughput / weight).
//
// Paper shape: normalized throughput ~equal across stations (~1.06 Mb/s)
// and total ~22.4 Mb/s. Runs through the sweep engine (a 1×1 grid) so the
// driver shares the declarative path with the figure sweeps.
#include "analysis/ppersistent.hpp"
#include "bench_common.hpp"
#include "stats/fairness.hpp"

int main(int argc, char** argv) {
  using namespace wlan;
  bench::init(argc, argv);
  bench::header("Table II",
                "wTOP-CSMA weighted fair allocation; 10 stations, weights "
                "(1,1,1,2,2,2,3,3,3,3), fully connected");

  auto scheme = exp::SchemeConfig::wtop_csma();
  scheme.weights = {1, 1, 1, 2, 2, 2, 3, 3, 3, 3};
  const auto scenario = exp::ScenarioConfig::connected(10, 4);

  exp::RunOptions opts;
  const double s = util::bench_time_scale();
  opts.warmup = sim::Duration::seconds(25.0 * s);
  opts.measure = sim::Duration::seconds(25.0 * s);

  const auto sweep = exp::run_sweep(exp::SweepSpec::single(scenario, scheme, opts));
  sweep.throw_if_failed();
  const exp::RunResult& result = sweep.at(0).runs[0];
  const auto norm =
      stats::normalized_throughput(result.per_station_mbps, scheme.weights);

  util::CsvWriter csv("table2_weighted_fairness.csv");
  csv.header({"node", "weight", "throughput_mbps", "normalized_mbps"});
  for (std::size_t i = 0; i < scheme.weights.size(); ++i)
    csv.row_numeric({static_cast<double>(i + 1), scheme.weights[i],
                     result.per_station_mbps[i], norm[i]});
  csv.print(std::cout);

  const double p_star =
      analysis::optimal_master_probability(scheme.weights, scenario.phy);
  const double s_star = analysis::ppersistent_system_throughput(
                            p_star, scheme.weights, scenario.phy) /
                        1e6;
  std::printf("\nTotal throughput: %.4f Mb/s (analytic weighted optimum "
              "%.2f Mb/s; paper reports 22.42)\n",
              result.total_mbps, s_star);
  std::printf("Weighted Jain index: %.4f (1.0 = perfectly weighted-fair); "
              "max normalized deviation: %.1f%%\n",
              stats::weighted_jain_index(result.per_station_mbps,
                                         scheme.weights),
              100.0 * stats::max_normalized_deviation(result.per_station_mbps,
                                                      scheme.weights));
  return 0;
}
