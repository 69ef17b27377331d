// Figure 3: standard 802.11, IdleSense, wTOP-CSMA and TORA-CSMA vs the
// number of stations in a fully connected network.
//
// Paper shape: the three adaptive schemes sit together near the optimum
// (~22 Mb/s) and stay flat in N; standard 802.11 is lowest and degrades.
#include "analysis/ppersistent.hpp"
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace wlan;
  bench::init(argc, argv);
  bench::header("Figure 3",
                "Scheme comparison vs number of stations, fully connected "
                "(circle r=8), Table I PHY");

  // One sweep: the four schemes at every node count.
  const std::vector<int> nodes = bench::node_grid();
  exp::SweepSpec spec;
  for (int n : nodes)
    spec.scenarios.push_back(exp::ScenarioConfig::connected(n, 1));
  spec.schemes = {exp::SchemeConfig::tora_csma(), exp::SchemeConfig::wtop_csma(),
                  exp::SchemeConfig::idle_sense_scheme(),
                  exp::SchemeConfig::standard()};
  spec.seeds = bench::default_seeds();
  spec.options = bench::adaptive_options();
  spec.keep_runs = false;
  const auto sweep = exp::run_sweep(spec);
  sweep.throw_if_failed();

  util::Table table({"Nodes", "TORA-CSMA", "wTOP-CSMA", "IdleSense",
                     "Std 802.11", "analytic optimum"});
  util::CsvWriter csv("fig03_connected_comparison.csv");
  csv.header({"nodes", "tora_mbps", "wtop_mbps", "idlesense_mbps",
              "std_mbps", "analytic_optimum_mbps"});

  for (std::size_t i = 0; i < nodes.size(); ++i) {
    std::vector<double> cols;
    for (std::size_t k = 0; k < spec.schemes.size(); ++k)
      cols.push_back(sweep.at(i, k).averaged.mean_mbps);
    const auto& phy = spec.scenarios[i].phy;
    const std::vector<double> w(static_cast<std::size_t>(nodes[i]), 1.0);
    cols.push_back(analysis::ppersistent_system_throughput(
                       analysis::optimal_master_probability(w, phy), w, phy) /
                   1e6);
    table.add_row(std::to_string(nodes[i]), cols);
    cols.insert(cols.begin(), static_cast<double>(nodes[i]));
    csv.row_numeric(cols);
  }

  table.print(std::cout);
  std::printf("\nExpected shape: TORA ~ wTOP ~ IdleSense near the analytic "
              "optimum, flat in N; Std 802.11 below them.\n");
  return 0;
}
