// Figure 6: scheme comparison vs number of stations, nodes uniform in a
// disc of radius 16 m (hidden nodes present).
//
// Paper shape: TORA-CSMA on top, then wTOP-CSMA, standard 802.11 close
// behind, IdleSense far below.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace wlan;
  bench::init(argc, argv);
  bench::header("Figure 6",
                "Scheme comparison vs number of stations, uniform disc "
                "radius 16 m (hidden nodes), Table I PHY");

  // One sweep: the four schemes at every node count. The hidden-pair
  // count is the topology's, so every point of a row carries it.
  const std::vector<int> nodes = bench::node_grid();
  exp::SweepSpec spec;
  for (int n : nodes)
    spec.scenarios.push_back(exp::ScenarioConfig::hidden(n, 16.0, 1));
  spec.schemes = {exp::SchemeConfig::tora_csma(), exp::SchemeConfig::wtop_csma(),
                  exp::SchemeConfig::standard(),
                  exp::SchemeConfig::idle_sense_scheme()};
  spec.seeds = bench::default_seeds();
  spec.options = bench::adaptive_options();
  spec.keep_runs = false;
  const auto sweep = exp::run_sweep(spec);
  sweep.throw_if_failed();

  util::Table table({"Nodes", "TORA-CSMA", "wTOP-CSMA", "Std 802.11",
                     "IdleSense", "hidden pairs"});
  util::CsvWriter csv("fig06_hidden_r16_comparison.csv");
  csv.header({"nodes", "tora_mbps", "wtop_mbps", "std_mbps",
              "idlesense_mbps", "hidden_pairs"});

  for (std::size_t i = 0; i < nodes.size(); ++i) {
    std::vector<double> cols;
    for (std::size_t k = 0; k < spec.schemes.size(); ++k)
      cols.push_back(sweep.at(i, k).averaged.mean_mbps);
    cols.push_back(sweep.at(i, 0).averaged.mean_hidden_pairs);
    table.add_row(std::to_string(nodes[i]), cols);
    cols.insert(cols.begin(), static_cast<double>(nodes[i]));
    csv.row_numeric(cols);
  }

  table.print(std::cout);
  std::printf("\nExpected shape: TORA >= wTOP and both well above IdleSense; "
              "standard 802.11 competitive (Fig. 6 of the paper).\n");
  return 0;
}
