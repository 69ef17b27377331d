// Figure 1: IdleSense vs standard 802.11, with and without hidden nodes,
// as a function of the number of stations.
//
// Paper shape: IdleSense > Std when fully connected (both ~flat vs N);
// with hidden nodes IdleSense drops BELOW standard 802.11.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace wlan;
  bench::init(argc, argv);
  bench::header("Figure 1",
                "IdleSense vs Standard 802.11, connected (circle r=8) vs "
                "hidden (disc r=16), Table I PHY");

  // One sweep: a connected and a hidden scenario per node count, under
  // IdleSense and 802.11. The hidden-pair count is the topology's, so the
  // hidden 802.11 point already carries it.
  const std::vector<int> nodes = bench::node_grid();
  exp::SweepSpec spec;
  for (int n : nodes) {
    spec.scenarios.push_back(exp::ScenarioConfig::connected(n, 1));
    spec.scenarios.push_back(exp::ScenarioConfig::hidden(n, 16.0, 1));
  }
  spec.schemes = {exp::SchemeConfig::idle_sense_scheme(),
                  exp::SchemeConfig::standard()};
  spec.seeds = bench::default_seeds();
  spec.options = bench::adaptive_options();
  spec.keep_runs = false;
  const auto sweep = exp::run_sweep(spec);
  sweep.throw_if_failed();

  util::Table table({"Nodes", "IdleSense (no hidden)", "Std 802.11 (no hidden)",
                     "Std 802.11 (hidden)", "IdleSense (hidden)",
                     "hidden pairs"});
  util::CsvWriter csv("fig01_idlesense_vs_hidden.csv");
  csv.header({"nodes", "idlesense_connected_mbps", "std_connected_mbps",
              "std_hidden_mbps", "idlesense_hidden_mbps", "hidden_pairs"});

  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const auto& is_conn = sweep.at(2 * i, 0).averaged;
    const auto& std_conn = sweep.at(2 * i, 1).averaged;
    const auto& std_hid = sweep.at(2 * i + 1, 1).averaged;
    const auto& is_hid = sweep.at(2 * i + 1, 0).averaged;
    std::vector<double> cols{is_conn.mean_mbps, std_conn.mean_mbps,
                             std_hid.mean_mbps, is_hid.mean_mbps,
                             std_hid.mean_hidden_pairs};
    table.add_row(std::to_string(nodes[i]), cols);
    cols.insert(cols.begin(), static_cast<double>(nodes[i]));
    csv.row_numeric(cols);
  }

  table.print(std::cout);
  std::printf("\nExpected shape: col2 > col3 (connected); col5 < col4 "
              "(hidden flips the ordering).\n");
  return 0;
}
