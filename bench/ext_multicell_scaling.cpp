// Extension: ESS scaling — many cells (APs + their stations) sharing one
// medium.
//
// Throughput and fairness as the ESS grows. Each added cell brings its own
// AP and stations; spacing 40 with discs 16/24 makes neighbour cells
// mutually hidden yet coupled through stations that stray between cell
// discs. Reports aggregate Mb/s, per-station Jain index, and hidden-pair
// counts for standard 802.11 and wTOP-CSMA (one controller per cell, each
// adapting to its own BSS).
#include "bench_common.hpp"
#include "stats/fairness.hpp"

int main(int argc, char** argv) {
  using namespace wlan;
  bench::init(argc, argv);
  bench::header("Ext: multi-cell (ESS) scaling",
                "throughput/fairness vs cells, 10 stations per cell, "
                "802.11 vs wTOP-CSMA");

  const double scale = util::bench_time_scale();
  const std::vector<int> cell_grid =
      util::bench_fast() ? std::vector<int>{1, 4} : std::vector<int>{1, 4, 9, 16};
  const int per_cell = 10;

  // One sweep: every ESS size under 802.11 and wTOP.
  exp::SweepSpec spec;
  for (const int cells : cell_grid)
    spec.scenarios.push_back(
        exp::ScenarioConfig::multicell(cells, per_cell, /*spacing=*/40.0, 1));
  spec.schemes = {exp::SchemeConfig::standard(),
                  exp::SchemeConfig::wtop_csma()};
  spec.options.warmup = sim::Duration::seconds(3.0 * scale);
  spec.options.measure = sim::Duration::seconds(10.0 * scale);
  const auto sweep = exp::run_sweep(spec);
  sweep.throw_if_failed();

  util::CsvWriter csv("ext_multicell_scaling.csv");
  csv.header({"cells", "stations", "hidden_pairs", "std_mbps", "std_jain",
              "wtop_mbps", "wtop_jain"});
  for (std::size_t ci = 0; ci < cell_grid.size(); ++ci) {
    std::vector<double> row{
        static_cast<double>(cell_grid[ci]),
        static_cast<double>(spec.scenarios[ci].num_stations),
        static_cast<double>(sweep.at(ci, 0).runs[0].hidden_pairs)};
    for (std::size_t sk = 0; sk < spec.schemes.size(); ++sk) {
      const exp::RunResult& result = sweep.at(ci, sk).runs[0];
      row.push_back(result.total_mbps);
      row.push_back(stats::jain_index(result.per_station_mbps));
    }
    csv.row_numeric(row);
  }
  csv.print(std::cout);
  std::printf("\nExpected: aggregate Mb/s grows ~linearly with cells (spatial\n"
              "reuse; spacing 40 >> sense 24), Jain dips as inter-cell\n"
              "hidden pairs appear, wTOP holds fairness better than std.\n");
  return 0;
}
