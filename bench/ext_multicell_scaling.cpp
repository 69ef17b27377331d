// Extension: ESS scaling — many cells (APs + their stations) sharing one
// medium.
//
// Part A (science): throughput and fairness as the ESS grows. Each added
// cell brings its own AP and stations; spacing 40 with discs 16/24 makes
// neighbour cells mutually hidden yet coupled through stations that stray
// between cell discs. Reports aggregate Mb/s, per-station Jain index, and
// hidden-pair counts for standard 802.11 and wTOP-CSMA (one controller per
// cell, each adapting to its own BSS).
//
// Part B (substrate): simulated-seconds per wall-second at 100 / 1k / 5k
// stations, plus the pair-scan and interference-check counters behind it:
// the medium visits only each source's precomputed interference peers and
// only decodable receivers. (The differential tests hold that marking to
// a full-scan recomputation of every delivered clean flag.)
#include <chrono>
#include <cinttypes>

#include "bench_common.hpp"
#include "stats/fairness.hpp"

using namespace wlan;

namespace {

struct TimedRun {
  double run_s = 0.0;
  std::int64_t bits = 0;
  std::uint64_t pairs = 0;
  std::uint64_t checks = 0;
};

TimedRun run_timed(const exp::ScenarioConfig& scenario,
                   const exp::SchemeConfig& scheme, double sim_seconds) {
  using clock = std::chrono::steady_clock;
  TimedRun out;
  auto net = exp::build_network(scenario, scheme);
  net->start();
  const auto t0 = clock::now();
  net->run_for(sim::Duration::seconds(sim_seconds));
  out.run_s = std::chrono::duration<double>(clock::now() - t0).count();
  out.bits = net->counters().total_bits_delivered();
  out.pairs = net->medium().marking_pairs_scanned();
  out.checks = net->medium().interference_checks();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv);
  bench::header("Ext: multi-cell (ESS) scaling",
                "throughput/fairness vs cells, and medium marking "
                "wall-time at 100/1k/5k stations");

  const double scale = util::bench_time_scale();

  // ---------------------------------------------------------------- Part A
  const std::vector<int> cell_grid =
      util::bench_fast() ? std::vector<int>{1, 4} : std::vector<int>{1, 4, 9, 16};
  const int per_cell = 10;

  exp::RunOptions opts;
  opts.warmup = sim::Duration::seconds(3.0 * scale);
  opts.measure = sim::Duration::seconds(10.0 * scale);

  const std::vector<exp::SchemeConfig> schemes{exp::SchemeConfig::standard(),
                                               exp::SchemeConfig::wtop_csma()};
  const std::vector<const char*> scheme_tags{"std", "wtop"};

  util::CsvWriter csv("ext_multicell_scaling.csv");
  csv.header({"cells", "stations", "hidden_pairs", "std_mbps", "std_jain",
              "wtop_mbps", "wtop_jain"});

  util::Table table({"cells", "stations", "hidden", "scheme", "Mb/s",
                     "Mb/s per cell", "Jain"});
  for (const int cells : cell_grid) {
    const auto scenario =
        exp::ScenarioConfig::multicell(cells, per_cell, /*spacing=*/40.0, 1);
    std::vector<double> row{static_cast<double>(cells),
                            static_cast<double>(scenario.num_stations)};
    bool first = true;
    for (std::size_t sk = 0; sk < schemes.size(); ++sk) {
      const auto result = exp::run_scenario(scenario, schemes[sk], opts);
      if (first) {
        row.push_back(static_cast<double>(result.hidden_pairs));
        first = false;
      }
      const double jain = stats::jain_index(result.per_station_mbps);
      row.push_back(result.total_mbps);
      row.push_back(jain);
      table.add_row(std::to_string(cells),
                    {static_cast<double>(scenario.num_stations),
                     static_cast<double>(result.hidden_pairs),
                     static_cast<double>(sk), result.total_mbps,
                     result.total_mbps / cells, jain});
    }
    csv.row_numeric(row);
  }
  table.print(std::cout);
  std::printf("\nscheme: 0=802.11, 1=wTOP (one controller per cell)\n"
              "Expected: aggregate Mb/s grows ~linearly with cells (spatial\n"
              "reuse; spacing 40 >> sense 24), Jain dips as inter-cell\n"
              "hidden pairs appear, wTOP holds fairness better than std.\n\n");

  // ---------------------------------------------------------------- Part B
  struct PerfCase {
    int cells;
    int per_cell;
    double sim_s;
  };
  // Short sim windows: the 5k-station case dominates the driver's wall
  // time.
  std::vector<PerfCase> perf{{4, 25, 2.0}, {25, 40, 0.6}};
  if (!util::bench_fast()) perf.push_back({125, 40, 0.05});

  util::CsvWriter perf_csv("ext_multicell_perf.csv");
  perf_csv.header({"stations", "cells", "sim_s", "wall_s", "sim_per_wall",
                   "pairs", "checks"});

  util::Table perf_table({"stations", "cells", "sim-s", "wall", "sim/wall",
                          "pairs", "checks"});
  const auto perf_scheme = exp::SchemeConfig::standard();
  for (const auto& pc : perf) {
    const int stations = pc.cells * pc.per_cell;
    const double sim_s = pc.sim_s * scale;
    const auto scenario =
        exp::ScenarioConfig::multicell(pc.cells, pc.per_cell, 40.0, 1);
    const auto run = run_timed(scenario, perf_scheme, sim_s);
    const std::vector<double> cols{static_cast<double>(pc.cells),
                                   sim_s,
                                   run.run_s,
                                   sim_s / run.run_s,
                                   static_cast<double>(run.pairs),
                                   static_cast<double>(run.checks)};
    std::vector<double> row{static_cast<double>(stations)};
    row.insert(row.end(), cols.begin(), cols.end());
    perf_csv.row_numeric(row);
    perf_table.add_row(std::to_string(stations), cols);
    std::printf("  n=%d: pairs %" PRIu64 ", checks %" PRIu64
                ", bits delivered %" PRId64 "\n",
                stations, run.pairs, run.checks, run.bits);
  }
  perf_table.print(std::cout);
  return 0;
}
