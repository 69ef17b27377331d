// Figures 8 and 9: wTOP-CSMA under a time-varying station population.
// Fig. 8 plots throughput vs time; Fig. 9 plots -log(attempt probability)
// vs time; both for a connected and a hidden-node topology.
//
// Paper shape: throughput holds near the optimum through population steps;
// -log(p) re-converges to a new level after each step (higher N -> smaller
// p -> larger -log p).
#include <cmath>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace wlan;
  bench::init(argc, argv);
  bench::header("Figures 8-9",
                "wTOP-CSMA dynamics: N steps 10 -> 40 -> 20 -> 60 over the "
                "run; throughput and -log(p) vs time");

  const auto runs = bench::population_sweep(exp::SchemeConfig::wtop_csma());
  const exp::RunResult& conn = runs.connected;
  const exp::RunResult& hid = runs.hidden;
  auto neglog = [](double p) { return -std::log(std::max(p, 1e-9)); };

  util::CsvWriter csv("fig08_09_wtop_dynamic.csv");
  csv.header({"t_seconds", "active_nodes", "mbps_connected",
              "neglogp_connected", "mbps_hidden", "neglogp_hidden"});
  for (const auto& tp : conn.throughput_series.samples()) {
    const double t = tp.t_seconds;
    csv.row_numeric({t, conn.active_nodes_series.value_at(t), tp.value,
                     neglog(conn.control_series.value_at(t)),
                     hid.throughput_series.value_at(t),
                     neglog(hid.control_series.value_at(t))});
  }
  csv.print(std::cout);

  // Summarize per population phase (the numbers the paper's curves convey).
  std::printf("\nPhase means (connected):\n");
  for (std::size_t phase = 0; phase < runs.settled.size(); ++phase) {
    const auto [from, to] = runs.settled[phase];
    std::printf("  N=%2d: %5.2f Mb/s, -log p = %.2f\n",
                runs.schedule[phase].active_stations,
                conn.throughput_series.mean_in_window(from, to),
                neglog(conn.control_series.mean_in_window(from, to)));
  }
  std::printf("Expected: throughput stays ~optimal across steps; -log p "
              "increases with N.\n");
  return 0;
}
