// Figures 10 and 11: TORA-CSMA under a time-varying station population.
// Fig. 10 plots throughput vs time; Fig. 11 plots the reset probability p0
// vs time; both for a connected and a hidden-node topology.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace wlan;
  bench::init(argc, argv);
  bench::header("Figures 10-11",
                "TORA-CSMA dynamics: N steps 10 -> 40 -> 20 -> 60 over the "
                "run; throughput and p0 (+ backoff stage j) vs time");

  const auto runs = bench::population_sweep(exp::SchemeConfig::tora_csma());
  const exp::RunResult& conn = runs.connected;
  const exp::RunResult& hid = runs.hidden;

  util::CsvWriter csv("fig10_11_tora_dynamic.csv");
  csv.header({"t_seconds", "active_nodes", "mbps_connected", "p0_connected",
              "stage_connected", "mbps_hidden", "p0_hidden", "stage_hidden"});
  for (const auto& tp : conn.throughput_series.samples()) {
    const double t = tp.t_seconds;
    csv.row_numeric({t, conn.active_nodes_series.value_at(t), tp.value,
                     conn.control_series.value_at(t),
                     conn.stage_series.value_at(t),
                     hid.throughput_series.value_at(t),
                     hid.control_series.value_at(t),
                     hid.stage_series.value_at(t)});
  }
  csv.print(std::cout);

  std::printf("\nPhase means (connected):\n");
  for (std::size_t phase = 0; phase < runs.settled.size(); ++phase) {
    const auto [from, to] = runs.settled[phase];
    std::printf("  N=%2d: %5.2f Mb/s, p0 = %.2f, j = %.1f\n",
                runs.schedule[phase].active_stations,
                conn.throughput_series.mean_in_window(from, to),
                conn.control_series.mean_in_window(from, to),
                conn.stage_series.mean_in_window(from, to));
  }
  std::printf("Expected: throughput holds across steps; (j, p0) shifts to "
              "less aggressive settings as N grows.\n");
  return 0;
}
