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

  const double scale = util::bench_time_scale() *
                       (util::bench_fast() ? 0.2 : 1.0);
  const double horizon = 500.0 * scale;
  const std::vector<exp::PopulationStep> schedule{
      {0.0, 10},
      {125.0 * scale, 40},
      {250.0 * scale, 20},
      {375.0 * scale, 60}};

  // One sweep: the connected and hidden networks under the same schedule,
  // measured from t = 0 with series on.
  auto connected = exp::ScenarioConfig::connected(60, 1);
  auto hidden = exp::ScenarioConfig::hidden(60, 16.0, 1);
  connected.population = schedule;
  hidden.population = schedule;
  exp::SweepSpec spec;
  spec.scenarios = {connected, hidden};
  spec.schemes = {exp::SchemeConfig::wtop_csma()};
  spec.options.warmup = sim::Duration::zero();
  spec.options.measure = sim::Duration::seconds(horizon);
  spec.options.sample_period =
      sim::Duration::seconds(std::max(1.0, 5.0 * scale));
  spec.options.record_series = true;
  const auto sweep = exp::run_sweep(spec);
  sweep.throw_if_failed();
  const exp::RunResult& run_conn = sweep.at(0).runs[0];
  const exp::RunResult& run_hid = sweep.at(1).runs[0];

  util::CsvWriter csv("fig08_09_wtop_dynamic.csv");
  csv.header({"t_seconds", "active_nodes", "mbps_connected",
              "neglogp_connected", "mbps_hidden", "neglogp_hidden"});

  util::Table table({"t (s)", "N", "Mb/s (no hidden)", "-log p (no hidden)",
                     "Mb/s (hidden)", "-log p (hidden)"});
  for (std::size_t i = 0; i < run_conn.throughput_series.size(); ++i) {
    const auto& tp = run_conn.throughput_series.samples()[i];
    const double t = tp.t_seconds;
    const double n = run_conn.active_nodes_series.value_at(t);
    const double p_c = run_conn.control_series.value_at(t);
    const double mbps_h = run_hid.throughput_series.value_at(t);
    const double p_h = run_hid.control_series.value_at(t);
    table.add_row(util::format_double(t, 4),
                  {n, tp.value, -std::log(std::max(p_c, 1e-9)), mbps_h,
                   -std::log(std::max(p_h, 1e-9))});
    csv.row_numeric({t, n, tp.value, -std::log(std::max(p_c, 1e-9)), mbps_h,
                     -std::log(std::max(p_h, 1e-9))});
  }
  table.print(std::cout);

  // Summarize per population phase (the numbers the paper's curves convey).
  std::printf("\nPhase means (connected):\n");
  const double q = horizon / 4.0;
  for (int phase = 0; phase < 4; ++phase) {
    const double from = phase * q + q * 0.4;  // skip re-convergence
    const double to = (phase + 1) * q;
    std::printf("  N=%2d: %5.2f Mb/s, -log p = %.2f\n",
                schedule[static_cast<std::size_t>(phase)].active_stations,
                run_conn.throughput_series.mean_in_window(from, to),
                -std::log(std::max(
                    run_conn.control_series.mean_in_window(from, to), 1e-9)));
  }
  std::printf("Expected: throughput stays ~optimal across steps; -log p "
              "increases with N.\n");
  return 0;
}
