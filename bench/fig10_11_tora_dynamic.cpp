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
  spec.schemes = {exp::SchemeConfig::tora_csma()};
  spec.options.warmup = sim::Duration::zero();
  spec.options.measure = sim::Duration::seconds(horizon);
  spec.options.sample_period =
      sim::Duration::seconds(std::max(1.0, 5.0 * scale));
  spec.options.record_series = true;
  const auto sweep = exp::run_sweep(spec);
  sweep.throw_if_failed();
  const exp::RunResult& run_conn = sweep.at(0).runs[0];
  const exp::RunResult& run_hid = sweep.at(1).runs[0];

  util::CsvWriter csv("fig10_11_tora_dynamic.csv");
  csv.header({"t_seconds", "active_nodes", "mbps_connected", "p0_connected",
              "stage_connected", "mbps_hidden", "p0_hidden", "stage_hidden"});

  util::Table table({"t (s)", "N", "Mb/s (no hidden)", "p0 (no hidden)",
                     "j (no hidden)", "Mb/s (hidden)", "p0 (hidden)",
                     "j (hidden)"});
  for (std::size_t i = 0; i < run_conn.throughput_series.size(); ++i) {
    const auto& tp = run_conn.throughput_series.samples()[i];
    const double t = tp.t_seconds;
    table.add_row(util::format_double(t, 4),
                  {run_conn.active_nodes_series.value_at(t), tp.value,
                   run_conn.control_series.value_at(t),
                   run_conn.stage_series.value_at(t),
                   run_hid.throughput_series.value_at(t),
                   run_hid.control_series.value_at(t),
                   run_hid.stage_series.value_at(t)});
    csv.row_numeric({t, run_conn.active_nodes_series.value_at(t), tp.value,
                     run_conn.control_series.value_at(t),
                     run_conn.stage_series.value_at(t),
                     run_hid.throughput_series.value_at(t),
                     run_hid.control_series.value_at(t),
                     run_hid.stage_series.value_at(t)});
  }
  table.print(std::cout);

  std::printf("\nPhase means (connected):\n");
  const double q = horizon / 4.0;
  for (int phase = 0; phase < 4; ++phase) {
    const double from = phase * q + q * 0.4;
    const double to = (phase + 1) * q;
    std::printf("  N=%2d: %5.2f Mb/s, p0 = %.2f, j = %.1f\n",
                schedule[static_cast<std::size_t>(phase)].active_stations,
                run_conn.throughput_series.mean_in_window(from, to),
                run_conn.control_series.mean_in_window(from, to),
                run_conn.stage_series.mean_in_window(from, to));
  }
  std::printf("Expected: throughput holds across steps; (j, p0) shifts to "
              "less aggressive settings as N grows.\n");
  return 0;
}
