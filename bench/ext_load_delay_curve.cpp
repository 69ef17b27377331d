// Extension: throughput–delay curves under finite (non-saturated) load.
//
// Every figure in the paper runs backlogged stations; this driver opens
// the offered-load axis the traffic layer provides. Ten connected stations
// offer Poisson traffic swept from lightly loaded to past saturation, under
// standard 802.11, wTOP-CSMA, and IdleSense. Reported per point: delivered
// throughput, per-packet MAC delay (mean / p50 / p95 / p99) and queue drop
// rate — the classic throughput–delay "hockey stick" per scheme, showing
// where each scheme's knee sits relative to its saturation throughput.
//
// The whole schemes × loads grid runs as ONE declarative sweep over the
// thread pool; the CSV is bit-identical for any --threads value.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace wlan;
  bench::init(argc, argv);
  bench::header("Ext: load/delay curve",
                "throughput-delay curves vs offered load (Poisson arrivals, "
                "10 connected stations, queue capacity 64)");

  const int n = 10;
  // Per-station offered payload load, Mb/s. Saturation for this setup is
  // ~30 Mb/s total, so the grid crosses the knee around 3 Mb/s/station.
  const double step = util::bench_fast() ? 1.2 : 0.4;
  const std::vector<double> loads = bench::arange(0.4, 4.0, step);

  exp::RunOptions opts;
  const double s = util::bench_time_scale();
  opts.warmup = sim::Duration::seconds(3.0 * s);
  opts.measure = sim::Duration::seconds(12.0 * s);

  struct SchemeCol {
    const char* tag;
    exp::SchemeConfig config;
  };
  const std::vector<SchemeCol> schemes{
      {"std", exp::SchemeConfig::standard()},
      {"wtop", exp::SchemeConfig::wtop_csma()},
      {"idlesense", exp::SchemeConfig::idle_sense_scheme()}};

  exp::ScenarioConfig scenario = exp::ScenarioConfig::connected(n, 1);
  scenario.traffic = traffic::TrafficConfig::poisson(/*mbps=*/1.0);

  exp::SweepSpec spec;
  spec.scenarios = {scenario};
  for (const auto& sc : schemes) spec.schemes.push_back(sc.config);
  spec.loads = loads;
  spec.seeds = bench::default_seeds();
  spec.options = opts;
  spec.keep_runs = false;
  const auto sweep = exp::run_sweep(spec);
  sweep.throw_if_failed();

  std::vector<std::string> cols{"load_per_sta_mbps", "offered_total_mbps"};
  for (const auto& sc : schemes) {
    for (const char* metric :
         {"_mbps", "_delay_mean_ms", "_delay_p50_ms", "_delay_p95_ms",
          "_delay_p99_ms", "_drop_rate"})
      cols.push_back(std::string(sc.tag) + metric);
  }
  util::CsvWriter csv("ext_load_delay_curve.csv");
  csv.header(cols);

  for (std::size_t li = 0; li < loads.size(); ++li) {
    std::vector<double> row{loads[li], loads[li] * n};
    for (std::size_t si = 0; si < schemes.size(); ++si) {
      const auto& avg = sweep.at(0, si, 0, li).averaged;
      row.insert(row.end(),
                 {avg.mean_mbps, avg.mean_delay_s * 1e3,
                  avg.mean_delay_p50_s * 1e3, avg.mean_delay_p95_s * 1e3,
                  avg.mean_delay_p99_s * 1e3, avg.mean_drop_rate});
    }
    csv.row_numeric(row);
  }
  csv.print(std::cout);

  std::printf("\nExpected: delay flat and sub-ms below the knee, then the\n"
              "queueing hockey stick; delivered Mb/s tracks offered load\n"
              "until each scheme's saturation throughput caps it; drops\n"
              "only past the knee.\n");
  return 0;
}
