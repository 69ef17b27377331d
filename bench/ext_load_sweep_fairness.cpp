// Extension: fairness vs offered load, connected and hidden topologies.
//
// Saturation fairness (Table II) is only half the story: real networks run
// below saturation most of the time, and a scheme that is fair when every
// queue is backlogged can still starve stations when load is finite and
// the topology is hidden. Twenty stations offer Poisson traffic swept from
// light load past saturation under standard 802.11, wTOP-CSMA, and
// TORA-CSMA; each point reports delivered throughput and the Jain index of
// the per-station throughputs (1.0 = perfectly fair).
//
// Expected: below saturation every scheme is near 1.0 (all queues drain);
// the schemes differentiate as load crosses the knee, where the hidden
// topology punishes 802.11 hard while the adaptive schemes hold fairness.
#include "bench_common.hpp"
#include "stats/fairness.hpp"

int main(int argc, char** argv) {
  using namespace wlan;
  bench::init(argc, argv);
  bench::header("Ext: fairness vs load",
                "Jain index + throughput vs offered load (Poisson arrivals, "
                "20 stations, connected & hidden r=16)");

  const int n = 20;
  // Per-station offered load, Mb/s: 20 stations saturate around 1.5 each.
  const double step = util::bench_fast() ? 0.6 : 0.2;
  const std::vector<double> loads = bench::arange(0.2, 2.0, step);

  exp::RunOptions opts;
  const double s = util::bench_time_scale();
  opts.warmup = sim::Duration::seconds(3.0 * s);
  opts.measure = sim::Duration::seconds(12.0 * s);

  auto connected = exp::ScenarioConfig::connected(n, 1);
  auto hidden = exp::ScenarioConfig::hidden(n, 16.0, 1);
  connected.traffic = traffic::TrafficConfig::poisson(/*mbps=*/1.0);
  hidden.traffic = connected.traffic;

  const std::vector<const char*> scenario_tags{"conn", "hidden"};
  const std::vector<const char*> scheme_tags{"std", "wtop", "tora"};

  exp::SweepSpec spec;
  spec.scenarios = {connected, hidden};
  spec.schemes = {exp::SchemeConfig::standard(), exp::SchemeConfig::wtop_csma(),
                  exp::SchemeConfig::tora_csma()};
  spec.loads = loads;
  spec.seeds = bench::default_seeds();
  spec.options = opts;
  spec.keep_runs = true;  // Jain needs the per-station throughputs
  const auto sweep = exp::run_sweep(spec);
  sweep.throw_if_failed();

  std::vector<std::string> cols{"load_per_sta_mbps"};
  for (const auto* sc : scenario_tags) {
    for (const auto* sk : scheme_tags) {
      cols.push_back(std::string(sc) + "_" + sk + "_mbps");
      cols.push_back(std::string(sc) + "_" + sk + "_jain");
    }
  }
  util::CsvWriter csv("ext_load_sweep_fairness.csv");
  csv.header(cols);

  for (std::size_t li = 0; li < loads.size(); ++li) {
    std::vector<double> row{loads[li]};
    for (std::size_t sc = 0; sc < spec.scenarios.size(); ++sc) {
      for (std::size_t sk = 0; sk < spec.schemes.size(); ++sk) {
        const auto& point = sweep.at(sc, sk, 0, li);
        // Mean of the per-seed Jain indices (seed runs are independent).
        double jain = 0.0;
        for (const auto& run : point.runs)
          jain += stats::jain_index(run.per_station_mbps);
        jain /= static_cast<double>(point.runs.size());
        row.push_back(point.averaged.mean_mbps);
        row.push_back(jain);
      }
    }
    csv.row_numeric(row);
  }
  csv.print(std::cout);

  std::printf("\nExpected: Jain ~1.0 below the knee everywhere; past it the\n"
              "hidden topology drops 802.11's index well below the\n"
              "adaptive schemes'.\n");
  return 0;
}
