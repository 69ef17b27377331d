// Ablation: the UPDATE_PERIOD (measurement segment length). Section III.C:
// "a small value ... causes the estimated throughput to have a large
// variance ... a large value will result in convergence in lesser
// iterations but still the convergence time would be large"; the paper
// recommends covering ~500 successful transmissions (~250 ms at these
// rates) and uses 250 ms in Section VI.
//
// This bench sweeps the period and reports converged throughput after a
// fixed wall of adaptation time, plus the time to reach 90% of the final
// level — reproducing the paper's qualitative U-shape.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace wlan;
  bench::init(argc, argv);
  bench::header("Ablation: UPDATE_PERIOD",
                "wTOP-CSMA on 20 connected stations; fixed 40 s adaptation "
                "budget, varying measurement-segment length");

  const double s = util::bench_time_scale() * (util::bench_fast() ? 0.5 : 1.0);
  const double budget = 40.0 * s;

  const std::vector<double> periods_ms =
      util::bench_fast() ? std::vector<double>{25, 250, 2000}
                         : std::vector<double>{10, 25, 50, 100, 250, 500,
                                               1000, 2000, 4000};

  // One sweep: 20 connected wTOP stations, the period (ms) on the params
  // axis.
  exp::SweepSpec spec;
  spec.scenarios = {exp::ScenarioConfig::connected(20, 1)};
  spec.schemes = {exp::SchemeConfig::wtop_csma()};
  spec.params = periods_ms;
  spec.bind = [](double ms, exp::ScenarioConfig&, exp::SchemeConfig& scheme) {
    scheme.wtop.update_period =
        sim::Duration::milliseconds(static_cast<std::int64_t>(ms));
  };
  spec.options.warmup = sim::Duration::seconds(budget);
  spec.options.measure = sim::Duration::seconds(10.0 * s);
  spec.options.record_series = true;
  spec.options.sample_period = sim::Duration::seconds(1.0);
  const auto sweep = exp::run_sweep(spec);
  sweep.throw_if_failed();

  util::Table table({"Period (ms)", "~tx per segment", "Mb/s after budget",
                     "t to 90% (s)"});
  util::CsvWriter csv("ablation_update_period.csv");
  csv.header({"period_ms", "tx_per_segment", "mbps", "t90_seconds"});

  for (std::size_t pi = 0; pi < periods_ms.size(); ++pi) {
    const double ms = periods_ms[pi];
    const exp::RunResult& r = sweep.at(0, 0, pi).runs[0];

    // Time to first reach 90% of the final measured throughput.
    double t90 = budget + 10.0 * s;
    for (const auto& sample : r.throughput_series.samples()) {
      if (sample.value >= 0.9 * r.total_mbps) {
        t90 = sample.t_seconds;
        break;
      }
    }
    // ~2750 successful tx/s at 22 Mb/s and 8000-bit payloads.
    const double tx_per_segment = 2750.0 * ms / 1000.0;
    table.add_row(util::format_double(ms, 5),
                  {tx_per_segment, r.total_mbps, t90});
    csv.row_numeric({ms, tx_per_segment, r.total_mbps, t90});
  }

  table.print(std::cout);
  std::printf("\nExpected: very short segments (noisy gradients) and very "
              "long ones (few iterations) both underperform; the paper's "
              "250 ms (~500 tx) sits in the sweet spot.\n");
  return 0;
}
