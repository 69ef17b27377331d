// Figure 4: throughput of fixed p-persistent CSMA vs log(attempt
// probability) in networks WITH hidden nodes (20/40 nodes, two random
// scenarios each).
//
// Paper shape: still bell-shaped (quasi-concave) — the evidence that lets
// Kiefer-Wolfowitz tuning work without a model (Section V). The whole
// 4-curve × log(p) grid runs as one declarative sweep on the thread pool.
#include <cmath>

#include "analysis/quasiconcave.hpp"
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace wlan;
  bench::init(argc, argv);
  bench::header("Figure 4",
                "p-persistent throughput vs log(p) with hidden nodes "
                "(disc r=16), 20/40 nodes, two scenarios (seeds)");

  struct Curve {
    int n;
    std::uint64_t seed;
    std::vector<double> ys;
  };
  std::vector<Curve> curves{{20, 1, {}}, {40, 1, {}}, {20, 2, {}}, {40, 2, {}}};

  const auto opts = bench::fixed_options();
  const double step = util::bench_fast() ? 1.4 : 0.7;
  const std::vector<double> grid = bench::arange(-9.1, -1.4, step);

  // One sweep: 4 hidden-node scenarios × the log(p) grid.
  exp::SweepSpec spec;
  for (const auto& c : curves)
    spec.scenarios.push_back(exp::ScenarioConfig::hidden(c.n, 16.0, c.seed));
  spec.schemes = {exp::SchemeConfig::standard()};  // rewritten by bind
  spec.params = grid;
  spec.bind = [](double logp, exp::ScenarioConfig&, exp::SchemeConfig& sch) {
    sch = exp::SchemeConfig::fixed_p_persistent(std::exp(logp));
  };
  spec.options = opts;
  spec.keep_runs = false;
  const auto sweep = exp::run_sweep(spec);
  // A science run with failed jobs must fail the driver, never publish
  // zero-folded rows.
  sweep.throw_if_failed();

  util::Table table({"log(p)", "20 nodes s1", "40 nodes s1", "20 nodes s2",
                     "40 nodes s2"});
  util::CsvWriter csv("fig04_ppersistent_hidden_curve.csv");
  csv.header({"log_p", "n20_seed1", "n40_seed1", "n20_seed2", "n40_seed2"});

  for (std::size_t pi = 0; pi < grid.size(); ++pi) {
    std::vector<double> row;
    for (std::size_t c = 0; c < curves.size(); ++c) {
      const double mbps = sweep.at(c, 0, pi).averaged.mean_mbps;
      curves[c].ys.push_back(mbps);
      row.push_back(mbps);
    }
    table.add_row(util::format_double(grid[pi], 3), row);
    csv.row_numeric({grid[pi], row[0], row[1], row[2], row[3]});
  }

  table.print(std::cout);
  std::printf("\nQuasi-concavity check (10%% noise band):\n");
  for (const auto& c : curves) {
    const auto r = analysis::check_unimodal(c.ys, 0.10);
    std::printf("  n=%d seed=%llu: %s (violation %.3f Mb/s)\n", c.n,
                static_cast<unsigned long long>(c.seed),
                r.unimodal ? "unimodal" : "NOT unimodal", r.max_violation);
  }
  return 0;
}
