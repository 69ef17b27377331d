// Figure 5: throughput of RandomReset(0; p0) vs the reset probability p0 in
// networks WITH hidden nodes (20/40 nodes, two random scenarios each).
//
// Paper shape: quasi-concave in p0, flatter around the peak than the
// p-persistent curve (the paper's argument for why TORA oscillation hurts
// less than wTOP oscillation). The 4-curve × p0 grid runs as one
// declarative sweep on the thread pool.
#include <algorithm>

#include "analysis/quasiconcave.hpp"
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace wlan;
  bench::init(argc, argv);
  bench::header("Figure 5",
                "RandomReset(j=0; p0) throughput vs p0 with hidden nodes "
                "(disc r=16), 20/40 nodes, two scenarios (seeds)");

  struct Curve {
    int n;
    std::uint64_t seed;
    std::vector<double> ys;
  };
  std::vector<Curve> curves{{20, 1, {}}, {40, 1, {}}, {20, 2, {}}, {40, 2, {}}};

  const auto opts = bench::fixed_options();
  const double step = util::bench_fast() ? 0.25 : 0.1;
  const std::vector<double> grid = bench::arange(0.0, 1.0, step);

  // One sweep: 4 hidden-node scenarios × the p0 grid.
  exp::SweepSpec spec;
  for (const auto& c : curves)
    spec.scenarios.push_back(exp::ScenarioConfig::hidden(c.n, 16.0, c.seed));
  spec.schemes = {exp::SchemeConfig::standard()};  // rewritten by bind
  spec.params = grid;
  spec.bind = [](double p0, exp::ScenarioConfig&, exp::SchemeConfig& sch) {
    sch = exp::SchemeConfig::fixed_random_reset(0, std::min(p0, 1.0));
  };
  spec.options = opts;
  spec.keep_runs = false;
  const auto sweep = exp::run_sweep(spec);
  // A science run with failed jobs must fail the driver, never publish
  // zero-folded rows.
  sweep.throw_if_failed();

  util::Table table(
      {"p0", "20 nodes s1", "40 nodes s1", "20 nodes s2", "40 nodes s2"});
  util::CsvWriter csv("fig05_randomreset_hidden_curve.csv");
  csv.header({"p0", "n20_seed1", "n40_seed1", "n20_seed2", "n40_seed2"});

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
