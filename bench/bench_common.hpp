// Shared plumbing for the figure/table reproduction benches.
//
// Each bench prints a provenance header and writes a CSV into the working
// directory; util::CsvWriter::print then shows the CSV's rows as the
// console table, so every row has one write site. Durations scale with
// WLAN_BENCH_SECONDS (a multiplier), seeds with WLAN_BENCH_SEEDS, and
// WLAN_BENCH_FAST trims the sweep for smoke runs.
// Each driver declares its grid as one exp::SweepSpec and runs it before
// writing its CSV, so the grid fans out across the global par::ThreadPool
// (`--threads N` or WLAN_THREADS bound the lanes) and resumes from the
// result store (WLAN_RUN_CACHE). run_sweep is the only way a driver
// simulates: the population-step figures (8-11) are sweeps too, with the
// schedule a ScenarioConfig field and their series stored like every
// other result. Every sweep ends in throw_if_failed(): a science run with
// failed jobs must fail the driver, never publish zero-folded rows. The
// bodies of the three figure pairs that differ only in constants (4/5,
// 6/7, 8-9/10-11) live here.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/quasiconcave.hpp"
#include "exp/run_cache.hpp"
#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "par/thread_pool.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/env.hpp"

namespace wlan::bench {

/// Logs the result store's lookups as "[bench] store: <h> hits, <m>
/// misses" (zeros when WLAN_RUN_CACHE is unset), then this process's peak
/// resident set, the VmHWM line of /proc/self/status, as "[bench] VmHWM:
/// <n> kB" (nothing where /proc is unavailable). run_all.sh copies the
/// last such lines of a driver's log into summary.csv's cache_hits,
/// cache_misses and max_rss_kb.
inline void log_exit_stats() {
  const exp::run_cache::Stats store = exp::run_cache::stats();
  std::printf("[bench] store: %llu hits, %llu misses\n",
              static_cast<unsigned long long>(store.hits),
              static_cast<unsigned long long>(store.misses));
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return;
  char line[256];
  long kib = -1;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  std::fclose(f);
  if (kib >= 0) std::printf("[bench] VmHWM: %ld kB\n", kib);
}

/// Standard driver startup: parse flags (currently `--threads N`) and size
/// the global pool before the first sweep builds it. An interrupted driver
/// needs no handler: every store entry is an atomic rename the moment its
/// job completes. On a normal exit the driver logs its store lookups and
/// peak memory last (log_exit_stats).
inline util::Cli init(int argc, const char* const* argv) {
  util::Cli cli(argc, argv);
  std::atexit(log_exit_stats);
  par::ThreadPool::configure_global(cli.threads(0));
  return cli;
}

inline void header(const std::string& id, const std::string& what) {
  std::printf("=== %s ===\n%s\n", id.c_str(), what.c_str());
  std::printf("(scale with WLAN_BENCH_SECONDS / WLAN_BENCH_SEEDS; "
              "WLAN_BENCH_FAST=1 for a smoke run; --threads N or "
              "WLAN_THREADS bound the sweep parallelism)\n\n");
}

/// Inclusive float grid {lo, lo+step, ...} up to hi (with the 1e-9
/// accumulation slack every figure sweep uses for its params axis).
inline std::vector<double> arange(double lo, double hi, double step) {
  std::vector<double> grid;
  for (double v = lo; v <= hi + 1e-9; v += step) grid.push_back(v);
  return grid;
}

/// Node-count grid used by Figs. 1, 3, 6, 7 (10..60 in the paper).
inline std::vector<int> node_grid() {
  if (util::bench_fast()) return {10, 40};
  return {10, 20, 30, 40, 50, 60};
}

/// Warm-up/measure windows for adaptive schemes, scaled by the env knob.
inline exp::RunOptions adaptive_options() {
  exp::RunOptions o;
  const double s = util::bench_time_scale();
  o.warmup = sim::Duration::seconds(15.0 * s);
  o.measure = sim::Duration::seconds(10.0 * s);
  return o;
}

/// Shorter windows for non-adaptive (fixed-parameter) runs.
inline exp::RunOptions fixed_options() {
  exp::RunOptions o;
  const double s = util::bench_time_scale();
  o.warmup = sim::Duration::seconds(1.0 * s);
  o.measure = sim::Duration::seconds(5.0 * s);
  return o;
}

inline int default_seeds() { return util::bench_seeds(1); }

/// Figs. 4-5: fixed-parameter throughput on four hidden-node discs of
/// radius 16 (20 and 40 nodes, seeds 1 and 2) over `grid`, whose values
/// `scheme_at` turns into the fixed scheme. Writes `csv_name` with
/// `x_column` first, prints it, and checks each curve for quasi-concavity
/// within a 10 % noise band.
inline void hidden_curves(const std::string& id, const std::string& what,
                          const std::string& csv_name,
                          const std::string& x_column,
                          const std::vector<double>& grid,
                          exp::SchemeConfig (*scheme_at)(double)) {
  header(id, what);
  const std::vector<std::pair<int, std::uint64_t>> curves{
      {20, 1}, {40, 1}, {20, 2}, {40, 2}};
  exp::SweepSpec spec;
  for (const auto& [n, seed] : curves)
    spec.scenarios.push_back(exp::ScenarioConfig::hidden(n, 16.0, seed));
  spec.schemes = {exp::SchemeConfig::standard()};  // rewritten by bind
  spec.params = grid;
  spec.bind = [scheme_at](double x, exp::ScenarioConfig&,
                          exp::SchemeConfig& scheme) { scheme = scheme_at(x); };
  spec.options = fixed_options();
  spec.keep_runs = false;
  const auto sweep = exp::run_sweep(spec);
  sweep.throw_if_failed();

  util::CsvWriter csv(csv_name);
  csv.header({x_column, "n20_seed1", "n40_seed1", "n20_seed2", "n40_seed2"});
  std::vector<std::vector<double>> ys(curves.size());
  for (std::size_t pi = 0; pi < grid.size(); ++pi) {
    std::vector<double> row{grid[pi]};
    for (std::size_t c = 0; c < curves.size(); ++c) {
      ys[c].push_back(sweep.at(c, 0, pi).averaged.mean_mbps);
      row.push_back(ys[c].back());
    }
    csv.row_numeric(row);
  }
  csv.print(std::cout);
  std::printf("\nQuasi-concavity check (10%% noise band):\n");
  for (std::size_t c = 0; c < curves.size(); ++c) {
    const auto r = analysis::check_unimodal(ys[c], 0.10);
    std::printf("  n=%d seed=%llu: %s (violation %.3f Mb/s)\n",
                curves[c].first,
                static_cast<unsigned long long>(curves[c].second),
                r.unimodal ? "unimodal" : "NOT unimodal", r.max_violation);
  }
}

/// Figs. 6-7: TORA, wTOP, 802.11 and IdleSense vs the node count on
/// hidden-node discs of `radius` m. Each row carries its topology's
/// hidden-pair count. Writes `csv_name`, prints it, then `expected`.
inline void hidden_comparison(double radius, const std::string& id,
                              const std::string& csv_name,
                              const std::string& expected) {
  header(id, "Scheme comparison vs number of stations, uniform disc "
             "radius " + util::format_double(radius) + " m (hidden nodes), "
             "Table I PHY");
  const std::vector<int> nodes = node_grid();
  exp::SweepSpec spec;
  for (int n : nodes)
    spec.scenarios.push_back(exp::ScenarioConfig::hidden(n, radius, 1));
  spec.schemes = {exp::SchemeConfig::tora_csma(), exp::SchemeConfig::wtop_csma(),
                  exp::SchemeConfig::standard(),
                  exp::SchemeConfig::idle_sense_scheme()};
  spec.seeds = default_seeds();
  spec.options = adaptive_options();
  spec.keep_runs = false;
  const auto sweep = exp::run_sweep(spec);
  sweep.throw_if_failed();

  util::CsvWriter csv(csv_name);
  csv.header({"nodes", "tora_mbps", "wtop_mbps", "std_mbps",
              "idlesense_mbps", "hidden_pairs"});
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    std::vector<double> row{static_cast<double>(nodes[i])};
    for (std::size_t k = 0; k < spec.schemes.size(); ++k)
      row.push_back(sweep.at(i, k).averaged.mean_mbps);
    row.push_back(sweep.at(i, 0).averaged.mean_hidden_pairs);
    csv.row_numeric(row);
  }
  csv.print(std::cout);
  std::printf("\n%s\n", expected.c_str());
}

/// Figs. 8-11: one scheme on 60 connected and 60 hidden-node (disc r=16)
/// stations while the active population steps 10 -> 40 -> 20 -> 60,
/// measured from t = 0 with series on.
struct PopulationRuns {
  exp::RunResult connected;
  exp::RunResult hidden;
  std::vector<exp::PopulationStep> schedule;
  /// Each phase's settled window [from, to] in seconds: its last 60 %,
  /// after re-convergence.
  std::vector<std::pair<double, double>> settled;
};

inline PopulationRuns population_sweep(const exp::SchemeConfig& scheme) {
  const double scale = util::bench_time_scale() *
                       (util::bench_fast() ? 0.2 : 1.0);
  const double horizon = 500.0 * scale;
  PopulationRuns out;
  out.schedule = {{0.0, 10},
                  {125.0 * scale, 40},
                  {250.0 * scale, 20},
                  {375.0 * scale, 60}};
  auto connected = exp::ScenarioConfig::connected(60, 1);
  auto hidden = exp::ScenarioConfig::hidden(60, 16.0, 1);
  connected.population = out.schedule;
  hidden.population = out.schedule;
  exp::SweepSpec spec;
  spec.scenarios = {connected, hidden};
  spec.schemes = {scheme};
  spec.options.warmup = sim::Duration::zero();
  spec.options.measure = sim::Duration::seconds(horizon);
  spec.options.sample_period =
      sim::Duration::seconds(std::max(1.0, 5.0 * scale));
  spec.options.record_series = true;
  const auto sweep = exp::run_sweep(spec);
  sweep.throw_if_failed();
  out.connected = sweep.at(0).runs[0];
  out.hidden = sweep.at(1).runs[0];
  const double q = horizon / 4.0;
  for (int phase = 0; phase < 4; ++phase)
    out.settled.emplace_back(phase * q + q * 0.4, (phase + 1) * q);
  return out;
}

}  // namespace wlan::bench
