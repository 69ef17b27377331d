// Shared plumbing for the figure/table reproduction benches.
//
// Each bench prints (a) a provenance header, (b) the same rows/series the
// paper's figure or table reports, and (c) writes a CSV into the working
// directory so the curve can be re-plotted. Durations scale with WLAN_BENCH_SECONDS
// (a multiplier), seeds with WLAN_BENCH_SEEDS, and WLAN_BENCH_FAST trims
// the sweep for smoke runs. Each driver declares its grid as one
// exp::SweepSpec and runs it before writing its CSV, so the grid fans out
// across the global par::ThreadPool (`--threads N` or WLAN_THREADS bound
// the lanes) and resumes from the result store (WLAN_RUN_CACHE). The
// population-step figures (8-11) are sweeps too: the schedule is a
// ScenarioConfig field, and their series are stored like every other
// result. Only ext_multicell_scaling's timed build_network runs simulate
// outside run_sweep.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "exp/run_cache.hpp"
#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "par/thread_pool.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/env.hpp"
#include "util/table.hpp"

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

}  // namespace wlan::bench
