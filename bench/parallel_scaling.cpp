// Parallel-sweep scaling: wall-clock speedup of exp::run_sweep over the
// par::ThreadPool as the lane count grows, on a 4-seed averaged scenario
// (the ISSUE-2 acceptance workload). Also asserts that every thread count
// produces bit-identical averages — the pool's core guarantee.
//
// Expected shape: near-linear speedup up to the physical core count
// (the seeds are independent Simulator instances), then flat. On a
// single-core host every row reports ~1x; the determinism check still
// runs and the bench still exits 0 so CI smoke runs pass anywhere.
//
// Every job is simulated: the driver clears WLAN_RUN_CACHE before its
// sweeps, since a store hit would time a file read instead of a lane, and
// it exits 1 if a sweep still reports a replayed job.
#include <chrono>
#include <cstdlib>

#include "bench_common.hpp"

namespace {

double wall_seconds_of(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wlan;
  bench::init(argc, argv);
  bench::header("Parallel scaling",
                "run_sweep wall time and speedup vs threads; 4-seed "
                "averaged hidden-node scenario (20 nodes, disc r=16)");

  const int seeds = util::bench_seeds(4);
  exp::SweepSpec spec = exp::SweepSpec::single(
      exp::ScenarioConfig::hidden(20, 16.0, 1),
      exp::SchemeConfig::fixed_p_persistent(0.02), bench::fixed_options(),
      seeds);
  spec.keep_runs = false;
  unsetenv("WLAN_RUN_CACHE");

  const int hw = par::ThreadPool::default_thread_count();
  std::vector<int> counts{1, 2, 4};
  if (hw > 4) counts.push_back(hw);

  util::Table table({"Threads", "Wall (s)", "Speedup vs 1", "Identical"});
  util::CsvWriter csv("parallel_scaling.csv");
  csv.header({"threads", "wall_seconds", "speedup", "bit_identical"});

  double serial_seconds = 0.0;
  exp::AveragedResult baseline;
  bool all_identical = true;
  bool any_replayed = false;
  for (const int threads : counts) {
    par::ThreadPool pool(threads);
    exp::SweepResult sweep;
    const double wall =
        wall_seconds_of([&] { sweep = exp::run_sweep(spec, &pool); });
    const exp::AveragedResult& avg = sweep.points[0].averaged;
    const double replayed = sweep.metrics.get("sweep.jobs_replayed");
    if (replayed > 0) {
      std::printf("ERROR: %d threads: %.0f job(s) replayed from a store\n",
                  threads, replayed);
      any_replayed = true;
    }
    if (threads == 1) {
      serial_seconds = wall;
      baseline = avg;
    }
    const bool identical = avg.mean_mbps == baseline.mean_mbps &&
                           avg.min_mbps == baseline.min_mbps &&
                           avg.max_mbps == baseline.max_mbps &&
                           avg.mean_idle_slots == baseline.mean_idle_slots;
    all_identical = all_identical && identical;
    const double speedup = wall > 0.0 ? serial_seconds / wall : 0.0;
    table.add_row(std::to_string(threads),
                  {wall, speedup, identical ? 1.0 : 0.0});
    csv.row_numeric({static_cast<double>(threads), wall, speedup,
                     identical ? 1.0 : 0.0});
  }

  table.print(std::cout);
  std::printf("\nHardware lanes available: %d. Expected: ~2x at 2 threads "
              "and ~4x at 4 on >=4 cores; flat on fewer.\n", hw);
  if (!all_identical) {
    std::printf("ERROR: parallel averages diverged from the serial run\n");
    return 1;
  }
  if (any_replayed) {
    std::printf("ERROR: replayed jobs make the wall times store reads\n");
    return 1;
  }
  std::printf("Determinism: all thread counts produced bit-identical "
              "averages.\n");
  return 0;
}
