// Parallel-sweep scaling: wall-clock speedup of exp::run_sweep over the
// par::ThreadPool as the lane count grows, on a 4-seed averaged scenario.
// Also asserts that every sweep at every thread count produces
// bit-identical averages — the pool's core guarantee.
//
// One sweep per lane count cannot separate lane scaling from host noise (a
// fast-mode 1-lane sweep takes well under a second), so the driver runs
// kRounds rounds over the lane counts, rotating which count goes first,
// and divides each round's 1-lane wall time by the same round's wall time
// at each count. Per lane count it reports the median wall time, the
// median speedup and the min-max speedup over the rounds.
//
// Expected shape: near-linear speedup up to the physical core count
// (the seeds are independent Simulator instances), then flat. On a
// single-core host every row reports ~1x; the determinism check still
// runs and the bench still exits 0 so CI smoke runs pass anywhere.
//
// Every job is simulated: the driver clears WLAN_RUN_CACHE before its
// sweeps, since a store hit would time a file read instead of a lane, and
// it exits 1 if a sweep still reports a replayed job.
#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "bench_common.hpp"

namespace {

constexpr int kRounds = 5;

double wall_seconds_of(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

bool same_averages(const wlan::exp::AveragedResult& a,
                   const wlan::exp::AveragedResult& b) {
  return a.mean_mbps == b.mean_mbps && a.min_mbps == b.min_mbps &&
         a.max_mbps == b.max_mbps && a.mean_idle_slots == b.mean_idle_slots;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wlan;
  bench::init(argc, argv);
  bench::header("Parallel scaling",
                "run_sweep wall time and speedup vs threads; 4-seed "
                "averaged hidden-node scenario (20 nodes, disc r=16), " +
                    std::to_string(kRounds) + " rounds");

  const int seeds = util::bench_seeds(4);
  exp::SweepSpec spec = exp::SweepSpec::single(
      exp::ScenarioConfig::hidden(20, 16.0, 1),
      exp::SchemeConfig::fixed_p_persistent(0.02), bench::fixed_options(),
      seeds);
  spec.keep_runs = false;
  unsetenv("WLAN_RUN_CACHE");

  const int hw = par::ThreadPool::default_thread_count();
  std::vector<int> counts{1, 2, 4};  // counts[0] is the 1-lane reference
  if (hw > 4) counts.push_back(hw);
  const std::size_t lanes = counts.size();

  // wall[c][r]: the sweep at counts[c] lanes in round r.
  std::vector<std::vector<double>> wall(lanes, std::vector<double>(kRounds));
  std::vector<bool> identical(lanes, true);
  exp::AveragedResult baseline;
  bool any_replayed = false;
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t k = 0; k < lanes; ++k) {
      // Round r starts at counts[r mod lanes]; round 0 starts with 1 lane,
      // whose averages become the reference for every later sweep.
      const std::size_t c = (k + static_cast<std::size_t>(round)) % lanes;
      par::ThreadPool pool(counts[c]);
      exp::SweepResult sweep;
      wall[c][round] =
          wall_seconds_of([&] { sweep = exp::run_sweep(spec, &pool); });
      const double replayed = sweep.metrics.get("sweep.jobs_replayed");
      if (replayed > 0) {
        std::printf("ERROR: %d threads: %.0f job(s) replayed from a store\n",
                    counts[c], replayed);
        any_replayed = true;
      }
      const exp::AveragedResult& avg = sweep.points[0].averaged;
      if (round == 0 && k == 0) baseline = avg;
      identical[c] = identical[c] && same_averages(avg, baseline);
    }
  }

  util::Table table({"Threads", "Median wall (s)", "Median speedup",
                     "Min speedup", "Max speedup", "Identical"});
  util::CsvWriter csv("parallel_scaling.csv");
  csv.header({"threads", "wall_seconds_median", "speedup_median",
              "speedup_min", "speedup_max", "bit_identical"});
  bool all_identical = true;
  for (std::size_t c = 0; c < lanes; ++c) {
    std::vector<double> speedups(kRounds);
    for (int r = 0; r < kRounds; ++r)
      speedups[r] = wall[c][r] > 0.0 ? wall[0][r] / wall[c][r] : 0.0;
    const auto [lo, hi] = std::minmax_element(speedups.begin(), speedups.end());
    const double median_wall = median_of(wall[c]);
    const double median_speedup = median_of(speedups);
    const double flag = identical[c] ? 1.0 : 0.0;
    table.add_row(std::to_string(counts[c]),
                  {median_wall, median_speedup, *lo, *hi, flag});
    csv.row_numeric({static_cast<double>(counts[c]), median_wall,
                     median_speedup, *lo, *hi, flag});
    all_identical = all_identical && identical[c];
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
  std::printf("Determinism: all %d sweeps produced bit-identical "
              "averages.\n", kRounds * static_cast<int>(lanes));
  return 0;
}
