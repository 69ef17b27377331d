// Declarative sweep engine: describe a grid of (scenario, scheme, swept
// parameter, seed) once, and `run_sweep` expands it into independent
// simulation jobs, fans them across the par::ThreadPool, and merges the
// results in job-index order — so parallel output is bit-identical to a
// serial loop over the same grid.
//
// Axes, outermost to innermost (row-major expansion order):
//   scenarios × schemes × params × loads × seeds
// The seed axis runs scenario.seed, scenario.seed + 1, ... like
// run_averaged always has. The params axis is an optional free dimension
// (attempt probability, reset probability, ...) applied to each point by a
// user-supplied `bind` callback before the job is built. The loads axis is
// an optional offered-load dimension (per-station Mb/s written into
// ScenarioConfig::traffic) so a whole throughput–delay curve fans across
// the pool as one grid.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "exp/fault.hpp"
#include "exp/runner.hpp"
#include "obs/metrics.hpp"

namespace wlan::par {
class ThreadPool;
}

namespace wlan::exp {

struct SweepSpec {
  /// Axis 1: scenario per grid row. Must be non-empty.
  std::vector<ScenarioConfig> scenarios;
  /// Axis 2: scheme per grid column. Must be non-empty.
  std::vector<SchemeConfig> schemes;
  /// Axis 3 (optional): free swept parameter, applied via `bind`.
  std::vector<double> params;
  /// Rewrites a (scenario, scheme) pair for one value of the params axis.
  /// Required exactly when `params` is non-empty.
  std::function<void(double value, ScenarioConfig&, SchemeConfig&)> bind;
  /// Axis 4 (optional): per-station offered load in Mb/s, written into
  /// each scenario's traffic.offered_load_mbps. Requires every scenario to
  /// carry a non-saturated TrafficConfig (the load of a backlogged station
  /// is not a free variable).
  std::vector<double> loads;
  /// Axis 5 (innermost): seeds averaged per grid point; the s-th run uses
  /// scenario.seed + s. Must be >= 1.
  int seeds = 1;
  /// Options forwarded to every run_scenario call.
  RunOptions options;
  /// Keep the per-seed RunResults in each SweepPoint (per-station
  /// throughput, series, ...). Averages are always computed.
  bool keep_runs = true;

  // Job-guard policy. A job that throws is retried with exponential
  // backoff; when every attempt fails the job folds as a zeroed RunResult
  // and a structured JobError lands in SweepResult::errors — the sweep
  // itself never aborts.
  /// Retries per failing job. Must be >= 0.
  int job_retries = 2;
  /// Base backoff before the first retry, doubling per attempt, in
  /// milliseconds. Must be >= 0; 0 disables the sleep (tests want retries
  /// without wall-clock cost).
  int job_backoff_ms = 100;

  /// Fixed at 1: every sweep runs in this process. expand() rejects any
  /// other value.
  int processes = 1;

  /// One-point spec: a single (scenario, scheme) pair averaged over seeds.
  static SweepSpec single(const ScenarioConfig& scenario,
                          const SchemeConfig& scheme,
                          const RunOptions& options = {}, int seeds = 1);
};

/// One fully bound simulation job from the expanded grid.
struct SweepJob {
  /// Row-major over scenarios×schemes×params×loads.
  std::size_t point_index = 0;
  int seed_index = 0;           // position on the seed axis
  ScenarioConfig scenario;      // seed offset and load already applied
  SchemeConfig scheme;
};

/// Expands the grid into jobs in deterministic row-major order. Throws
/// std::invalid_argument on an ill-formed spec (empty axis, seeds < 1,
/// negative job_retries or job_backoff_ms, processes != 1, params without
/// bind, loads with a saturated scenario).
std::vector<SweepJob> expand(const SweepSpec& spec);

/// Results for one grid point, folded over the seed axis in seed order
/// with the same arithmetic as run_averaged.
struct SweepPoint {
  std::size_t scenario_index = 0;
  std::size_t scheme_index = 0;
  std::size_t param_index = 0;
  std::size_t load_index = 0;
  /// The bound params-axis value; NaN when the spec had no params axis.
  double param = 0.0;
  /// The bound per-station load (Mb/s); NaN when the spec had no loads axis.
  double load = 0.0;
  AveragedResult averaged;
  /// Per-seed results in seed order; empty unless spec.keep_runs.
  std::vector<RunResult> runs;
};

struct SweepResult {
  std::size_t num_scenarios = 0;
  std::size_t num_schemes = 0;
  std::size_t num_params = 0;  // 1 when the spec had no params axis
  std::size_t num_loads = 0;   // 1 when the spec had no loads axis
  /// Row-major over scenarios×schemes×params×loads.
  std::vector<SweepPoint> points;

  /// Jobs that failed after every retry, in job-index order. A failed
  /// job's RunResult folded into its point as deterministic zeros; callers
  /// that cannot tolerate that must check ok() or throw_if_failed().
  std::vector<JobError> errors;

  /// Sweep-level metric totals: every per-run registry folded in job-index
  /// order via obs::merge_run_metrics (so totals are exact and identical
  /// at any thread count), plus sweep.jobs_total / sweep.jobs_replayed
  /// (jobs served by the store) / sweep.jobs_failed and a post-sweep
  /// snapshot of the process-cumulative cache.* / exp.fault.* counters.
  /// flight.attempts_per_success is recomputed here from the folded counts
  /// (a ratio cannot be summed). A job replayed from the store folds its
  /// stored per-run counters, so the totals do not depend on what the
  /// store served.
  obs::MetricsRegistry metrics;

  bool ok() const { return errors.empty(); }
  /// Throws std::runtime_error summarizing `errors` when any job failed
  /// (run_averaged and the figure drivers use this to keep the historical
  /// failing-run-throws contract).
  void throw_if_failed() const;

  const SweepPoint& at(std::size_t scenario, std::size_t scheme = 0,
                       std::size_t param = 0, std::size_t load = 0) const;
};

/// Runs every job in the expanded grid on `pool` (default: the process
/// global pool) and merges per-point in job-index order. Output is
/// bit-identical for any thread count, including 1.
///
/// Resume: with $WLAN_RUN_CACHE set (and no series/trace recording), every
/// job is looked up in the store once before the fan-out and each freshly
/// simulated job is stored once, so an interrupted sweep re-run replays
/// the completed jobs ("[sweep] store: replayed K/N jobs" on stderr) and
/// runs only the remainder, with byte-identical final output. Failing jobs
/// are guarded (retry + backoff) and reported through SweepResult::errors
/// instead of aborting the sweep.
SweepResult run_sweep(const SweepSpec& spec,
                      par::ThreadPool* pool = nullptr);

}  // namespace wlan::exp
