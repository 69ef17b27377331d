// Experiment runner: executes a (scenario, scheme) pair and collects every
// quantity the paper's tables and figures report. run_scenario is the one
// build-start-run-collect loop; a scenario's population schedule (Figs.
// 8-11) runs through it like any other field. Seed averaging, grids and
// the result store live in exp/sweep.hpp.
#pragma once

#include <cstdint>
#include <vector>

#include "exp/scenario.hpp"
#include "obs/metrics.hpp"
#include "stats/delay.hpp"
#include "stats/timeseries.hpp"

namespace wlan::exp {

struct RunOptions {
  /// Discarded settling interval before measurement begins. Adaptive
  /// schemes keep adapting during warm-up (that is the point of it).
  sim::Duration warmup = sim::Duration::seconds(5.0);
  /// Measured interval; throughput and idle slots are computed over it.
  sim::Duration measure = sim::Duration::seconds(20.0);
  /// Windowed throughput sampling period for time series.
  sim::Duration sample_period = sim::Duration::seconds(1.0);
  /// Record time series (throughput / control variable / stage).
  bool record_series = false;
};

struct RunResult {
  double total_mbps = 0.0;
  std::vector<double> per_station_mbps;
  /// Average idle slots per transmission observed at the AP during the
  /// measured window (Table III).
  double ap_avg_idle_slots = 0.0;
  /// Unordered hidden station pairs in the topology.
  std::size_t hidden_pairs = 0;
  /// Mean per-slot attempt probability across stations at the end.
  double mean_attempt_probability = 0.0;
  /// Station-side counts over the measured window.
  std::uint64_t successes = 0;
  std::uint64_t failures = 0;

  // Traffic-layer metrics over the measured window; all zero when the
  // scenario runs the saturated default (no sources, no queues).
  std::uint64_t packets_offered = 0;  // arrivals at the queues, drops included
  std::uint64_t packets_dropped = 0;  // tail drops at full queues
  double offered_mbps = 0.0;          // arrival payload rate, all stations
  double drop_rate = 0.0;             // packets_dropped / packets_offered
  /// Time-averaged total packets queued across all stations.
  double mean_queue_occupancy = 0.0;
  /// Per-packet MAC delay (enqueue -> ACK), merged across stations.
  double mean_delay_s = 0.0;
  double delay_p50_s = 0.0;
  double delay_p95_s = 0.0;
  double delay_p99_s = 0.0;
  /// The full delay distribution behind the summary quantiles above.
  stats::DelayHistogram delays;

  /// This run's counter snapshot (sim.*, medium.*, mac.cohort.*,
  /// traffic.*; audit.*, flight.* and profile.* when those are on; see
  /// obs/collect.hpp) taken when measurement ends. A run-cache hit carries
  /// all but the wall-clock profile.* names.
  obs::MetricsRegistry metrics;

  // Time series over the WHOLE run (including warm-up), when requested.
  stats::TimeSeries throughput_series{"Mb/s"};
  stats::TimeSeries control_series{"control"};
  stats::TimeSeries stage_series{"stage"};
  stats::TimeSeries active_nodes_series{"N"};
  // Sampled only when the scenario runs finite traffic sources.
  stats::TimeSeries queue_series{"pkts"};     // total packets queued
  stats::TimeSeries drop_series{"drops/s"};   // windowed drop rate
};

/// Runs one scenario under one scheme. Always simulates: the result
/// store (exp/run_cache.hpp) is read and written only by run_sweep, which
/// calls this for the jobs its own lookup missed. The scenario's
/// population steps are scheduled right after the network starts, before
/// the warm-up.
RunResult run_scenario(const ScenarioConfig& scenario,
                       const SchemeConfig& scheme,
                       const RunOptions& options = {});

/// Forwards to run_scenario with `schedule` as the scenario's population,
/// no warm-up, `total_duration` measured and series recorded every
/// `sample_period`, so throughput/idle metrics cover the full duration.
RunResult run_dynamic(const ScenarioConfig& scenario,
                      const SchemeConfig& scheme,
                      const std::vector<PopulationStep>& schedule,
                      sim::Duration total_duration,
                      sim::Duration sample_period = sim::Duration::seconds(1));

}  // namespace wlan::exp
