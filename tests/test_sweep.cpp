// Tests of the declarative sweep engine: grid expansion order, param
// binding, result indexing, the core guarantee that a parallel run_sweep
// is bit-identical to the serial seed loop it replaced (and, for
// population schedules, to run_dynamic), the sweep-level metrics fold,
// retry-path no-double-count accounting, and the live progress tracker.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exp/fault.hpp"
#include "exp/progress.hpp"
#include "exp/sweep.hpp"
#include "obs/collect.hpp"
#include "par/thread_pool.hpp"

namespace {

using namespace wlan;
using namespace wlan::exp;

RunOptions quick_options() {
  RunOptions opts;
  opts.warmup = sim::Duration::seconds(0.2);
  opts.measure = sim::Duration::seconds(1.0);
  return opts;
}

TEST(Sweep, ExpandIsRowMajorWithSeedsInnermost) {
  SweepSpec spec;
  spec.scenarios = {ScenarioConfig::connected(5, 10),
                    ScenarioConfig::connected(7, 20)};
  spec.schemes = {SchemeConfig::standard(),
                  SchemeConfig::fixed_p_persistent(0.05)};
  spec.params = {0.1, 0.2, 0.3};
  spec.bind = [](double, ScenarioConfig&, SchemeConfig&) {};
  spec.seeds = 2;
  const auto jobs = expand(spec);
  ASSERT_EQ(jobs.size(), 2u * 2u * 3u * 2u);

  // Seeds vary fastest: consecutive jobs share a point index.
  EXPECT_EQ(jobs[0].point_index, 0u);
  EXPECT_EQ(jobs[0].seed_index, 0);
  EXPECT_EQ(jobs[0].scenario.seed, 10u);
  EXPECT_EQ(jobs[1].point_index, 0u);
  EXPECT_EQ(jobs[1].seed_index, 1);
  EXPECT_EQ(jobs[1].scenario.seed, 11u);
  // Then params, then schemes, then scenarios (row-major).
  EXPECT_EQ(jobs[2].point_index, 1u);
  EXPECT_EQ(jobs[6].scheme.kind, SchemeKind::kFixedPPersistent);
  const auto& last = jobs.back();
  EXPECT_EQ(last.point_index, 11u);
  EXPECT_EQ(last.scenario.num_stations, 7);
  EXPECT_EQ(last.scenario.seed, 21u);
}

TEST(Sweep, BindAppliesTheParamAxis) {
  SweepSpec spec;
  spec.scenarios = {ScenarioConfig::connected(5, 1)};
  spec.schemes = {SchemeConfig::standard()};
  spec.params = {0.01, 0.04};
  spec.bind = [](double p, ScenarioConfig&, SchemeConfig& sch) {
    sch = SchemeConfig::fixed_p_persistent(p);
  };
  const auto jobs = expand(spec);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].scheme.kind, SchemeKind::kFixedPPersistent);
  EXPECT_DOUBLE_EQ(jobs[0].scheme.fixed_p, 0.01);
  EXPECT_DOUBLE_EQ(jobs[1].scheme.fixed_p, 0.04);
}

TEST(Sweep, RejectsIllFormedSpecs) {
  SweepSpec spec;
  EXPECT_THROW(expand(spec), std::invalid_argument);  // no scenarios
  spec.scenarios = {ScenarioConfig::connected(5, 1)};
  EXPECT_THROW(expand(spec), std::invalid_argument);  // no schemes
  spec.schemes = {SchemeConfig::standard()};
  spec.seeds = 0;
  EXPECT_THROW(expand(spec), std::invalid_argument);  // seeds < 1
  spec.seeds = 1;
  for (const int processes : {0, 2, -1}) {
    spec.processes = processes;
    EXPECT_THROW(expand(spec), std::invalid_argument);  // processes != 1
  }
  spec.processes = 1;
  spec.params = {0.5};
  EXPECT_THROW(expand(spec), std::invalid_argument);  // params without bind
}

TEST(Sweep, RejectsANegativeRetryPolicy) {
  // A negative value is a caller error, never a request for some default.
  SweepSpec spec = SweepSpec::single(ScenarioConfig::connected(5, 1),
                                     SchemeConfig::standard());
  spec.job_retries = -1;
  EXPECT_THROW(expand(spec), std::invalid_argument);
  spec.job_retries = 0;
  spec.job_backoff_ms = -1;
  EXPECT_THROW(expand(spec), std::invalid_argument);
  spec.job_backoff_ms = 0;
  EXPECT_EQ(expand(spec).size(), 1u);
}

TEST(Sweep, ParallelResultBitIdenticalToSerialSeedLoop) {
  const auto scenario = ScenarioConfig::hidden(8, 16.0, 1);
  const auto scheme = SchemeConfig::standard();
  const auto opts = quick_options();
  const int seeds = 3;

  // The historical serial loop: run each seed in order, fold by hand.
  double sum = 0.0, idle_sum = 0.0, hidden_sum = 0.0, lo = 0.0, hi = 0.0;
  for (int s = 0; s < seeds; ++s) {
    ScenarioConfig sc = scenario;
    sc.seed = scenario.seed + static_cast<std::uint64_t>(s);
    const RunResult r = run_scenario(sc, scheme, opts);
    sum += r.total_mbps;
    idle_sum += r.ap_avg_idle_slots;
    hidden_sum += static_cast<double>(r.hidden_pairs);
    if (s == 0) {
      lo = hi = r.total_mbps;
    } else {
      lo = std::min(lo, r.total_mbps);
      hi = std::max(hi, r.total_mbps);
    }
  }

  SweepSpec spec = SweepSpec::single(scenario, scheme, opts, seeds);
  for (const int threads : {1, 2, 4}) {
    par::ThreadPool pool(threads);
    const SweepResult result = run_sweep(spec, &pool);
    const AveragedResult& avg = result.points[0].averaged;
    // Exact equality, not near-equality: the parallel fold must follow
    // the identical operation order.
    EXPECT_EQ(avg.mean_mbps, sum / seeds) << "threads=" << threads;
    EXPECT_EQ(avg.min_mbps, lo) << "threads=" << threads;
    EXPECT_EQ(avg.max_mbps, hi) << "threads=" << threads;
    EXPECT_EQ(avg.mean_idle_slots, idle_sum / seeds) << "threads=" << threads;
    EXPECT_EQ(avg.mean_hidden_pairs, hidden_sum / seeds)
        << "threads=" << threads;
    // Per-seed runs come back in seed order.
    ASSERT_EQ(result.points[0].runs.size(), static_cast<std::size_t>(seeds));
  }
}

TEST(Sweep, RunAveragedMatchesItsOwnSerialDefinition) {
  const auto scenario = ScenarioConfig::connected(5, 42);
  const auto scheme = SchemeConfig::fixed_p_persistent(0.05);
  const auto opts = quick_options();

  double sum = 0.0;
  for (int s = 0; s < 2; ++s) {
    ScenarioConfig sc = scenario;
    sc.seed = scenario.seed + static_cast<std::uint64_t>(s);
    sum += run_scenario(sc, scheme, opts).total_mbps;
  }
  const SweepResult result =
      run_sweep(SweepSpec::single(scenario, scheme, opts, /*seeds=*/2));
  EXPECT_EQ(result.at(0).averaged.mean_mbps, sum / 2);
}

/// Raw bits of a series' samples (time and value), in order.
std::vector<std::uint64_t> series_bits(const stats::TimeSeries& series) {
  std::vector<std::uint64_t> bits;
  for (const auto& sample : series.samples()) {
    bits.push_back(std::bit_cast<std::uint64_t>(sample.t_seconds));
    bits.push_back(std::bit_cast<std::uint64_t>(sample.value));
  }
  return bits;
}

/// The run's sim.*, medium.* and mac.* counters, in registry order.
std::vector<std::pair<std::string, double>> event_counters(
    const RunResult& r) {
  std::vector<std::pair<std::string, double>> counters;
  for (const auto& m : r.metrics.entries())
    for (const char* prefix : {"sim.", "medium.", "mac."})
      if (m.name.rfind(prefix, 0) == 0) counters.emplace_back(m.name, m.value);
  return counters;
}

TEST(Sweep, PopulationSweepMatchesRunDynamicBitForBit) {
  // Figs. 8-11 run their population schedules as sweep jobs: each point
  // must be the run run_dynamic gives for the same schedule, at any lane
  // count.
  const std::vector<PopulationStep> schedule{{0.0, 8}, {0.6, 3}, {1.2, 6}};
  const auto total = sim::Duration::seconds(1.8);
  const auto sample = sim::Duration::seconds(0.2);
  const auto scheme = SchemeConfig::wtop_csma();
  const std::vector<ScenarioConfig> networks{
      ScenarioConfig::connected(8, 1), ScenarioConfig::hidden(8, 16.0, 2)};

  SweepSpec spec;
  for (ScenarioConfig scenario : networks) {
    scenario.population = schedule;
    spec.scenarios.push_back(scenario);
  }
  spec.schemes = {scheme};
  spec.options.warmup = sim::Duration::zero();
  spec.options.measure = total;
  spec.options.sample_period = sample;
  spec.options.record_series = true;

  std::vector<RunResult> expected;
  for (const ScenarioConfig& scenario : networks)
    expected.push_back(run_dynamic(scenario, scheme, schedule, total, sample));

  for (const int threads : {1, 4}) {
    par::ThreadPool pool(threads);
    const SweepResult result = run_sweep(spec, &pool);
    ASSERT_TRUE(result.ok());
    for (std::size_t i = 0; i < networks.size(); ++i) {
      SCOPED_TRACE(::testing::Message()
                   << "threads=" << threads << " scenario=" << i);
      const RunResult& got = result.at(i).runs[0];
      const RunResult& want = expected[i];
      ASSERT_FALSE(want.active_nodes_series.samples().empty());
      EXPECT_EQ(series_bits(got.throughput_series),
                series_bits(want.throughput_series));
      EXPECT_EQ(series_bits(got.control_series),
                series_bits(want.control_series));
      EXPECT_EQ(series_bits(got.active_nodes_series),
                series_bits(want.active_nodes_series));
      EXPECT_FALSE(event_counters(want).empty());
      EXPECT_EQ(event_counters(got), event_counters(want));
    }
  }
}

TEST(Sweep, AtIndexesTheGridRowMajor) {
  SweepSpec spec;
  spec.scenarios = {ScenarioConfig::connected(3, 1),
                    ScenarioConfig::connected(4, 1)};
  spec.schemes = {SchemeConfig::standard(),
                  SchemeConfig::fixed_p_persistent(0.05)};
  spec.params = {0.1, 0.9};
  spec.bind = [](double, ScenarioConfig&, SchemeConfig&) {};
  spec.options = quick_options();
  spec.options.measure = sim::Duration::seconds(0.2);
  spec.keep_runs = false;
  par::ThreadPool pool(2);
  const SweepResult result = run_sweep(spec, &pool);
  ASSERT_EQ(result.points.size(), 8u);
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 2; ++j)
      for (std::size_t k = 0; k < 2; ++k) {
        const SweepPoint& pt = result.at(i, j, k);
        EXPECT_EQ(pt.scenario_index, i);
        EXPECT_EQ(pt.scheme_index, j);
        EXPECT_EQ(pt.param_index, k);
        EXPECT_DOUBLE_EQ(pt.param, spec.params[k]);
        EXPECT_TRUE(pt.runs.empty());  // keep_runs = false
      }
  EXPECT_THROW(result.at(2, 0, 0), std::out_of_range);
  EXPECT_THROW(result.at(0, 2, 0), std::out_of_range);
  EXPECT_THROW(result.at(0, 0, 2), std::out_of_range);
}

TEST(Sweep, PointWithoutParamsAxisReportsNaNParam) {
  SweepSpec spec = SweepSpec::single(ScenarioConfig::connected(3, 1),
                                     SchemeConfig::standard());
  spec.options.warmup = sim::Duration::zero();
  spec.options.measure = sim::Duration::seconds(0.2);
  const SweepResult result = run_sweep(spec);
  ASSERT_EQ(result.points.size(), 1u);
  EXPECT_TRUE(std::isnan(result.points[0].param));
  ASSERT_EQ(result.points[0].runs.size(), 1u);
  EXPECT_GT(result.points[0].runs[0].total_mbps, 0.0);
}

TEST(Sweep, ExceptionInsideAJobIsCapturedAsAJobError) {
  SweepSpec spec;
  spec.scenarios = {ScenarioConfig::connected(3, 1)};
  spec.schemes = {SchemeConfig::standard()};
  spec.params = {0.5};
  // Binding to an invalid station count makes the job itself throw.
  spec.bind = [](double, ScenarioConfig& sc, SchemeConfig&) {
    sc.num_stations = -1;
  };
  spec.options = quick_options();
  spec.job_retries = 1;
  spec.job_backoff_ms = 0;
  par::ThreadPool pool(2);
  // The job guard captures the failure instead of aborting the sweep:
  // run_sweep returns, the point folds as zeros, and the structured error
  // names the job.
  const SweepResult result = run_sweep(spec, &pool);
  EXPECT_FALSE(result.ok());
  ASSERT_EQ(result.errors.size(), 1u);
  const JobError& e = result.errors[0];
  EXPECT_EQ(e.job_index, 0u);
  EXPECT_EQ(e.point_index, 0u);
  EXPECT_EQ(e.seed_index, 0);
  EXPECT_EQ(e.attempts, 2);  // 1 + job_retries
  EXPECT_FALSE(e.what.empty());
  EXPECT_DOUBLE_EQ(result.points[0].averaged.mean_mbps, 0.0);
  // Callers that need the historical abort semantics opt back in.
  EXPECT_THROW(result.throw_if_failed(), std::runtime_error);
}

TEST(Sweep, FailedJobDoesNotPoisonTheOtherJobs) {
  SweepSpec spec;
  spec.scenarios = {ScenarioConfig::connected(3, 1)};
  spec.schemes = {SchemeConfig::standard()};
  spec.params = {0.1, 0.2};
  // Only the second param point is sick.
  spec.bind = [](double v, ScenarioConfig& sc, SchemeConfig&) {
    if (v > 0.15) sc.num_stations = -1;
  };
  spec.options = quick_options();
  spec.job_retries = 0;
  spec.job_backoff_ms = 0;
  par::ThreadPool pool(2);
  const SweepResult result = run_sweep(spec, &pool);
  ASSERT_EQ(result.errors.size(), 1u);
  EXPECT_EQ(result.errors[0].point_index, 1u);
  EXPECT_GT(result.at(0, 0, 0).averaged.mean_mbps, 0.0);
  EXPECT_DOUBLE_EQ(result.at(0, 0, 1).averaged.mean_mbps, 0.0);
}

// --------------------------------------------------- sweep metrics fold

TEST(SweepMetrics, FoldCarriesRunTotalsAndJobCounters) {
  SweepSpec spec;
  spec.scenarios = {ScenarioConfig::connected(4, 1)};
  spec.schemes = {SchemeConfig::standard()};
  spec.seeds = 3;
  spec.options = quick_options();
  const SweepResult result = run_sweep(spec);

  EXPECT_EQ(result.metrics.get("sweep.jobs_total", -1.0), 3.0);
  EXPECT_EQ(result.metrics.get("sweep.jobs_replayed", -1.0), 0.0);
  EXPECT_EQ(result.metrics.get("sweep.jobs_failed", -1.0), 0.0);

  // The fold is the job-index-order sum of the per-run registries.
  double expected_events = 0.0;
  for (const RunResult& r : result.points[0].runs)
    expected_events += r.metrics.get("sim.events_executed", 0.0);
  EXPECT_EQ(result.metrics.get("sim.events_executed", -1.0), expected_events);

  // Process-cumulative families are snapshots, not per-job sums.
  EXPECT_TRUE(result.metrics.contains("cache.hits"));
  EXPECT_TRUE(result.metrics.contains("exp.fault.job_failures"));
}

TEST(SweepMetrics, TransientFaultDoesNotDoubleCountMetrics) {
  // Regression for the retry path: a job whose first attempt throws (and
  // whose retry then succeeds) must contribute its metrics exactly once —
  // the folded totals and the science output must equal a fault-free
  // sweep's, with nothing landing in SweepResult::errors.
  SweepSpec spec;
  spec.scenarios = {ScenarioConfig::connected(4, 1)};
  spec.schemes = {SchemeConfig::standard()};
  spec.seeds = 3;
  spec.options = quick_options();
  spec.job_retries = 2;
  spec.job_backoff_ms = 0;

  par::ThreadPool pool(2);
  const SweepResult clean = run_sweep(spec, &pool);

  FaultPlan plan;
  plan.sites.push_back({/*job_index=*/1, /*times=*/1});
  SweepResult faulted;
  {
    wlan::exp::testing::FaultPlanGuard guard(plan);
    faulted = run_sweep(spec, &pool);
  }

  EXPECT_TRUE(faulted.ok());
  EXPECT_DOUBLE_EQ(faulted.points[0].averaged.mean_mbps,
                   clean.points[0].averaged.mean_mbps);
  // Every per-run (non-process-cumulative) folded total matches exactly.
  for (const auto& [name, value] : clean.metrics.entries()) {
    if (obs::is_process_cumulative_metric(name)) continue;
    EXPECT_EQ(faulted.metrics.get(name, -1.0), value) << name;
  }
}

TEST(SweepMetrics, FailedJobCountsOnceInJobsFailed) {
  SweepSpec spec;
  spec.scenarios = {ScenarioConfig::connected(3, 1)};
  spec.schemes = {SchemeConfig::standard()};
  spec.params = {0.5};
  spec.bind = [](double, ScenarioConfig& sc, SchemeConfig&) {
    sc.num_stations = -1;
  };
  spec.options = quick_options();
  spec.job_retries = 2;
  spec.job_backoff_ms = 0;
  const SweepResult result = run_sweep(spec);
  ASSERT_EQ(result.errors.size(), 1u);
  // Three attempts, ONE failure: retries must not inflate the count the
  // sweep-accounting audit reconciles against errors.size().
  EXPECT_EQ(result.metrics.get("sweep.jobs_failed", -1.0), 1.0);
}

// ------------------------------------------------------ progress tracker

TEST(Progress, SnapshotArithmetic) {
  exp::ProgressTracker tracker(/*total=*/10, /*replayed=*/4);
  auto snap = tracker.snapshot();
  EXPECT_EQ(snap.total, 10u);
  EXPECT_EQ(snap.done, 4u);  // replayed jobs count as done up front
  EXPECT_EQ(snap.replayed, 4u);
  EXPECT_EQ(snap.rate_jobs_per_s, 0.0);
  EXPECT_EQ(snap.eta_s, 0.0);  // unknown rate -> no ETA claim

  tracker.job_finished(/*wall_ms=*/1.0, /*failed=*/false);
  tracker.job_finished(/*wall_ms=*/3.0, /*failed=*/true);
  tracker.job_finished(/*wall_ms=*/500.0, /*failed=*/false);
  snap = tracker.snapshot();
  EXPECT_EQ(snap.done, 7u);
  EXPECT_EQ(snap.failed, 1u);
  EXPECT_GT(snap.rate_jobs_per_s, 0.0);
  EXPECT_GT(snap.eta_s, 0.0);
  // log2 ms buckets: 1.0 -> [0,2), 3.0 -> [2,4), 500 -> open-ended last.
  EXPECT_EQ(snap.wall_hist_ms[0], 1u);
  EXPECT_EQ(snap.wall_hist_ms[1], 1u);
  EXPECT_EQ(snap.wall_hist_ms.back(), 1u);
  std::uint64_t histogram_total = 0;
  for (const std::uint64_t b : snap.wall_hist_ms) histogram_total += b;
  EXPECT_EQ(histogram_total, 3u);
}

TEST(Progress, HeartbeatJsonCarriesEveryKey) {
  exp::ProgressTracker tracker(5, 0);
  tracker.job_finished(2.5, false);
  const std::string doc =
      exp::ProgressTracker::heartbeat_json(tracker.snapshot());
  for (const char* key :
       {"\"total\"", "\"done\"", "\"failed\"", "\"replayed\"", "\"retries\"",
        "\"elapsed_seconds\"", "\"rate_jobs_per_s\"", "\"eta_seconds\"",
        "\"cache_hits\"", "\"cache_misses\"", "\"sweeps_completed\"",
        "\"wall_hist_ms\""})
    EXPECT_NE(doc.find(key), std::string::npos) << key << " missing: " << doc;
  EXPECT_EQ(doc.find("nan"), std::string::npos);
  EXPECT_EQ(doc.front(), '{');
  EXPECT_EQ(doc.back(), '}');
}

TEST(Progress, SweepsCompletedAdvancesPerSweep) {
  const std::uint64_t before = exp::sweeps_completed();
  SweepSpec spec = SweepSpec::single(ScenarioConfig::connected(3, 1),
                                     SchemeConfig::standard());
  spec.options.warmup = sim::Duration::zero();
  spec.options.measure = sim::Duration::seconds(0.2);
  run_sweep(spec);
  EXPECT_EQ(exp::sweeps_completed(), before + 1);
}

}  // namespace
