#include "exp/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "exp/progress.hpp"
#include "exp/run_cache.hpp"
#include "obs/audit.hpp"
#include "obs/collect.hpp"
#include "obs/trace.hpp"
#include "par/thread_pool.hpp"

namespace wlan::exp {

SweepSpec SweepSpec::single(const ScenarioConfig& scenario,
                            const SchemeConfig& scheme,
                            const RunOptions& options, int seeds) {
  SweepSpec spec;
  spec.scenarios = {scenario};
  spec.schemes = {scheme};
  spec.options = options;
  spec.seeds = seeds;
  return spec;
}

std::vector<SweepJob> expand(const SweepSpec& spec) {
  if (spec.scenarios.empty())
    throw std::invalid_argument("SweepSpec: scenarios axis is empty");
  if (spec.schemes.empty())
    throw std::invalid_argument("SweepSpec: schemes axis is empty");
  if (spec.seeds < 1)
    throw std::invalid_argument("SweepSpec: seeds must be >= 1");
  if (spec.job_retries < 0 || spec.job_backoff_ms < 0)
    throw std::invalid_argument(
        "SweepSpec: job_retries and job_backoff_ms must be >= 0");
  if (spec.processes != 1)
    throw std::invalid_argument("SweepSpec: processes must be 1");
  if (!spec.params.empty() && !spec.bind)
    throw std::invalid_argument("SweepSpec: params axis needs a bind");
  const std::size_t num_params = spec.params.empty() ? 1 : spec.params.size();
  const std::size_t num_loads = spec.loads.empty() ? 1 : spec.loads.size();
  std::vector<SweepJob> jobs;
  jobs.reserve(spec.scenarios.size() * spec.schemes.size() * num_params *
               num_loads * static_cast<std::size_t>(spec.seeds));
  std::size_t point = 0;
  for (const auto& scenario : spec.scenarios) {
    for (const auto& scheme : spec.schemes) {
      for (std::size_t pi = 0; pi < num_params; ++pi) {
        ScenarioConfig bound_scenario = scenario;
        SchemeConfig bound_scheme = scheme;
        if (!spec.params.empty())
          spec.bind(spec.params[pi], bound_scenario, bound_scheme);
        // Validated post-bind (a bind may rewrite the traffic config): a
        // load only means something to a model that reads it — saturated
        // stations have no load knob and a trace replays fixed gaps, so a
        // loads axis over either would emit one flat "curve".
        if (!spec.loads.empty() && !bound_scenario.traffic.load_driven())
          throw std::invalid_argument(
              "SweepSpec: loads axis needs load-driven scenario traffic "
              "(CBR, Poisson, or on/off)");
        for (std::size_t li = 0; li < num_loads; ++li, ++point) {
          ScenarioConfig loaded_scenario = bound_scenario;
          if (!spec.loads.empty())
            loaded_scenario.traffic.offered_load_mbps = spec.loads[li];
          for (int s = 0; s < spec.seeds; ++s) {
            SweepJob job;
            job.point_index = point;
            job.seed_index = s;
            job.scenario = loaded_scenario;
            job.scenario.seed =
                loaded_scenario.seed + static_cast<std::uint64_t>(s);
            job.scheme = bound_scheme;
            jobs.push_back(std::move(job));
          }
        }
      }
    }
  }
  return jobs;
}

namespace {

/// Seed-axis fold, same arithmetic and order as a serial loop over the
/// seeds, so sweep output stays bit-identical to one.
AveragedResult fold_seeds(const std::vector<RunResult>& runs) {
  AveragedResult avg;
  if (runs.empty()) return avg;
  double sum = 0.0, idle_sum = 0.0, hidden_sum = 0.0;
  double lo = 0.0, hi = 0.0;
  double offered_sum = 0.0, drop_sum = 0.0, occupancy_sum = 0.0;
  double delay_sum = 0.0, p50_sum = 0.0, p95_sum = 0.0, p99_sum = 0.0;
  for (std::size_t s = 0; s < runs.size(); ++s) {
    const RunResult& r = runs[s];
    sum += r.total_mbps;
    idle_sum += r.ap_avg_idle_slots;
    hidden_sum += static_cast<double>(r.hidden_pairs);
    offered_sum += r.offered_mbps;
    drop_sum += r.drop_rate;
    occupancy_sum += r.mean_queue_occupancy;
    delay_sum += r.mean_delay_s;
    p50_sum += r.delay_p50_s;
    p95_sum += r.delay_p95_s;
    p99_sum += r.delay_p99_s;
    if (s == 0) {
      lo = hi = r.total_mbps;
    } else {
      lo = std::min(lo, r.total_mbps);
      hi = std::max(hi, r.total_mbps);
    }
  }
  const auto n = static_cast<double>(runs.size());
  avg.mean_mbps = sum / n;
  avg.min_mbps = lo;
  avg.max_mbps = hi;
  avg.mean_idle_slots = idle_sum / n;
  avg.mean_hidden_pairs = hidden_sum / n;
  avg.mean_offered_mbps = offered_sum / n;
  avg.mean_drop_rate = drop_sum / n;
  avg.mean_queue_occupancy = occupancy_sum / n;
  avg.mean_delay_s = delay_sum / n;
  avg.mean_delay_p50_s = p50_sum / n;
  avg.mean_delay_p95_s = p95_sum / n;
  avg.mean_delay_p99_s = p99_sum / n;
  return avg;
}

/// With WLAN_PROFILE on, reports each pool lane's aggregate phase profile
/// over the contiguous block of PENDING jobs the lane executed (the per-run
/// registries carry profile.* buckets; jobs replayed from the store carry
/// no profile and never reached a lane). Pure reporting.
void report_lane_profiles(const par::ThreadPool& pool,
                          const std::vector<RunResult>& raw,
                          const std::vector<std::size_t>& pending) {
  if (!obs::SimObs::profile_enabled_by_env()) return;
  for (int lane = 0; lane < pool.thread_count(); ++lane) {
    const auto [first, last] = pool.block_of(lane, pending.size());
    if (first >= last) continue;
    obs::PhaseProfiler sum;
    for (std::size_t i = first; i < last; ++i) {
      for (unsigned c = 0; c < obs::kNumCategories; ++c) {
        const auto cat = static_cast<obs::Category>(c);
        const std::string base =
            std::string("profile.") + obs::category_name(cat);
        sum.add_bucket(cat,
                       static_cast<std::uint64_t>(
                           raw[pending[i]].metrics.get(base + ".events")),
                       static_cast<std::int64_t>(
                           raw[pending[i]].metrics.get(base + ".wall_ns")));
      }
    }
    const std::string label = "sweep lane " + std::to_string(lane) +
                              " (jobs " + std::to_string(pending[first]) +
                              ".." + std::to_string(pending[last - 1]) + ")";
    std::fputs(sum.report(label).c_str(), stderr);
  }
}

/// Runs one job under the guard: fault injection, then retry with
/// exponential backoff. run_scenario never touches the store (run_sweep
/// looked the job up already and stores the result itself). On terminal
/// failure fills `error` and leaves `out` default (deterministic zeros for
/// the fold).
void run_guarded(const SweepJob& job, std::size_t job_index,
                 std::uint64_t config_fingerprint, const SweepSpec& spec,
                 RunResult& out, std::optional<JobError>& error) {
  JobError last;
  last.job_index = job_index;
  last.point_index = job.point_index;
  last.seed_index = job.seed_index;
  last.config_fingerprint = config_fingerprint;
  for (int attempt = 1;; ++attempt) {
    try {
      fault_injection::apply_before_attempt(job_index);
      out = run_scenario(job.scenario, job.scheme, spec.options);
      return;
    } catch (const std::exception& e) {
      last.what = e.what();
    } catch (...) {
      last.what = "unknown exception";
    }
    fault_counters::add_exception();
    last.attempts = attempt;
    if (attempt > spec.job_retries) {
      fault_counters::add_failure();
      out = RunResult{};
      error = std::move(last);
      return;
    }
    fault_counters::add_retry();
    if (spec.job_backoff_ms > 0) {
      // Exponential backoff: base, 2*base, 4*base, ... capped at 30 s.
      const std::int64_t delay =
          std::min<std::int64_t>(static_cast<std::int64_t>(spec.job_backoff_ms)
                                     << std::min(attempt - 1, 20),
                                 30'000);
      std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    }
  }
}

/// Appends the process-wide store counters (cache.*).
void add_run_cache_metrics(obs::MetricsRegistry& reg) {
  const run_cache::Stats cs = run_cache::stats();
  reg.set_count("cache.hits", cs.hits);
  reg.set_count("cache.misses", cs.misses);
  reg.set_count("cache.quarantined", cs.quarantined);
}

/// Appends the process-wide job-guard counters (exp.fault.*).
void add_fault_metrics(obs::MetricsRegistry& reg) {
  const FaultStats fs = fault_stats();
  reg.set_count("exp.fault.job_exceptions", fs.job_exceptions);
  reg.set_count("exp.fault.job_retries", fs.job_retries);
  reg.set_count("exp.fault.job_failures", fs.job_failures);
}

void report_errors(const std::vector<JobError>& errors) {
  for (const JobError& e : errors) {
    std::fprintf(
        stderr,
        "[sweep] job %zu (point %zu, seed %d, config %016llx) failed after "
        "%d attempt%s: %s\n",
        e.job_index, e.point_index, e.seed_index,
        static_cast<unsigned long long>(e.config_fingerprint), e.attempts,
        e.attempts == 1 ? "" : "s", e.what.c_str());
  }
}

}  // namespace

void SweepResult::throw_if_failed() const {
  if (errors.empty()) return;
  throw std::runtime_error("sweep failed: " + std::to_string(errors.size()) +
                           " job(s) exhausted their retries; first: job " +
                           std::to_string(errors.front().job_index) + ": " +
                           errors.front().what);
}

const SweepPoint& SweepResult::at(std::size_t scenario, std::size_t scheme,
                                  std::size_t param,
                                  std::size_t load) const {
  if (scenario >= num_scenarios || scheme >= num_schemes ||
      param >= num_params || load >= num_loads)
    throw std::out_of_range("SweepResult::at: index outside the grid");
  return points[((scenario * num_schemes + scheme) * num_params + param) *
                    num_loads +
                load];
}

SweepResult run_sweep(const SweepSpec& spec, par::ThreadPool* pool) {
  const std::vector<SweepJob> jobs = expand(spec);
  if (pool == nullptr) pool = &par::ThreadPool::global();

  // Per-job content keys: store keys and JobError fingerprints.
  std::vector<std::uint64_t> job_keys(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i)
    job_keys[i] =
        run_cache::key_hash(jobs[i].scenario, jobs[i].scheme, spec.options);

  // Series runs bypass the store: series are not serialized.
  const std::string store =
      spec.options.record_series ? std::string() : run_cache::directory();

  // Resume is a store hit: every job is looked up once, before the
  // fan-out. Hits fill their slots (per-run counters included, so they
  // fold exactly like fresh runs); only the misses are simulated.
  std::vector<RunResult> raw(jobs.size());
  std::vector<std::size_t> pending;
  pending.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i)
    if (store.empty() || !run_cache::lookup(store, job_keys[i], raw[i]))
      pending.push_back(i);
  const std::size_t replayed = jobs.size() - pending.size();
  if (replayed > 0)
    std::fprintf(stderr, "[sweep] store: replayed %zu/%zu jobs from %s\n",
                 replayed, jobs.size(), store.c_str());

  const FaultStats fs_before = fault_stats();
  ProgressTracker progress(jobs.size(), replayed);
  std::vector<std::optional<JobError>> job_errors(jobs.size());

  // Guarded fan-out over the misses, each stored once when it succeeds.
  // Each lane writes only its own jobs' raw/error slots (distinct
  // indices), so no synchronization is needed beyond the pool's fork-join
  // barrier. The progress tracker is the only shared mutable state and is
  // internally locked; it reads nothing back into the jobs, so results
  // stay byte-identical with telemetry on or off.
  pool->parallel_for(pending.size(), [&](std::size_t p) {
    const std::size_t i = pending[p];
    const auto t0 = std::chrono::steady_clock::now();
    run_guarded(jobs[i], i, job_keys[i], spec, raw[i], job_errors[i]);
    if (!store.empty() && !job_errors[i].has_value())
      run_cache::store(store, job_keys[i], raw[i]);
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    progress.job_finished(wall_ms, job_errors[i].has_value());
  });
  note_sweep_completed();
  progress.finish();

  report_lane_profiles(*pool, raw, pending);

  SweepResult result;
  for (std::size_t i = 0; i < jobs.size(); ++i)
    if (job_errors[i].has_value())
      result.errors.push_back(std::move(*job_errors[i]));
  report_errors(result.errors);

  // Sweep-level metrics fold, serial and in job-index order so the totals
  // are identical at any thread count. Must happen before the per-point
  // fold below, which moves the RunResults out of `raw`.
  for (const RunResult& r : raw)
    obs::merge_run_metrics(result.metrics, r.metrics);
  if (result.metrics.contains("flight.attempts")) {
    // Recompute the derived ratio from folded counts (merge skipped it).
    const double completed =
        result.metrics.contains("flight.frames_completed")
            ? result.metrics.get("flight.frames_completed")
            : 0.0;
    result.metrics.set("flight.attempts_per_success",
                       completed > 0.0
                           ? result.metrics.get("flight.attempts") / completed
                           : 0.0);
  }
  result.metrics.set_count("sweep.jobs_total", jobs.size());
  result.metrics.set_count("sweep.jobs_replayed", replayed);
  result.metrics.set_count("sweep.jobs_failed", result.errors.size());
  add_run_cache_metrics(result.metrics);
  add_fault_metrics(result.metrics);

  // Sweep-accounting law (mirrors the in-run auditors): the process-wide
  // fault counter must have advanced by exactly one failure per JobError
  // this sweep reports — anything else means a result was double-counted
  // or silently dropped on a retry path.
  if (obs::AuditSet::enabled()) {
    const std::uint64_t failure_delta =
        fault_stats().job_failures - fs_before.job_failures;
    if (failure_delta != result.errors.size()) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "sweep-accounting: exp.fault.job_failures advanced by "
                    "%llu but SweepResult carries %zu JobError(s)",
                    static_cast<unsigned long long>(failure_delta),
                    result.errors.size());
      if (obs::AuditSet::throw_requested()) throw obs::AuditFailure(buf);
      std::fprintf(stderr, "wlan-audit: %s\n", buf);
    }
  }
  result.num_scenarios = spec.scenarios.size();
  result.num_schemes = spec.schemes.size();
  result.num_params = spec.params.empty() ? 1 : spec.params.size();
  result.num_loads = spec.loads.empty() ? 1 : spec.loads.size();
  const std::size_t num_points = result.num_scenarios * result.num_schemes *
                                 result.num_params * result.num_loads;
  result.points.resize(num_points);

  const auto seeds = static_cast<std::size_t>(spec.seeds);
  for (std::size_t point = 0; point < num_points; ++point) {
    SweepPoint& out = result.points[point];
    out.load_index = point % result.num_loads;
    const std::size_t per_param = point / result.num_loads;
    out.param_index = per_param % result.num_params;
    out.scheme_index = (per_param / result.num_params) % result.num_schemes;
    out.scenario_index =
        per_param / (result.num_params * result.num_schemes);
    out.param = spec.params.empty()
                    ? std::numeric_limits<double>::quiet_NaN()
                    : spec.params[out.param_index];
    out.load = spec.loads.empty()
                   ? std::numeric_limits<double>::quiet_NaN()
                   : spec.loads[out.load_index];
    // Jobs for this point are contiguous and in seed order.
    const auto first = raw.begin() + static_cast<std::ptrdiff_t>(point * seeds);
    std::vector<RunResult> runs(
        std::make_move_iterator(first),
        std::make_move_iterator(first + static_cast<std::ptrdiff_t>(seeds)));
    out.averaged = fold_seeds(runs);
    if (spec.keep_runs) out.runs = std::move(runs);
  }
  return result;
}

}  // namespace wlan::exp
