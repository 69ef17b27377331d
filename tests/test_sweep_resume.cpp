// Crash-safety suite for resumable sweeps: run_sweep looks every job up
// in the run cache (WLAN_RUN_CACHE) before it fans out, so a re-run after
// an interruption replays what the first run stored, series included —
// byte-identically at 1 and 4 threads — and a corrupt entry is
// quarantined and recomputed.
// Also covers deterministic fault injection, a failure raised inside the
// dispatch loop, and retry/backoff semantics as each JobError reports them.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "exp/fault.hpp"
#include "exp/run_cache.hpp"
#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "obs/audit.hpp"
#include "par/thread_pool.hpp"
#include "util/fnv.hpp"

namespace {

using namespace wlan;
using exp::FaultPlan;
using exp::JobError;
using exp::ScenarioConfig;
using exp::SchemeConfig;
using exp::SweepResult;
using exp::SweepSpec;
namespace rc = exp::run_cache;

/// Unique per-test store directory, removed on destruction; points
/// WLAN_RUN_CACHE at itself and zeroes the store counters.
struct StoreDirGuard {
  std::filesystem::path dir;
  explicit StoreDirGuard(const char* tag) {
    dir = std::filesystem::temp_directory_path() /
          (std::string("wlan_sweep_resume_") + tag);
    std::filesystem::remove_all(dir);
    ::setenv("WLAN_RUN_CACHE", dir.c_str(), 1);
    rc::reset_stats();
  }
  ~StoreDirGuard() {
    ::unsetenv("WLAN_RUN_CACHE");
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

SweepSpec small_grid() {
  SweepSpec spec;
  spec.scenarios = {ScenarioConfig::connected(3, 1),
                    ScenarioConfig::connected(4, 1)};
  spec.schemes = {SchemeConfig::standard(),
                  SchemeConfig::fixed_p_persistent(0.05)};
  spec.seeds = 2;
  spec.options.warmup = sim::Duration::zero();
  spec.options.measure = sim::Duration::seconds(0.2);
  spec.job_retries = 0;
  spec.job_backoff_ms = 0;
  return spec;
}

/// Content hash over everything a sweep's consumer reads: every folded
/// average and every per-seed scalar, as raw double bits. Two sweeps with
/// equal hashes produced byte-identical output.
std::uint64_t result_hash(const SweepResult& r) {
  util::Fnv1a h;
  h.mix_u64(r.points.size());
  for (const auto& pt : r.points) {
    h.mix_double(pt.averaged.mean_mbps);
    h.mix_double(pt.averaged.min_mbps);
    h.mix_double(pt.averaged.max_mbps);
    h.mix_double(pt.averaged.mean_idle_slots);
    h.mix_double(pt.averaged.mean_delay_s);
    h.mix_double(pt.averaged.mean_drop_rate);
    h.mix_u64(pt.runs.size());
    for (const auto& run : pt.runs) {
      h.mix_double(run.total_mbps);
      h.mix_double(run.ap_avg_idle_slots);
      h.mix_u64(run.successes);
      h.mix_u64(run.failures);
      for (double v : run.per_station_mbps) h.mix_double(v);
    }
  }
  return h.digest();
}

double replayed(const SweepResult& r) {
  return r.metrics.get("sweep.jobs_replayed", -1.0);
}

TEST(SweepResume, CompletedSweepStoresEveryJob) {
  StoreDirGuard guard("complete");
  SweepSpec spec = small_grid();
  par::ThreadPool pool(2);
  const SweepResult r = exp::run_sweep(spec, &pool);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(rc::stats().stores, 8u);  // 2 x 2 x 2 seeds
  EXPECT_EQ(replayed(r), 0.0);

  // Re-running the same sweep replays everything and simulates nothing.
  const SweepResult again = exp::run_sweep(spec, &pool);
  EXPECT_EQ(rc::stats().hits, 8u);
  EXPECT_EQ(rc::stats().stores, 8u);
  EXPECT_EQ(replayed(again), 8.0);
  EXPECT_EQ(result_hash(r), result_hash(again));
}

TEST(SweepResume, InterruptedSweepResumesByteIdentically) {
  // The reference: the same grid run without a store.
  ::unsetenv("WLAN_RUN_CACHE");
  SweepSpec spec = small_grid();
  par::ThreadPool pool(2);
  const std::uint64_t reference = result_hash(exp::run_sweep(spec, &pool));

  StoreDirGuard guard("resume");
  // "Crash" partway: job 5 throws on every attempt, so the first pass
  // completes 7 jobs and stores them — the surviving on-disk state of a
  // killed process (each entry is an independent atomic rename, so a real
  // SIGKILL leaves exactly a prefix-complete subset like this one).
  FaultPlan plan;
  plan.sites.push_back({/*job_index=*/5, /*times=*/1000});
  {
    exp::testing::FaultPlanGuard armed(plan);
    const SweepResult first = exp::run_sweep(spec, &pool);
    ASSERT_EQ(first.errors.size(), 1u);
    EXPECT_EQ(rc::stats().stores, 7u);
  }

  // Resume: 7 jobs replay, only job 5 simulates; output must be
  // byte-identical to the never-interrupted reference.
  rc::reset_stats();
  const SweepResult resumed = exp::run_sweep(spec, &pool);
  EXPECT_TRUE(resumed.ok());
  EXPECT_EQ(rc::stats().hits, 7u);
  EXPECT_EQ(rc::stats().stores, 1u);
  EXPECT_EQ(replayed(resumed), 7.0);
  EXPECT_EQ(result_hash(resumed), reference);
}

TEST(SweepResume, RandomizedKillResumeDifferentialAtBothThreadCounts) {
  // Randomized differential: fail a random subset of jobs on pass 1 (the
  // deterministic stand-in for a mid-sweep kill), resume on pass 2, and
  // require byte-identity with an uninterrupted run — at 1 and 4 lanes.
  ::unsetenv("WLAN_RUN_CACHE");
  SweepSpec spec = small_grid();
  par::ThreadPool serial(1);
  const std::uint64_t reference =
      result_hash(exp::run_sweep(spec, &serial));

  std::mt19937 rng(20260807);
  for (const int threads : {1, 4}) {
    par::ThreadPool pool(threads);
    for (int trial = 0; trial < 3; ++trial) {
      const std::string tag =
          "rand_t" + std::to_string(threads) + "_" + std::to_string(trial);
      StoreDirGuard guard(tag.c_str());
      FaultPlan plan;
      for (std::size_t j = 0; j < 8; ++j)
        if (rng() % 2 == 0)
          plan.sites.push_back({j, 1000});
      {
        exp::testing::FaultPlanGuard armed(plan);
        exp::run_sweep(spec, &pool);
      }
      const SweepResult resumed = exp::run_sweep(spec, &pool);
      EXPECT_TRUE(resumed.ok());
      EXPECT_EQ(replayed(resumed), 8.0 - static_cast<double>(plan.sites.size()))
          << "threads=" << threads << " trial=" << trial;
      EXPECT_EQ(result_hash(resumed), reference)
          << "threads=" << threads << " trial=" << trial;
    }
  }
}

TEST(SweepResume, CorruptEntryIsQuarantinedAndRecomputed) {
  StoreDirGuard guard("corrupt");
  SweepSpec spec = small_grid();
  par::ThreadPool pool(2);
  const std::uint64_t clean_hash = result_hash(exp::run_sweep(spec, &pool));
  EXPECT_EQ(rc::stats().stores, 8u);

  // Flip one byte of job 3's entry on disk — what bit rot or a
  // torn-but-renamed write would leave (the 16-byte header is the epoch
  // word, then the key; offset 12 lies in the key).
  const auto jobs = exp::expand(spec);
  const std::string entry = rc::entry_path(
      rc::directory(),
      rc::key_hash(jobs[3].scenario, jobs[3].scheme, spec.options));
  std::FILE* f = std::fopen(entry.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 12, SEEK_SET), 0);
  const int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  std::fseek(f, 12, SEEK_SET);
  std::fputc(c ^ 0xFF, f);
  std::fclose(f);

  // Resume: the checksum catches the corruption, quarantines the entry,
  // and job 3 recomputes — same bytes out.
  rc::reset_stats();
  const SweepResult resumed = exp::run_sweep(spec, &pool);
  EXPECT_EQ(rc::stats().quarantined, 1u);
  EXPECT_EQ(rc::stats().hits, 7u);
  EXPECT_EQ(rc::stats().stores, 1u);  // only the recomputed job re-stores
  EXPECT_TRUE(resumed.ok());
  EXPECT_EQ(result_hash(resumed), clean_hash);

  // The quarantined bytes survive for inspection.
  bool found = false;
  for (const auto& e :
       std::filesystem::recursive_directory_iterator(guard.dir))
    if (e.path().string().find(".quarantined.") != std::string::npos)
      found = true;
  EXPECT_TRUE(found);
}

/// The bits of every series sample of every run, in point, seed and
/// RunResult series order.
std::vector<std::uint64_t> series_bits(const SweepResult& r) {
  std::vector<std::uint64_t> out;
  for (const auto& pt : r.points)
    for (const auto& run : pt.runs)
      for (const stats::TimeSeries* s :
           {&run.throughput_series, &run.control_series, &run.stage_series,
            &run.active_nodes_series, &run.queue_series, &run.drop_series}) {
        out.push_back(s->size());
        for (const stats::Sample& x : s->samples()) {
          out.push_back(std::bit_cast<std::uint64_t>(x.t_seconds));
          out.push_back(std::bit_cast<std::uint64_t>(x.value));
        }
      }
  return out;
}

/// Every run's sim.*, medium.* and mac.* counters, in point and seed
/// order.
std::vector<std::pair<std::string, double>> run_counters(
    const SweepResult& r) {
  std::vector<std::pair<std::string, double>> out;
  for (const auto& pt : r.points)
    for (const auto& run : pt.runs)
      for (const auto& m : run.metrics.entries())
        for (const char* prefix : {"sim.", "medium.", "mac."})
          if (m.name.rfind(prefix, 0) == 0) out.emplace_back(m.name, m.value);
  return out;
}

TEST(SweepResume, InterruptedSeriesSweepResumesBitForBit) {
  // A sweep that records series stores them like every other field: fail
  // two jobs of a series sweep (the deterministic stand-in for a kill),
  // resume, and require the stored jobs to replay and every series sample
  // and counter to equal an uninterrupted run's — at 1 and 4 lanes.
  ::unsetenv("WLAN_RUN_CACHE");
  SweepSpec spec = small_grid();
  spec.options.record_series = true;
  spec.options.sample_period = sim::Duration::seconds(0.05);
  par::ThreadPool serial(1);
  const SweepResult reference = exp::run_sweep(spec, &serial);
  ASSERT_TRUE(reference.ok());
  ASSERT_FALSE(series_bits(reference).empty());
  ASSERT_FALSE(run_counters(reference).empty());

  for (const int threads : {1, 4}) {
    const std::string tag = "series_t" + std::to_string(threads);
    StoreDirGuard guard(tag.c_str());
    par::ThreadPool pool(threads);
    FaultPlan plan;
    plan.sites.push_back({/*job_index=*/1, /*times=*/1000});
    plan.sites.push_back({/*job_index=*/6, /*times=*/1000});
    {
      exp::testing::FaultPlanGuard armed(plan);
      const SweepResult first = exp::run_sweep(spec, &pool);
      ASSERT_EQ(first.errors.size(), 2u) << tag;
    }
    EXPECT_EQ(rc::stats().stores, 6u) << tag;

    const SweepResult resumed = exp::run_sweep(spec, &pool);
    EXPECT_TRUE(resumed.ok()) << tag;
    EXPECT_EQ(replayed(resumed), 6.0) << tag;
    EXPECT_EQ(rc::stats().hits, 6u) << tag;
    EXPECT_EQ(rc::stats().stores, 8u) << tag;
    EXPECT_EQ(series_bits(resumed), series_bits(reference)) << tag;
    EXPECT_EQ(run_counters(resumed), run_counters(reference)) << tag;
    EXPECT_EQ(result_hash(resumed), result_hash(reference)) << tag;
  }
}

TEST(SweepFault, TransientFailureIsAbsorbedByARetry) {
  ::unsetenv("WLAN_RUN_CACHE");
  SweepSpec spec = small_grid();
  spec.job_retries = 2;
  FaultPlan plan;
  // Job 2 fails twice, then its third attempt succeeds.
  plan.sites.push_back({2, 2});
  par::ThreadPool pool(2);

  par::ThreadPool serial(1);
  const std::uint64_t reference =
      result_hash(exp::run_sweep(spec, &serial));

  exp::testing::FaultPlanGuard armed(plan);
  const SweepResult r = exp::run_sweep(spec, &pool);
  EXPECT_TRUE(r.ok());  // absorbed — no JobError
  EXPECT_EQ(r.metrics.get("sweep.jobs_failed", -1.0), 0.0);
  EXPECT_EQ(result_hash(r), reference);
}

TEST(SweepFault, FailureThatOutlastsTheRetriesReportsEveryAttempt) {
  // The same site with one retry fewer: both attempts throw, so job 2
  // ends in a JobError that counts them.
  ::unsetenv("WLAN_RUN_CACHE");
  SweepSpec spec = small_grid();
  spec.job_retries = 1;
  FaultPlan plan;
  plan.sites.push_back({2, 2});
  par::ThreadPool pool(2);
  exp::testing::FaultPlanGuard armed(plan);
  const SweepResult r = exp::run_sweep(spec, &pool);
  ASSERT_EQ(r.errors.size(), 1u);
  EXPECT_EQ(r.errors[0].job_index, 2u);
  EXPECT_EQ(r.errors[0].attempts, 2);
  EXPECT_NE(r.errors[0].what.find("injected fault: job 2"), std::string::npos)
      << r.errors[0].what;
  EXPECT_EQ(r.metrics.get("sweep.jobs_failed", -1.0), 1.0);
}

TEST(SweepFault, AuditFailureInsideTheDispatchLoopBecomesAJobError) {
  // The sampler's audit check throws from an event callback, so the
  // failure unwinds out of Simulator::run_until with the sampler and the
  // rest of the run's events still pending (under ASan, LeakSanitizer
  // checks that the unwind frees them).
  ::unsetenv("WLAN_RUN_CACHE");
  struct InjectedSkew {
    InjectedSkew() {
      obs::AuditSet::set_override(2);
      obs::audit_testing::set_queue_skew(1);
    }
    ~InjectedSkew() {
      obs::audit_testing::set_queue_skew(0);
      obs::AuditSet::set_override(-1);
    }
  } skew;
  auto scenario = ScenarioConfig::connected(4, 2);
  scenario.traffic = traffic::TrafficConfig::poisson(1.0);
  SweepSpec spec =
      SweepSpec::single(scenario, SchemeConfig::standard(), {}, /*seeds=*/3);
  spec.options.warmup = sim::Duration::seconds(0.1);
  spec.options.measure = sim::Duration::seconds(0.3);
  spec.options.sample_period = sim::Duration::seconds(0.05);
  spec.options.record_series = true;
  spec.job_retries = 1;
  spec.job_backoff_ms = 0;
  par::ThreadPool pool(2);
  const SweepResult r = exp::run_sweep(spec, &pool);
  ASSERT_EQ(r.errors.size(), 3u);
  for (std::size_t j = 0; j < r.errors.size(); ++j) {
    const JobError& e = r.errors[j];
    EXPECT_EQ(e.job_index, j);
    EXPECT_NE(e.what.find("queue-conservation"), std::string::npos) << e.what;
    EXPECT_EQ(e.attempts, spec.job_retries + 1);
  }
  EXPECT_EQ(r.metrics.get("sweep.jobs_failed", -1.0), 3.0);
}

TEST(SweepFault, JobErrorCarriesTheConfigFingerprint) {
  ::unsetenv("WLAN_RUN_CACHE");
  SweepSpec spec = small_grid();
  spec.job_retries = 0;
  const auto jobs = exp::expand(spec);
  FaultPlan plan;
  plan.sites.push_back({4, 1000});
  par::ThreadPool pool(2);
  exp::testing::FaultPlanGuard armed(plan);
  const SweepResult r = exp::run_sweep(spec, &pool);
  ASSERT_EQ(r.errors.size(), 1u);
  EXPECT_EQ(r.errors[0].config_fingerprint,
            exp::run_cache::key_hash(jobs[4].scenario, jobs[4].scheme,
                                     spec.options));
  EXPECT_EQ(r.errors[0].point_index, jobs[4].point_index);
  EXPECT_EQ(r.errors[0].seed_index, jobs[4].seed_index);
}

TEST(SweepFault, RunAveragedThrowsWhenAJobFails) {
  ::unsetenv("WLAN_RUN_CACHE");
  FaultPlan plan;
  plan.sites.push_back({0, 1000});
  exp::testing::FaultPlanGuard armed(plan);
  exp::RunOptions opts;
  opts.warmup = sim::Duration::zero();
  opts.measure = sim::Duration::seconds(0.1);
  // A one-point sweep with the SweepSpec defaults: two retries (100 and
  // 200 ms of backoff), then the JobError that makes throw_if_failed throw.
  const SweepResult r = exp::run_sweep(SweepSpec::single(
      ScenarioConfig::connected(3, 1), SchemeConfig::standard(), opts));
  EXPECT_THROW(r.throw_if_failed(), std::runtime_error);
  ASSERT_EQ(r.errors.size(), 1u);
  EXPECT_EQ(r.errors[0].attempts, 3);
  EXPECT_EQ(r.metrics.get("sweep.jobs_failed", -1.0), 1.0);
}

}  // namespace
