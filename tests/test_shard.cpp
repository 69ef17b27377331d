// Chaos/differential suite for the process-isolated sweep shards
// (exp/shard.hpp): multi-process vs in-process byte-identity across a
// threads x processes grid (metrics included), crash containment with
// zero loss of stored jobs, poison-job quarantine after repeated crashes,
// stale-heartbeat SIGKILL recovery for hard hangs, and the spec/tombstone/
// fingerprint plumbing.
//
// Multi-process tests re-exec THIS gtest binary as the shard child
// command (filtered to ShardChildEntry.*), so the whole supervisor path —
// fork/exec, heartbeats, hand-off through the store, merge — runs for
// real, with fault injection delivered through the WLAN_FAULT_PLAN
// environment the children inherit.
#include <gtest/gtest.h>

#ifndef _WIN32
#include <unistd.h>
#endif

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "exp/fault.hpp"
#include "exp/runner.hpp"
#include "exp/shard.hpp"
#include "exp/sweep.hpp"
#include "obs/collect.hpp"
#include "par/thread_pool.hpp"
#include "sim/time.hpp"
#include "util/fnv.hpp"

namespace {

using namespace wlan;
using exp::JobError;
using exp::ScenarioConfig;
using exp::SchemeConfig;
using exp::SweepResult;
using exp::SweepSpec;
namespace shard = exp::shard;

/// The ONE grid every multi-process test supervises. It must be identical
/// in the parent and in the re-executed child (the child recognises the
/// sharded sweep by fingerprint), so keep it a pure function of nothing.
SweepSpec chaos_grid() {
  SweepSpec spec;
  spec.scenarios = {ScenarioConfig::connected(3, 1),
                    ScenarioConfig::hidden(4, 16.0, 2)};
  spec.schemes = {SchemeConfig::standard(),
                  SchemeConfig::fixed_p_persistent(0.05)};
  spec.seeds = 2;  // 2 x 2 x 2 = 8 jobs
  spec.options.warmup = sim::Duration::zero();
  spec.options.measure = sim::Duration::seconds(0.2);
  spec.job_retries = 0;
  spec.job_backoff_ms = 0;
  return spec;
}

std::string self_exe() {
#ifdef _WIN32
  return {};
#else
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return {};
  buf[n] = '\0';
  return buf;
#endif
}

/// Per-test shard environment: a unique store, a fault-marker directory,
/// fast supervisor polling, and this binary (filtered to the child entry
/// test) as the shard child command. Restores everything on destruction.
struct ShardEnvGuard {
  std::filesystem::path store;
  std::filesystem::path fault_dir;
  explicit ShardEnvGuard(const char* tag) {
    const auto tmp = std::filesystem::temp_directory_path();
    store = tmp / (std::string("wlan_shard_store_") + tag);
    fault_dir = tmp / (std::string("wlan_shard_faults_") + tag);
    std::filesystem::remove_all(store);
    std::filesystem::remove_all(fault_dir);
    std::filesystem::create_directories(fault_dir);
    ::setenv("WLAN_RUN_CACHE", store.c_str(), 1);
    ::setenv("WLAN_FAULT_DIR", fault_dir.c_str(), 1);
    ::setenv("WLAN_SHARD_POLL_MS", "25", 1);
    shard::testing::set_child_command(
        {self_exe(), "--gtest_filter=ShardChildEntry.*"});
    exp::reset_fault_stats();
  }
  ~ShardEnvGuard() {
    ::unsetenv("WLAN_RUN_CACHE");
    ::unsetenv("WLAN_FAULT_DIR");
    ::unsetenv("WLAN_FAULT_PLAN");
    ::unsetenv("WLAN_SHARD_POLL_MS");
    ::unsetenv("WLAN_SHARD_STALL_MS");
    ::unsetenv("WLAN_SHARD_CRASH_LIMIT");
    ::unsetenv("WLAN_THREADS");
    shard::testing::set_child_command({});
    std::error_code ec;
    std::filesystem::remove_all(store, ec);
    std::filesystem::remove_all(fault_dir, ec);
  }
};

/// Content hash over everything a sweep's consumer reads (folded averages
/// and per-seed scalars as raw double bits) — equal hashes mean the two
/// sweeps produced byte-identical science output.
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
      h.mix_double(run.mean_attempt_probability);
      h.mix_u64(run.successes);
      h.mix_u64(run.failures);
      for (double v : run.per_station_mbps) h.mix_double(v);
    }
  }
  return h.digest();
}

/// Hash of the sweep-level metric totals that must be mode-independent:
/// everything except the process-cumulative names (cache.*, exp.fault.*,
/// profile.* — those count THIS process's activity, which legitimately
/// differs when the simulating happened in children). Sorted by name so
/// insertion order cannot matter.
std::uint64_t metrics_hash(const obs::MetricsRegistry& reg) {
  std::vector<std::pair<std::string, double>> entries;
  for (const auto& m : reg.entries())
    if (!obs::is_process_cumulative_metric(m.name))
      entries.emplace_back(m.name, m.value);
  std::sort(entries.begin(), entries.end());
  util::Fnv1a h;
  h.mix_u64(entries.size());
  for (const auto& [name, value] : entries) {
    for (char c : name) h.mix_byte(static_cast<unsigned char>(c));
    h.mix_double(value);
  }
  return h.digest();
}

// ---------------------------------------------------------------- plumbing

TEST(Shard, SpecParsingRoundTrip) {
  shard::testing::reset_child_block();
  ::unsetenv("WLAN_SHARD_SPEC");
  EXPECT_EQ(shard::child_block(), nullptr);

  shard::testing::reset_child_block();
  ::setenv("WLAN_SHARD_INDEX", "3", 1);
  shard::configure_child("/tmp/with:colon/sweep_0123456789abcdef:2:7");
  const shard::ChildBlock* b = shard::child_block();
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->dir, "/tmp/with:colon/sweep_0123456789abcdef");
  EXPECT_EQ(b->lo, 2u);
  EXPECT_EQ(b->hi, 7u);
  EXPECT_EQ(b->index, 3);
  ::unsetenv("WLAN_SHARD_INDEX");

  // Malformed specs never install a block.
  shard::testing::reset_child_block();
  shard::configure_child("nocolons");
  EXPECT_EQ(shard::child_block(), nullptr);
  shard::configure_child("/dir:9:2");  // hi < lo
  EXPECT_EQ(shard::child_block(), nullptr);
  shard::testing::reset_child_block();
}

TEST(Shard, PolicyResolvesSpecAndEnvironment) {
  ::unsetenv("WLAN_SWEEP_PROCS");
  ::unsetenv("WLAN_SHARD_CRASH_LIMIT");
  ::unsetenv("WLAN_SHARD_STALL_MS");
  ::unsetenv("WLAN_SHARD_POLL_MS");
  shard::Policy p = shard::resolve_policy(-1, 100);
  EXPECT_EQ(p.processes, 1);
  EXPECT_EQ(p.crash_limit, 3);
  EXPECT_EQ(p.stall_ms, 0);
  EXPECT_EQ(p.poll_ms, 100);
  EXPECT_EQ(p.backoff_ms, 100);

  ::setenv("WLAN_SWEEP_PROCS", "4", 1);
  ::setenv("WLAN_SHARD_CRASH_LIMIT", "2", 1);
  ::setenv("WLAN_SHARD_STALL_MS", "750", 1);
  ::setenv("WLAN_SHARD_POLL_MS", "1", 1);  // clamped up to 10
  p = shard::resolve_policy(-1, 0);
  EXPECT_EQ(p.processes, 4);
  EXPECT_EQ(p.crash_limit, 2);
  EXPECT_EQ(p.stall_ms, 750);
  EXPECT_EQ(p.poll_ms, 10);

  // An explicit spec wins over the environment.
  EXPECT_EQ(shard::resolve_policy(2, 0).processes, 2);

  ::unsetenv("WLAN_SWEEP_PROCS");
  ::unsetenv("WLAN_SHARD_CRASH_LIMIT");
  ::unsetenv("WLAN_SHARD_STALL_MS");
  ::unsetenv("WLAN_SHARD_POLL_MS");
}

TEST(Shard, TombstoneAndPoisonListRoundTrip) {
  const auto dir = std::filesystem::temp_directory_path() / "wlan_shard_tomb";
  std::filesystem::remove_all(dir);

  shard::Tombstone tomb;
  tomb.kind = JobError::Kind::kTimeout;
  tomb.attempts = 3;
  tomb.what = "simulation watchdog: event budget exhausted\nsecond line";
  ASSERT_TRUE(shard::write_tombstone(dir.string(), 7, tomb));

  shard::Tombstone back;
  ASSERT_TRUE(shard::read_tombstone(dir.string(), 7, back));
  EXPECT_EQ(back.kind, JobError::Kind::kTimeout);
  EXPECT_EQ(back.attempts, 3);
  EXPECT_EQ(back.what, tomb.what);
  EXPECT_FALSE(shard::read_tombstone(dir.string(), 8, back));  // absent

  EXPECT_TRUE(shard::read_poison_list(dir.string()).empty());
  EXPECT_TRUE(shard::append_poison(dir.string(), 5));
  EXPECT_TRUE(shard::append_poison(dir.string(), 2));
  EXPECT_TRUE(shard::append_poison(dir.string(), 5));  // dedup
  EXPECT_EQ(shard::read_poison_list(dir.string()),
            (std::vector<std::size_t>{2, 5}));

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(Shard, FingerprintIsSensitiveToJobListAndOrder) {
  const std::uint64_t a = shard::sweep_fingerprint({1, 2, 3});
  EXPECT_EQ(a, shard::sweep_fingerprint({1, 2, 3}));  // stable
  EXPECT_NE(a, shard::sweep_fingerprint({1, 2}));
  EXPECT_NE(a, shard::sweep_fingerprint({3, 2, 1}));
  EXPECT_NE(a, shard::sweep_fingerprint({1, 2, 4}));
  char name[40];
  std::snprintf(name, sizeof name, "sweep_%016llx",
                static_cast<unsigned long long>(a));
  EXPECT_EQ(shard::work_directory("/store", {1, 2, 3}),
            std::string("/store/") + name);
}

TEST(Shard, KindNamesRoundTrip) {
  JobError::Kind k = JobError::Kind::kException;
  EXPECT_TRUE(exp::kind_from_name("crash", k));
  EXPECT_EQ(k, JobError::Kind::kCrash);
  EXPECT_STREQ(exp::kind_name(JobError::Kind::kCrash), "crash");
  EXPECT_TRUE(exp::kind_from_name("timeout", k));
  EXPECT_EQ(k, JobError::Kind::kTimeout);
  EXPECT_TRUE(exp::kind_from_name("exception", k));
  EXPECT_EQ(k, JobError::Kind::kException);
  EXPECT_FALSE(exp::kind_from_name("meteor", k));
}

// ----------------------------------------------------------- child entry

// The re-exec target for every multi-process test below: when the
// supervisor spawned this process, WLAN_SHARD_SPEC names the sweep's work
// directory and job block, and run_sweep's child fast-path executes the
// block and _Exit()s before FAIL() is reached. Run directly (no spec),
// it skips.
TEST(ShardChildEntry, ExecutesAssignedBlock) {
  const char* spec = std::getenv("WLAN_SHARD_SPEC");
  if (spec == nullptr || *spec == '\0')
    GTEST_SKIP() << "not a supervisor-spawned shard child";
  exp::run_sweep(chaos_grid());
  FAIL() << "the shard child fast-path should have exited the process";
}

#ifndef _WIN32

// ------------------------------------------------- differential equality

TEST(Shard, MultiProcessMatchesInProcessByteIdenticallyAcrossGrid) {
  // Reference: plain in-process run, no store, no shards.
  ::unsetenv("WLAN_RUN_CACHE");
  const SweepSpec spec = chaos_grid();
  par::ThreadPool ref_pool(2);
  const SweepResult reference = exp::run_sweep(spec, &ref_pool);
  ASSERT_TRUE(reference.ok());
  const std::uint64_t ref_hash = result_hash(reference);
  const std::uint64_t ref_metrics = metrics_hash(reference.metrics);

  for (int threads : {1, 4}) {
    for (int procs : {1, 2, 4}) {
      const std::string tag =
          "eq_t" + std::to_string(threads) + "_p" + std::to_string(procs);
      ShardEnvGuard guard(tag.c_str());
      // Children size their pools from WLAN_THREADS; the parent pool gets
      // the same lane count so procs=1 exercises the identical partition.
      ::setenv("WLAN_THREADS", std::to_string(threads).c_str(), 1);
      SweepSpec run = chaos_grid();
      run.processes = procs;
      par::ThreadPool pool(threads);
      const SweepResult got = exp::run_sweep(run, &pool);
      EXPECT_TRUE(got.ok()) << tag;
      EXPECT_EQ(result_hash(got), ref_hash) << tag;
      EXPECT_EQ(metrics_hash(got.metrics), ref_metrics) << tag;
      EXPECT_EQ(got.metrics.get("sweep.jobs_total", -1.0), 8.0) << tag;
      EXPECT_EQ(got.metrics.get("sweep.jobs_failed", -1.0), 0.0) << tag;
    }
  }
}

// ------------------------------------------------------ crash containment

TEST(Shard, CrashedShardIsRespawnedWithZeroJournaledJobLoss) {
  ::unsetenv("WLAN_RUN_CACHE");
  const SweepSpec spec = chaos_grid();
  par::ThreadPool pool(2);
  const SweepResult reference = exp::run_sweep(spec, &pool);

  ShardEnvGuard guard("crash");
  // Job 2 SIGSEGVs its shard exactly once (the WLAN_FAULT_DIR marker makes
  // the budget cross-process: the respawned shard's attempt runs clean).
  ::setenv("WLAN_FAULT_PLAN", "crash@2x1", 1);
  SweepSpec run = chaos_grid();
  run.processes = 2;
  const SweepResult got = exp::run_sweep(run, &pool);

  EXPECT_TRUE(got.ok());  // the crash was contained AND retried
  EXPECT_EQ(result_hash(got), result_hash(reference));
  const auto fs = exp::fault_stats();
  EXPECT_GE(fs.shard_crashes, 1u);
  EXPECT_GE(fs.shard_respawns, 1u);
  EXPECT_EQ(fs.jobs_poisoned, 0u);

  // Zero loss of stored jobs: every completed job survived the SIGSEGV on
  // disk, so a fresh in-process resume replays all 8 and folds the exact
  // same bytes without simulating anything.
  ::unsetenv("WLAN_FAULT_PLAN");
  const SweepResult resumed = exp::run_sweep(chaos_grid(), &pool);
  EXPECT_EQ(resumed.metrics.get("sweep.jobs_replayed", -1.0), 8.0);
  EXPECT_EQ(result_hash(resumed), result_hash(reference));
}

// ---------------------------------------------------------- poison jobs

TEST(Shard, PoisonJobIsQuarantinedAfterRepeatedShardCrashes) {
  ::unsetenv("WLAN_RUN_CACHE");
  const SweepSpec spec = chaos_grid();
  par::ThreadPool pool(2);
  const SweepResult reference = exp::run_sweep(spec, &pool);

  ShardEnvGuard guard("poison");
  // Job 0 kills its shard on EVERY attempt; after two consecutive crashes
  // blamed on it, the supervisor must quarantine it and move on.
  ::setenv("WLAN_FAULT_PLAN", "crash@0x99", 1);
  ::setenv("WLAN_SHARD_CRASH_LIMIT", "2", 1);
  SweepSpec run = chaos_grid();
  run.processes = 2;
  const SweepResult got = exp::run_sweep(run, &pool);

  ASSERT_EQ(got.errors.size(), 1u);
  EXPECT_EQ(got.errors[0].job_index, 0u);
  EXPECT_EQ(got.errors[0].kind, JobError::Kind::kCrash);
  EXPECT_EQ(exp::fault_stats().jobs_poisoned, 1u);
  EXPECT_EQ(got.metrics.get("sweep.jobs_failed", -1.0), 1.0);

  // Every OTHER job folded exactly as the undisturbed run; the poisoned
  // seed folded as deterministic zeros into its point (seed 0 of point 0).
  ASSERT_EQ(got.points.size(), reference.points.size());
  ASSERT_EQ(got.points[0].runs.size(), 2u);
  EXPECT_EQ(got.points[0].runs[0].total_mbps, 0.0);
  EXPECT_EQ(got.points[0].runs[1].total_mbps,
            reference.points[0].runs[1].total_mbps);
  for (std::size_t i = 1; i < got.points.size(); ++i)
    EXPECT_EQ(got.points[i].averaged.mean_mbps,
              reference.points[i].averaged.mean_mbps)
        << "point " << i;
}

// ------------------------------------------------- stale-heartbeat kills

TEST(Shard, HungShardIsStallKilledAndRecovered) {
  ::unsetenv("WLAN_RUN_CACHE");
  const SweepSpec spec = chaos_grid();
  par::ThreadPool pool(2);
  const SweepResult reference = exp::run_sweep(spec, &pool);

  ShardEnvGuard guard("hang");
  // Job 5 spins forever without dispatching a single event — invisible to
  // the in-process event watchdog, but its shard's heartbeat freezes and
  // the supervisor must SIGKILL it; the respawn's attempt runs clean.
  ::setenv("WLAN_FAULT_PLAN", "hang@5x1", 1);
  ::setenv("WLAN_SHARD_STALL_MS", "600", 1);
  ::setenv("WLAN_THREADS", "2", 1);
  SweepSpec run = chaos_grid();
  run.processes = 2;
  const SweepResult got = exp::run_sweep(run, &pool);

  EXPECT_TRUE(got.ok());
  EXPECT_EQ(result_hash(got), result_hash(reference));
  const auto fs = exp::fault_stats();
  EXPECT_GE(fs.shard_stall_kills, 1u);
  EXPECT_GE(fs.shard_crashes, 1u);  // the SIGKILL is reaped as a crash
  EXPECT_EQ(fs.jobs_poisoned, 0u);
}

// ------------------------------------------------------- scratch store

TEST(Shard, WithoutAStoreChildrenReportThroughAScratchStore) {
  const SweepSpec spec = chaos_grid();
  par::ThreadPool pool(2);
  ShardEnvGuard guard("scratch");
  ::unsetenv("WLAN_RUN_CACHE");
  const SweepResult reference = exp::run_sweep(spec, &pool);

  // No WLAN_RUN_CACHE: the supervisor hands its children an
  // invocation-scoped scratch store and leaves its own environment alone.
  SweepSpec run = chaos_grid();
  run.processes = 2;
  const SweepResult got = exp::run_sweep(run, &pool);
  EXPECT_TRUE(got.ok());
  EXPECT_EQ(result_hash(got), result_hash(reference));
  EXPECT_EQ(metrics_hash(got.metrics), metrics_hash(reference.metrics));
  EXPECT_EQ(std::getenv("WLAN_RUN_CACHE"), nullptr);
}

#endif  // !_WIN32

}  // namespace
