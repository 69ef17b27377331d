// Fault-tolerance vocabulary for the experiment layer.
//
// JobError is the structured record run_sweep's job guard produces when a
// sweep job fails for good: an exception or watchdog timeout that survived
// every retry, or — in multi-process mode — a poison job the shard
// supervisor quarantined after it crashed its shard repeatedly. It
// replaces the pre-PR-8 behaviour (the thread pool's lowest-lane rethrow
// aborting the whole sweep) — a 10'000-job grid with one sick point now
// finishes 9'999 jobs and reports the sick one.
//
// FaultStats are the process-wide exp.fault.* counters surfaced through
// the obs metrics registry (obs::add_fault_metrics), following the same
// cumulative pattern as run_cache::stats().
//
// FaultPlan is a TEST-ONLY deterministic fault injector: the kill/resume
// differential suites install a plan naming job indices that must throw,
// exceed their watchdog, crash the whole process, or hang forever — so
// crash/recovery paths are exercised bit-reproducibly without real
// signals. Production code never installs a plan; the check is one
// relaxed atomic load per job attempt. Because a programmatic plan cannot
// cross an exec boundary, the same sites can be armed via the environment
// (WLAN_FAULT_PLAN, parsed per process) with an optional WLAN_FAULT_DIR
// marker directory giving the `times` budget cross-process semantics —
// that is how the shard chaos suites make exactly one child crash and its
// respawn succeed.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace wlan::exp {

struct RunOptions;

/// One sweep job's terminal failure, reported instead of aborting.
struct JobError {
  /// Index into the expanded job list (expand(spec) order).
  std::size_t job_index = 0;
  /// The grid point and seed-axis position the job belonged to.
  std::size_t point_index = 0;
  int seed_index = 0;
  /// run_cache::key_hash of the job's fully bound (scenario, scheme,
  /// options) — names the exact configuration that failed.
  std::uint64_t config_fingerprint = 0;
  /// what() of the last attempt's exception (or the supervisor's verdict
  /// for kCrash).
  std::string what;
  /// kCrash marks a poison job quarantined by the shard supervisor: it
  /// killed (or hung) its child process repeatedly instead of throwing.
  enum class Kind { kException, kTimeout, kCrash } kind = Kind::kException;
  /// Total attempts made (1 + retries); for kCrash, the shard crashes the
  /// job was blamed for.
  int attempts = 0;
};

/// Stable lowercase name for a JobError kind ("exception" / "timeout" /
/// "crash") — used by reports and the shard tombstone files.
const char* kind_name(JobError::Kind kind);
/// Inverse of kind_name; false when `name` is not a known kind.
bool kind_from_name(const std::string& name, JobError::Kind& out);

/// Process-wide fault counters (exp.fault.* in the metrics registry).
struct FaultStats {
  std::uint64_t job_exceptions = 0;   // attempts that threw (non-timeout)
  std::uint64_t job_timeouts = 0;     // attempts that hit a watchdog
  std::uint64_t job_retries = 0;      // re-attempts after a failure
  std::uint64_t job_failures = 0;     // jobs abandoned (JobError emitted)
  std::uint64_t shard_crashes = 0;    // child shard processes that died
  std::uint64_t shard_respawns = 0;   // crashed shards spawned again
  std::uint64_t shard_stall_kills = 0; // shards SIGKILLed for stale heartbeats
  std::uint64_t jobs_poisoned = 0;    // jobs quarantined as poison (kCrash)
};
FaultStats fault_stats();
void reset_fault_stats();

/// Internal: counter bumps used by the sweep engine and the shards.
namespace fault_counters {
void add_exception();
void add_timeout();
void add_retry();
void add_failure();
void add_shard_crash();
void add_shard_respawn();
void add_shard_stall_kill();
void add_job_poisoned();
}  // namespace fault_counters

// --- Deterministic fault injection (TEST ONLY) ----------------------------

struct FaultPlan {
  enum class Action {
    kThrow,    // the job attempt throws before simulating
    kTimeout,  // the attempt runs with a 1-event watchdog budget
    kCrash,    // the attempt raises SIGSEGV (whole process dies)
    kHang,     // the attempt loops forever, dispatching nothing —
               // invisible to the in-process event watchdog
  };
  struct Site {
    std::size_t job_index = 0;
    Action action = Action::kThrow;
    /// How many attempts of this job are affected before the site is
    /// spent; `times` < retries+1 models a transient failure that a retry
    /// absorbs.
    int times = 1;
  };
  std::vector<Site> sites;
};

namespace testing {

/// Installs `plan` (borrowed; must outlive the sweeps it arms) or clears
/// it with nullptr. Not safe to swap while a sweep is in flight.
void set_fault_plan(const FaultPlan* plan);

/// RAII installer for test scopes.
struct FaultPlanGuard {
  explicit FaultPlanGuard(const FaultPlan& plan) { set_fault_plan(&plan); }
  ~FaultPlanGuard() { set_fault_plan(nullptr); }
  FaultPlanGuard(const FaultPlanGuard&) = delete;
  FaultPlanGuard& operator=(const FaultPlanGuard&) = delete;
};

}  // namespace testing

namespace fault_injection {

/// Applied by the job guard before each attempt: may throw (kThrow),
/// shrink the watchdog budget (kTimeout), raise SIGSEGV (kCrash), or never
/// return (kHang) per the installed plan. Besides the programmatic plan it
/// honours $WLAN_FAULT_PLAN — a comma list of `<action>@<job>[x<times>]`
/// sites (action ∈ throw|timeout|crash|hang) parsed in THIS
/// process, so supervisor-spawned children inherit the chaos schedule
/// through their environment. A bounded `times` needs $WLAN_FAULT_DIR (a
/// shared marker directory) to count firings across processes; without it
/// the budget is tracked per process. No-op — one relaxed load — when no
/// plan is installed and the env is unset.
void apply_before_attempt(std::size_t job_index, RunOptions& options);

}  // namespace fault_injection

}  // namespace wlan::exp
