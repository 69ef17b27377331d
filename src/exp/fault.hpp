// Fault-tolerance vocabulary for the experiment layer.
//
// JobError is the structured record run_sweep's job guard produces when a
// sweep job fails for good: an exception that survived every retry. It
// replaces the thread pool's lowest-lane rethrow aborting the whole sweep
// — a 10'000-job grid with one sick point finishes 9'999 jobs and reports
// the sick one.
//
// FaultStats are the process-wide exp.fault.* counters run_sweep appends
// to its sweep-level metrics registry, following the same cumulative
// pattern as run_cache::stats().
//
// FaultPlan is a TEST-ONLY deterministic fault injector: the kill/resume
// differential suites install a plan naming job indices that must throw,
// so the retry and error paths are exercised bit-reproducibly. Production
// code never installs a plan; the check is one locked pointer read per
// job attempt.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace wlan::exp {

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
  /// what() of the last attempt's exception.
  std::string what;
  /// Total attempts made (1 + retries).
  int attempts = 0;
};

/// Process-wide fault counters (exp.fault.* in the metrics registry).
struct FaultStats {
  std::uint64_t job_exceptions = 0;   // attempts that threw
  std::uint64_t job_retries = 0;      // re-attempts after a failure
  std::uint64_t job_failures = 0;     // jobs abandoned (JobError emitted)
};
FaultStats fault_stats();
void reset_fault_stats();

/// Internal: counter bumps used by the sweep engine.
namespace fault_counters {
void add_exception();
void add_retry();
void add_failure();
}  // namespace fault_counters

// --- Deterministic fault injection (TEST ONLY) ----------------------------

struct FaultPlan {
  /// The job's attempts throw before simulating.
  struct Site {
    std::size_t job_index = 0;
    /// How many attempts of this job throw before the site is spent;
    /// `times` < retries+1 models a transient failure that a retry
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

/// Applied by the job guard before each attempt: throws when a live site
/// of the installed plan names `job_index`. No-op when no plan is
/// installed.
void apply_before_attempt(std::size_t job_index);

}  // namespace fault_injection

}  // namespace wlan::exp
