// FaultPlan is a TEST-ONLY deterministic fault injector for run_sweep's
// job guard: the kill/resume differential suites install a plan naming job
// indices that must throw, so the retry and error paths are exercised
// bit-reproducibly. Production code never installs a plan; the check is
// one locked pointer read per job attempt.
#pragma once

#include <cstddef>
#include <vector>

namespace wlan::exp {

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
