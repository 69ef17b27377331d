#include "exp/fault.hpp"

#include <atomic>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "exp/runner.hpp"

namespace wlan::exp {

namespace {

std::atomic<std::uint64_t> g_exceptions{0};
std::atomic<std::uint64_t> g_timeouts{0};
std::atomic<std::uint64_t> g_retries{0};
std::atomic<std::uint64_t> g_failures{0};

/// The installed plan plus per-site remaining-use counters (atomics: sweep
/// lanes consult sites concurrently).
struct ArmedPlan {
  const FaultPlan* plan = nullptr;
  std::vector<std::atomic<int>> remaining;
};

std::mutex g_plan_mutex;
std::shared_ptr<ArmedPlan> g_plan;  // null in production

std::shared_ptr<ArmedPlan> armed_plan() {
  std::lock_guard<std::mutex> lock(g_plan_mutex);
  return g_plan;
}

/// Consumes one use of the first live site matching (job, action).
/// Returns true when a site fired.
bool consume(ArmedPlan& armed, std::size_t job_index,
             FaultPlan::Action action) {
  for (std::size_t s = 0; s < armed.plan->sites.size(); ++s) {
    const FaultPlan::Site& site = armed.plan->sites[s];
    if (site.job_index != job_index || site.action != action) continue;
    if (armed.remaining[s].fetch_sub(1, std::memory_order_relaxed) > 0)
      return true;
  }
  return false;
}

}  // namespace

const char* kind_name(JobError::Kind kind) {
  switch (kind) {
    case JobError::Kind::kException: return "exception";
    case JobError::Kind::kTimeout: return "timeout";
  }
  return "?";
}

FaultStats fault_stats() {
  FaultStats s;
  s.job_exceptions = g_exceptions.load(std::memory_order_relaxed);
  s.job_timeouts = g_timeouts.load(std::memory_order_relaxed);
  s.job_retries = g_retries.load(std::memory_order_relaxed);
  s.job_failures = g_failures.load(std::memory_order_relaxed);
  return s;
}

void reset_fault_stats() {
  g_exceptions = 0;
  g_timeouts = 0;
  g_retries = 0;
  g_failures = 0;
}

namespace fault_counters {
void add_exception() { g_exceptions.fetch_add(1, std::memory_order_relaxed); }
void add_timeout() { g_timeouts.fetch_add(1, std::memory_order_relaxed); }
void add_retry() { g_retries.fetch_add(1, std::memory_order_relaxed); }
void add_failure() { g_failures.fetch_add(1, std::memory_order_relaxed); }
}  // namespace fault_counters

namespace testing {

void set_fault_plan(const FaultPlan* plan) {
  std::lock_guard<std::mutex> lock(g_plan_mutex);
  if (plan == nullptr) {
    g_plan.reset();
    return;
  }
  auto armed = std::make_shared<ArmedPlan>();
  armed->plan = plan;
  armed->remaining = std::vector<std::atomic<int>>(plan->sites.size());
  for (std::size_t s = 0; s < plan->sites.size(); ++s)
    armed->remaining[s].store(plan->sites[s].times,
                              std::memory_order_relaxed);
  g_plan = std::move(armed);
}

}  // namespace testing

namespace fault_injection {

void apply_before_attempt(std::size_t job_index, RunOptions& options) {
  const auto armed = armed_plan();
  if (armed == nullptr) return;
  if (consume(*armed, job_index, FaultPlan::Action::kThrow))
    throw std::runtime_error("injected fault: job " +
                             std::to_string(job_index) + " throws");
  if (consume(*armed, job_index, FaultPlan::Action::kTimeout))
    options.max_events = 1;  // the REAL watchdog path converts this
}

}  // namespace fault_injection

}  // namespace wlan::exp
