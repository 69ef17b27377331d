#include "exp/fault.hpp"

#include <atomic>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>

namespace wlan::exp {

namespace {

std::atomic<std::uint64_t> g_exceptions{0};
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

}  // namespace

FaultStats fault_stats() {
  FaultStats s;
  s.job_exceptions = g_exceptions.load(std::memory_order_relaxed);
  s.job_retries = g_retries.load(std::memory_order_relaxed);
  s.job_failures = g_failures.load(std::memory_order_relaxed);
  return s;
}

void reset_fault_stats() {
  g_exceptions = 0;
  g_retries = 0;
  g_failures = 0;
}

namespace fault_counters {
void add_exception() { g_exceptions.fetch_add(1, std::memory_order_relaxed); }
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

void apply_before_attempt(std::size_t job_index) {
  const auto armed = armed_plan();
  if (armed == nullptr) return;
  // Consumes one use of the first live site naming the job.
  for (std::size_t s = 0; s < armed->plan->sites.size(); ++s)
    if (armed->plan->sites[s].job_index == job_index &&
        armed->remaining[s].fetch_sub(1, std::memory_order_relaxed) > 0)
      throw std::runtime_error("injected fault: job " +
                               std::to_string(job_index) + " throws");
}

}  // namespace fault_injection

}  // namespace wlan::exp
