#include "exp/fault.hpp"

#include <fcntl.h>

#ifdef _WIN32
#include <io.h>
#else
#include <unistd.h>
#endif

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "exp/runner.hpp"

namespace wlan::exp {

namespace {

std::atomic<std::uint64_t> g_exceptions{0};
std::atomic<std::uint64_t> g_timeouts{0};
std::atomic<std::uint64_t> g_retries{0};
std::atomic<std::uint64_t> g_failures{0};
std::atomic<std::uint64_t> g_shard_crashes{0};
std::atomic<std::uint64_t> g_shard_respawns{0};
std::atomic<std::uint64_t> g_shard_stall_kills{0};
std::atomic<std::uint64_t> g_jobs_poisoned{0};

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

// ----------------------------------------------- env plan (cross-process)

const char* action_token(FaultPlan::Action a) {
  switch (a) {
    case FaultPlan::Action::kThrow: return "throw";
    case FaultPlan::Action::kTimeout: return "timeout";
    case FaultPlan::Action::kCrash: return "crash";
    case FaultPlan::Action::kHang: return "hang";
  }
  return "?";
}

/// Claims one firing slot for a bounded env site via O_CREAT|O_EXCL marker
/// files in $WLAN_FAULT_DIR — the create-exclusive either succeeds in
/// exactly one process per slot or fails everywhere, which is precisely
/// the "crash once, then the respawn succeeds" semantics the chaos suites
/// need. Without a marker dir the budget degrades to per-process counting.
bool claim_env_slot(FaultPlan::Action action, std::size_t job, int times) {
  const char* dir = std::getenv("WLAN_FAULT_DIR");
  if (dir == nullptr || *dir == '\0') {
    static std::mutex mu;
    static std::vector<std::pair<std::pair<int, std::size_t>, int>> used;
    std::lock_guard<std::mutex> lock(mu);
    const std::pair<int, std::size_t> key{static_cast<int>(action), job};
    for (auto& [k, n] : used)
      if (k == key) return n < times ? (++n, true) : false;
    used.push_back({key, 1});
    return true;
  }
  for (int k = 0; k < times; ++k) {
    char name[96];
    std::snprintf(name, sizeof name, "%s/fault_%s_%zu.%d", dir,
                  action_token(action), job, k);
#ifdef _WIN32
    const int fd = ::_open(name, _O_CREAT | _O_EXCL | _O_WRONLY, 0600);
    if (fd >= 0) return ::_close(fd), true;
#else
    const int fd = ::open(name, O_CREAT | O_EXCL | O_WRONLY, 0600);
    if (fd >= 0) return ::close(fd), true;
#endif
  }
  return false;
}

/// Matches `job` against $WLAN_FAULT_PLAN ("crash@5,hang@7x2,throw@3"),
/// consuming a firing slot when a site matches. Malformed tokens are
/// skipped (the plan is test-only plumbing, not a user knob).
bool consume_env(std::size_t job_index, FaultPlan::Action action) {
  const char* plan = std::getenv("WLAN_FAULT_PLAN");
  if (plan == nullptr || *plan == '\0') return false;
  const std::string text(plan);
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find(',', start);
    if (end == std::string::npos) end = text.size();
    const std::string tok = text.substr(start, end - start);
    start = end + 1;
    const std::size_t at = tok.find('@');
    if (at == std::string::npos) continue;
    if (tok.substr(0, at) != action_token(action)) continue;
    unsigned long long site_job = 0;
    int times = 1;
    const std::string rest = tok.substr(at + 1);
    const std::size_t x = rest.find('x');
    if (x == std::string::npos) {
      if (std::sscanf(rest.c_str(), "%llu", &site_job) != 1) continue;
    } else if (std::sscanf(rest.c_str(), "%llux%d", &site_job, &times) != 2) {
      continue;
    }
    if (site_job != job_index || times < 1) continue;
    if (claim_env_slot(action, job_index, times)) return true;
  }
  return false;
}

[[noreturn]] void inject_crash(std::size_t job_index) {
  std::fprintf(stderr, "[fault] injected crash: job %zu raises SIGSEGV\n",
               job_index);
  std::fflush(nullptr);
  // Restore the default disposition first so sanitizer/handler layers
  // cannot convert the signal into something survivable.
  std::signal(SIGSEGV, SIG_DFL);
  std::raise(SIGSEGV);
  std::abort();  // unreachable; keeps [[noreturn]] honest if raise returns
}

[[noreturn]] void inject_hang(std::size_t job_index) {
  std::fprintf(stderr,
               "[fault] injected hang: job %zu loops forever without "
               "dispatching events\n",
               job_index);
  std::fflush(nullptr);
  // Never dispatches a simulation event, so the in-process watchdog (which
  // only runs between events) cannot fire — only an external supervisor
  // watching the liveness heartbeat can end this process.
  for (;;) std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

}  // namespace

const char* kind_name(JobError::Kind kind) {
  switch (kind) {
    case JobError::Kind::kException: return "exception";
    case JobError::Kind::kTimeout: return "timeout";
    case JobError::Kind::kCrash: return "crash";
  }
  return "?";
}

bool kind_from_name(const std::string& name, JobError::Kind& out) {
  if (name == "exception") return out = JobError::Kind::kException, true;
  if (name == "timeout") return out = JobError::Kind::kTimeout, true;
  if (name == "crash") return out = JobError::Kind::kCrash, true;
  return false;
}

FaultStats fault_stats() {
  FaultStats s;
  s.job_exceptions = g_exceptions.load(std::memory_order_relaxed);
  s.job_timeouts = g_timeouts.load(std::memory_order_relaxed);
  s.job_retries = g_retries.load(std::memory_order_relaxed);
  s.job_failures = g_failures.load(std::memory_order_relaxed);
  s.shard_crashes = g_shard_crashes.load(std::memory_order_relaxed);
  s.shard_respawns = g_shard_respawns.load(std::memory_order_relaxed);
  s.shard_stall_kills = g_shard_stall_kills.load(std::memory_order_relaxed);
  s.jobs_poisoned = g_jobs_poisoned.load(std::memory_order_relaxed);
  return s;
}

void reset_fault_stats() {
  g_exceptions = 0;
  g_timeouts = 0;
  g_retries = 0;
  g_failures = 0;
  g_shard_crashes = 0;
  g_shard_respawns = 0;
  g_shard_stall_kills = 0;
  g_jobs_poisoned = 0;
}

namespace fault_counters {
void add_exception() { g_exceptions.fetch_add(1, std::memory_order_relaxed); }
void add_timeout() { g_timeouts.fetch_add(1, std::memory_order_relaxed); }
void add_retry() { g_retries.fetch_add(1, std::memory_order_relaxed); }
void add_failure() { g_failures.fetch_add(1, std::memory_order_relaxed); }
void add_shard_crash() {
  g_shard_crashes.fetch_add(1, std::memory_order_relaxed);
}
void add_shard_respawn() {
  g_shard_respawns.fetch_add(1, std::memory_order_relaxed);
}
void add_shard_stall_kill() {
  g_shard_stall_kills.fetch_add(1, std::memory_order_relaxed);
}
void add_job_poisoned() {
  g_jobs_poisoned.fetch_add(1, std::memory_order_relaxed);
}
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
  if (armed != nullptr) {
    if (consume(*armed, job_index, FaultPlan::Action::kCrash))
      inject_crash(job_index);
    if (consume(*armed, job_index, FaultPlan::Action::kHang))
      inject_hang(job_index);
    if (consume(*armed, job_index, FaultPlan::Action::kThrow))
      throw std::runtime_error("injected fault: job " +
                               std::to_string(job_index) + " throws");
    if (consume(*armed, job_index, FaultPlan::Action::kTimeout))
      options.max_events = 1;  // the REAL watchdog path converts this
  }
  if (consume_env(job_index, FaultPlan::Action::kCrash))
    inject_crash(job_index);
  if (consume_env(job_index, FaultPlan::Action::kHang))
    inject_hang(job_index);
  if (consume_env(job_index, FaultPlan::Action::kThrow))
    throw std::runtime_error("injected fault: job " +
                             std::to_string(job_index) + " throws");
  if (consume_env(job_index, FaultPlan::Action::kTimeout))
    options.max_events = 1;
}

}  // namespace fault_injection

}  // namespace wlan::exp
