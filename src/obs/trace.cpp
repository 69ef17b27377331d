#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <iterator>

#include "obs/flight.hpp"
#include "util/env.hpp"

namespace wlan::obs {

namespace {

// -1 = follow WLAN_TRACE, 0/1 = forced (tests; see set_trace_override).
std::atomic<int> g_trace_override{-1};

// -1 = follow WLAN_FLIGHT, 0/1 = forced (tests; see set_flight_override).
std::atomic<int> g_flight_override{-1};

// Forced-on tracing keeps a deliberately small ring: the TSan sweep test
// turns it on for every simulator a sweep constructs.
constexpr std::size_t kOverrideCapacity = 1u << 14;

// Environment-built rings: 262,144 records (8 MiB at most, grown on
// demand).
constexpr std::size_t kEnvCapacity = 1u << 18;

const char* kCategoryNames[kNumCategories] = {
    "sim", "medium", "mark", "station", "cohort", "traffic", "other",
};

const char* kEventNames[ev::kNumEvents] = {
    "dispatch",       // kDispatch
    "tx_start",       // kTxStart
    "tx_end",         // kTxEnd
    "deliver",        // kDeliver
    "mark_corrupt",   // kMarkCorrupt
    "state",          // kStateChange
    "enroll",         // kEnroll
    "cohort_formed",  // kCohortFormed
    "cohort_merge",   // kCohortMerge
    "cohort_decide",  // kCohortDecision
    "withdraw",       // kWithdraw
    "arrival",        // kArrival
    "drop",           // kDrop
    "contention",     // kContention
    "attempt",        // kAttempt
    "timeout",        // kTimeout
    "ack",            // kAck
};

struct EnvConfig {
  bool trace = false;
  std::uint32_t mask = kAllCategories;
  std::string export_path;  // non-empty when WLAN_TRACE names a path prefix
  bool profile = false;
  bool flight = false;
  std::string flight_export;  // non-empty when WLAN_FLIGHT names a prefix
};

// Read once per process: every Simulator construction consults this, and
// the knobs are process-lifetime configuration, not per-run state.
const EnvConfig& env_config() {
  static const EnvConfig cfg = [] {
    EnvConfig c;
    // WLAN_TRACE / WLAN_FLIGHT: a boolean spelling switches the recorder;
    // any other non-empty value switches it on and names the export prefix.
    if (const char* t = std::getenv("WLAN_TRACE"); t != nullptr && *t != '\0') {
      const auto on = util::parse_bool(t);
      c.trace = on.value_or(true);
      if (!on) c.export_path = t;
    }
    if (const char* s = std::getenv("WLAN_TRACE_CATEGORIES");
        s != nullptr && *s != '\0') {
      const auto mask = parse_categories(s);
      if (!mask)
        util::reject_env("WLAN_TRACE_CATEGORIES", s,
                         "a comma list of sim, medium, mark, station, "
                         "cohort, traffic, other or all");
      c.mask = *mask;
    }
    c.profile = util::env_bool("WLAN_PROFILE", false);
    if (const char* f = std::getenv("WLAN_FLIGHT"); f != nullptr && *f != '\0') {
      const auto on = util::parse_bool(f);
      c.flight = on.value_or(true);
      if (!on) c.flight_export = f;
    }
    return c;
  }();
  return cfg;
}

}  // namespace

const char* category_name(Category c) {
  const unsigned i = static_cast<unsigned>(c);
  return i < kNumCategories ? kCategoryNames[i] : "?";
}

const char* event_name(std::uint16_t event) {
  return event < ev::kNumEvents ? kEventNames[event] : "?";
}

std::optional<std::uint32_t> parse_categories(const std::string& spec) {
  if (spec.empty()) return kAllCategories;
  std::uint32_t mask = 0;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string name = spec.substr(pos, comma - pos);
    if (name == "all") {
      mask = kAllCategories;
    } else {
      const auto* it = std::find(std::begin(kCategoryNames),
                                 std::end(kCategoryNames), name);
      if (it == std::end(kCategoryNames)) return std::nullopt;
      mask |= category_bit(
          static_cast<Category>(it - std::begin(kCategoryNames)));
    }
    pos = comma + 1;
  }
  return mask;
}

std::unique_ptr<SimObs> SimObs::from_env() {
  const int forced = g_trace_override.load(std::memory_order_relaxed);
  const int flight_forced = g_flight_override.load(std::memory_order_relaxed);
  const EnvConfig& cfg = env_config();
  const bool flight_on = flight_forced == 1    ? true
                         : flight_forced == 0 ? false
                                              : cfg.flight;
  std::unique_ptr<SimObs> obs;
  if (forced == 1) {
    obs = std::make_unique<SimObs>(kAllCategories, kOverrideCapacity);
  } else {
    const bool trace_on = forced == 0 ? false : cfg.trace;
    if (!trace_on && !cfg.profile && !flight_on) return nullptr;
    obs = std::make_unique<SimObs>(trace_on ? cfg.mask : 0u, kEnvCapacity);
    if (trace_on) obs->export_path = cfg.export_path;
    if (cfg.profile) obs->profiler.enable();
  }
  if (flight_on) {
    obs->flight = std::make_unique<FlightRecorder>();
    // Overrides stay in-memory: only the env path opts into auto-export.
    if (flight_forced == -1) obs->flight->export_path = cfg.flight_export;
  }
  return obs;
}

SimObs::SimObs(std::uint32_t mask, std::size_t capacity)
    : mask(mask), trace(capacity) {}

SimObs::~SimObs() = default;

void SimObs::record(const TraceRecord& r) {
  if (wants(static_cast<Category>(r.category))) trace.push(r);
  if (flight != nullptr) flight->consume(r);
}

void SimObs::set_trace_override(int value) {
  g_trace_override.store(value < 0 ? -1 : (value != 0 ? 1 : 0),
                         std::memory_order_relaxed);
}

void SimObs::set_flight_override(int value) {
  g_flight_override.store(value < 0 ? -1 : (value != 0 ? 1 : 0),
                          std::memory_order_relaxed);
}

bool SimObs::profile_enabled_by_env() { return env_config().profile; }

}  // namespace wlan::obs
