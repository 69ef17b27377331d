#include "obs/collect.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "mac/network.hpp"
#include "obs/flight.hpp"

namespace wlan::obs {

MetricsRegistry collect_metrics(mac::Network& net) {
  MetricsRegistry reg;

  const sim::Simulator& sim = net.simulator();
  reg.set_count("sim.events_executed", sim.events_executed());
  const sim::EventQueue::Stats qs = net.simulator().queue_stats();
  reg.set_count("sim.queue.scheduled", qs.scheduled);
  reg.set_count("sim.queue.fired", qs.fired);
  reg.set_count("sim.queue.cancelled", qs.cancelled);
  reg.set_count("sim.queue.stale_skipped", qs.stale_skipped);
  reg.set_count("sim.queue.heap_callbacks", qs.heap_callbacks);
  reg.set_count("sim.queue.cold_compares", qs.cold_compares);

  const phy::Medium& medium = net.medium();
  reg.set_count("medium.nodes", medium.num_nodes());
  reg.set_count("medium.tx_started", medium.transmissions_started());
  reg.set_count("medium.corrupt_deliveries", medium.corrupt_deliveries());
  reg.set_count("medium.pairs_scanned", medium.marking_pairs_scanned());
  reg.set_count("medium.interference_checks", medium.interference_checks());

  const mac::ContentionArbiter::Stats& as = net.contention_arbiter().stats();
  reg.set_count("mac.cohort.enrollments", as.enrollments);
  reg.set_count("mac.cohort.cohorts_formed", as.cohorts_formed);
  reg.set_count("mac.cohort.entry_merges", as.entry_merges);
  reg.set_count("mac.cohort.decisions_fired", as.decisions_fired);
  reg.set_count("mac.cohort.withdrawals", as.withdrawals);

  if (net.traffic_enabled()) {
    std::uint64_t arrivals = 0, drops = 0;
    for (int i = 0; i < net.num_stations(); ++i) {
      arrivals += net.traffic_source(i).arrivals();
      drops += net.traffic_source(i).drops();
    }
    reg.set_count("traffic.arrivals", arrivals);
    reg.set_count("traffic.drops", drops);
  }

  return reg;
}

void add_profile_metrics(MetricsRegistry& reg, const PhaseProfiler& p) {
  for (unsigned i = 0; i < kNumCategories; ++i) {
    const Category c = static_cast<Category>(i);
    if (p.events(c) == 0) continue;
    const std::string base = std::string("profile.") + category_name(c);
    reg.set_count(base + ".events", p.events(c));
    reg.set_count(base + ".wall_ns", static_cast<std::uint64_t>(p.wall_ns(c)));
  }
}

void add_flight_metrics(MetricsRegistry& reg, const FlightRecorder& fr) {
  const FlightTotals& t = fr.totals();
  reg.set_count("flight.frames_enqueued", t.frames_enqueued);
  reg.set_count("flight.frames_saturated", t.frames_saturated);
  reg.set_count("flight.frames_completed", t.frames_completed);
  reg.set_count("flight.frames_dropped", t.frames_dropped);
  reg.set_count("flight.attempts", t.attempts);
  reg.set_count("flight.timeouts", t.timeouts);
  reg.set_count("flight.verdicts_corrupt", t.verdicts_corrupt);
  reg.set_count("flight.slots_waited", t.slots_waited);
  reg.set_count("flight.air_ns", static_cast<std::uint64_t>(t.air_ns));
  reg.set_count("flight.contention_ns",
                static_cast<std::uint64_t>(t.contention_ns));
  reg.set_count("flight.queue_ns", static_cast<std::uint64_t>(t.queue_ns));
  reg.set("flight.attempts_per_success", fr.attempts_per_success());
}

bool is_process_cumulative_metric(const std::string& name) {
  return name.rfind("cache.", 0) == 0 || name.rfind("exp.fault.", 0) == 0 ||
         name.rfind("profile.", 0) == 0;
}

void merge_run_metrics(MetricsRegistry& into, const MetricsRegistry& run) {
  for (const auto& [name, value] : run.entries()) {
    if (is_process_cumulative_metric(name)) continue;
    // Derived ratio, not a count: summing it is meaningless. The sweep
    // fold recomputes it from the folded flight.* counts.
    if (name == "flight.attempts_per_success") continue;
    into.set(name, (into.contains(name) ? into.get(name) : 0.0) + value);
  }
}

void maybe_export_metrics(const MetricsRegistry& reg) {
  static const char* dir = std::getenv("WLAN_METRICS");
  if (dir == nullptr || *dir == '\0') return;
  static std::atomic<int> g_files{0};
  char name[64];
  std::snprintf(name, sizeof(name), "/metrics.%d.json",
                g_files.fetch_add(1, std::memory_order_relaxed));
  write_metrics_file(reg, std::string(dir) + name);
}

}  // namespace wlan::obs
