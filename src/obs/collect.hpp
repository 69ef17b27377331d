// Collectors: one call flattens every per-component Stats struct a
// finished run holds into a MetricsRegistry. This is the only obs/ header
// that looks DOWN the dependency stack (at mac::Network); the traced
// components themselves only ever see obs/trace.hpp.
#pragma once

#include <string>

#include "obs/metrics.hpp"
#include "obs/profile.hpp"

namespace wlan::mac {
class Network;
}

namespace wlan::obs {

class FlightRecorder;

/// Snapshot of a finished run's counters: sim.* (executive + event heap),
/// medium.*, mac.cohort.* (cohort path only) and traffic.* (finite-source
/// runs only). Deterministic for a deterministic run — these are exactly
/// the counters wlanbench hashes and CounterGolden pins.
MetricsRegistry collect_metrics(mac::Network& net);

/// Appends per-category profiler buckets (profile.<cat>.events /
/// profile.<cat>.wall_ns). Wall times are machine-dependent: they are for
/// humans, not for drift comparison.
void add_profile_metrics(MetricsRegistry& reg, const PhaseProfiler& p);

/// Appends flight-recorder span aggregates (flight.*): frame counts by
/// outcome, attempts-per-success, and the contention-vs-air-vs-queue
/// latency split over completed frames. Deterministic for a deterministic
/// run, like collect_metrics.
void add_flight_metrics(MetricsRegistry& reg, const FlightRecorder& fr);

/// True for metric names that are not one run's deterministic counts: the
/// wall-clock profile.* buckets that ride per-run registries, and the
/// process-wide cache.* / exp.fault.* snapshots run_sweep appends to its
/// sweep-level registry. Summing them per job would double-count, so the
/// sweep-level fold and the store writer skip them.
bool is_process_cumulative_metric(const std::string& name);

/// Folds one run's registry into a sweep-level registry: per-run names are
/// summed in call order, process-cumulative names are skipped. Calling
/// this per job index in ascending order yields the same totals at any
/// thread count (exact: counter sums are integer-valued doubles).
void merge_run_metrics(MetricsRegistry& into, const MetricsRegistry& run);

/// When WLAN_METRICS=<dir> is set, writes `reg` to
/// `<dir>/metrics.<n>.json` (n = process-wide counter). No-op otherwise.
void maybe_export_metrics(const MetricsRegistry& reg);

}  // namespace wlan::obs
