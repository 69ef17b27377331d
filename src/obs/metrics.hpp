// MetricsRegistry: every counter the substrate already keeps — event-heap
// churn, medium scans/marks, cohort lifecycle, run-cache hits, traffic
// drops — flattened into one ordered name→value snapshot with an exact
// JSON round-trip. exp::runner fills one per run (RunResult::metrics),
// wlanbench hashes the deterministic subset into its seed-1 check,
// the CounterGolden tests pin it for four short runs, and
// WLAN_METRICS=<dir> dumps one file per run for ad-hoc inspection.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace wlan::obs {

struct Metric {
  std::string name;
  double value = 0.0;

  bool operator==(const Metric&) const = default;
};

/// Insertion-ordered flat registry. Counter names are dotted paths
/// ("sim.queue.fired", "medium.pairs_scanned") so exports group naturally.
class MetricsRegistry {
 public:
  /// Inserts, or overwrites in place (insertion order is preserved).
  void set(const std::string& name, double value);
  void set_count(const std::string& name, std::uint64_t value) {
    set(name, static_cast<double>(value));
  }

  bool contains(const std::string& name) const;
  double get(const std::string& name, double fallback = 0.0) const;

  const std::vector<Metric>& entries() const { return entries_; }
  bool empty() const { return entries_.empty(); }

  bool operator==(const MetricsRegistry&) const = default;

  /// One JSON object, one "name": value pair per line. Integral values
  /// print as integers, the rest as %.17g — either way parse_json gives
  /// back bit-equal doubles (the round-trip the acceptance test checks).
  std::string to_json() const;

  /// Parses to_json output (tolerant of whitespace). Returns false on
  /// malformed input, leaving `out` empty.
  static bool parse_json(const std::string& json, MetricsRegistry& out);

 private:
  std::vector<Metric> entries_;
};

/// Writes reg.to_json() to `path`. Returns false on I/O failure.
bool write_metrics_file(const MetricsRegistry& reg, const std::string& path);

/// Reads and parses a metrics file. Returns false on I/O or parse failure.
bool read_metrics_file(const std::string& path, MetricsRegistry& out);

}  // namespace wlan::obs
