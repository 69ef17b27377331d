#include "obs/trace_export.hpp"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>

#include "obs/flight.hpp"

namespace wlan::obs {

namespace {

void append_common(std::string& out, const TraceRecord& r) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "\"cat\":\"%s\",\"ts\":%.3f,\"pid\":0,\"tid\":%u,"
                "\"args\":{\"a\":%llu,\"b\":%llu}",
                category_name(static_cast<Category>(r.category)),
                static_cast<double>(r.time_ns) / 1e3, r.node,
                static_cast<unsigned long long>(r.a),
                static_cast<unsigned long long>(r.b));
  out += buf;
}

}  // namespace

std::string chrome_trace_json(const std::vector<TraceRecord>& records) {
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  // Name each node's track so perfetto shows "node 3" instead of a bare
  // tid. (Metadata events first; viewers accept them in any order.)
  std::set<std::uint32_t> nodes;
  for (const TraceRecord& r : records) nodes.insert(r.node);
  char buf[160];
  bool first = true;
  for (std::uint32_t n : nodes) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,"
                  "\"tid\":%u,\"args\":{\"name\":\"node %u\"}}",
                  first ? "" : ",\n", n, n);
    out += buf;
    first = false;
  }
  for (const TraceRecord& r : records) {
    out += first ? "{" : ",\n{";
    first = false;
    // Transmissions become async begin/end spans keyed by source node, so
    // overlapping transmissions from different nodes render as overlapping
    // bars; every other record is an instant tick on its node's track.
    const char* ph = r.event == ev::kTxStart   ? "b"
                     : r.event == ev::kTxEnd   ? "e"
                                               : "i";
    std::snprintf(buf, sizeof(buf), "\"name\":\"%s\",\"ph\":\"%s\",",
                  event_name(r.event), ph);
    out += buf;
    if (ph[0] == 'b' || ph[0] == 'e') {
      std::snprintf(buf, sizeof(buf), "\"id\":%u,", r.node);
      out += buf;
    } else {
      out += "\"s\":\"t\",";
    }
    append_common(out, r);
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

bool write_chrome_trace(const std::vector<TraceRecord>& records,
                        const std::string& path) {
  std::ofstream f(path, std::ios::binary);
  if (!f) return false;
  f << chrome_trace_json(records);
  return static_cast<bool>(f);
}

namespace {

// Auto-exported files per process, per kind (trace, flight).
constexpr int kExportLimit = 8;

void maybe_export_flight(SimObs& obs) {
  if (obs.flight == nullptr || obs.flight->export_path.empty()) return;
  const FlightRecorder& fr = *obs.flight;
  if (fr.totals().frames_enqueued == 0 && fr.totals().frames_saturated == 0)
    return;
  static std::atomic<int> g_flight_exports{0};
  const int n = g_flight_exports.fetch_add(1, std::memory_order_relaxed);
  if (n >= kExportLimit) return;
  char suffix[48];
  std::snprintf(suffix, sizeof(suffix), "%d.flight.json", n);
  if (std::ofstream f(fr.export_path + suffix, std::ios::binary); f)
    f << fr.chrome_json();
  std::snprintf(suffix, sizeof(suffix), "%d.flight.csv", n);
  if (std::ofstream f(fr.export_path + suffix, std::ios::binary); f)
    f << fr.frames_csv();
}

}  // namespace

void export_on_destruction(SimObs& obs) {
  maybe_export_flight(obs);
  if (obs.export_path.empty() || obs.trace.size() == 0) return;
  static std::atomic<int> g_exports{0};
  const int n = g_exports.fetch_add(1, std::memory_order_relaxed);
  if (n >= kExportLimit) return;
  char suffix[48];
  std::snprintf(suffix, sizeof(suffix), "%d.trace.json", n);
  write_chrome_trace(obs.trace.snapshot(), obs.export_path + suffix);
}

}  // namespace wlan::obs
