// Chrome trace-event JSON export: load the file at https://ui.perfetto.dev
// (or chrome://tracing) and every node gets a track — transmissions render
// as async spans, everything else as instant events. Timestamps are the
// records' SIMULATED microseconds; wall time never appears.
#pragma once

#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace wlan::obs {

/// The trace as a Chrome trace-event JSON document.
std::string chrome_trace_json(const std::vector<TraceRecord>& records);

/// Writes chrome_trace_json to `path`. Returns false on I/O failure.
bool write_chrome_trace(const std::vector<TraceRecord>& records,
                        const std::string& path);

/// Destructor-time auto-export used by sim::Simulator: writes the bundle's
/// surviving records to `<obs.export_path><n>.trace.json` (empty
/// export_path or an empty ring exports nothing). A process-wide counter
/// caps the number of files at 8, so tracing a 10k-run sweep does not
/// write 10k files. When the bundle carries a flight recorder with its own
/// export prefix (WLAN_FLIGHT=<prefix>), the per-frame span trees are
/// written alongside as `<prefix><n>.flight.json` (Chrome trace-event
/// format, one async track per frame) and `<prefix><n>.flight.csv` (one
/// row per completed frame), capped at 8 on their own counter.
void export_on_destruction(SimObs& obs);

}  // namespace wlan::obs
