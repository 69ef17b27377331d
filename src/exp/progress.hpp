// Live sweep telemetry: a thread-safe progress tracker run_sweep feeds as
// jobs complete, with two opt-in sinks —
//   * WLAN_PROGRESS      stderr ticker. TTY-aware: on a terminal it
//                        redraws one \r status line a few times a second;
//                        piped to a file it logs a full line every few
//                        seconds instead of megabytes of \r frames.
//   * WLAN_PROGRESS_JSON heartbeat file (flat JSON, written tmp+rename so
//                        readers never see a torn write) that
//                        bench/run_all.sh aggregates into a live
//                        results/status.json across drivers.
//
// Everything here is wall-clock telemetry about the HARNESS, not the
// simulation: nothing feeds back into a run, so simulation output is
// byte-identical with tracking on, off, or disabled at compile time.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>

namespace wlan::exp {

class ProgressTracker {
 public:
  /// A sweep of `total` jobs, `replayed` of which were filled from the
  /// store before the fan-out (they count as done immediately).
  ProgressTracker(std::size_t total, std::size_t replayed);

  /// One job finished (worker thread). `wall_ms` is the guarded-run wall
  /// time including retries; `failed` marks a job that exhausted them.
  /// Rate-limits and emits the enabled sinks internally.
  void job_finished(double wall_ms, bool failed);

  /// Final emission: completes the ticker line and writes the last
  /// heartbeat (which therefore always reflects the finished sweep).
  void finish();

  static constexpr std::size_t kWallBuckets = 8;

  struct Snapshot {
    std::size_t total = 0;
    std::size_t done = 0;    // includes replayed
    std::size_t failed = 0;
    std::size_t replayed = 0;
    double elapsed_s = 0.0;
    /// Decaying (EWMA) completion rate; 0 until the first job lands.
    double rate_jobs_per_s = 0.0;
    /// remaining / rate; 0 when done or rate unknown.
    double eta_s = 0.0;
    /// Per-job wall-time histogram, log2 buckets: [0,2), [2,4), [4,8) ...
    /// ms; the last bucket is open-ended.
    std::array<std::uint64_t, kWallBuckets> wall_hist_ms{};
  };

  Snapshot snapshot() const;

  /// The heartbeat document for `snap` plus process-cumulative run-cache /
  /// fault-injection counters and the finished-sweep count. Exposed for
  /// tests; the JSON sink writes exactly this.
  static std::string heartbeat_json(const Snapshot& snap);

  /// Sink gating, latched once per process: WLAN_PROGRESS truthy enables
  /// the ticker (empty or falsy leaves it off, anything else exits 2),
  /// WLAN_PROGRESS_JSON names the heartbeat path.
  static bool ticker_enabled();
  static const std::string& heartbeat_path();

 private:
  void emit_locked(bool final_tick);
  Snapshot snapshot_locked() const;

  mutable std::mutex mu_;
  std::size_t total_;
  std::size_t done_;
  std::size_t failed_ = 0;
  std::size_t replayed_;
  std::array<std::uint64_t, kWallBuckets> wall_hist_ms_{};
  double start_s_;      // steady-clock seconds at construction
  double last_done_s_;  // steady-clock seconds of the previous completion
  double rate_ = 0.0;   // EWMA jobs/s
  double last_emit_s_ = -1e9;
  bool ticker_dirty_ = false;  // a \r line is on screen, needs a final \n
};

/// Count of run_sweep calls that finished in this process (the heartbeat
/// reports it so an aggregator can tell "idle between sweeps" from "new
/// sweep").
std::uint64_t sweeps_completed();
void note_sweep_completed();

}  // namespace wlan::exp
