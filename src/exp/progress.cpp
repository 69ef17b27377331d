#include "exp/progress.hpp"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "exp/fault.hpp"
#include "exp/run_cache.hpp"
#include "util/env.hpp"

namespace wlan::exp {

namespace {

double steady_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

// Sink config, latched once per process like the other obs/exp env knobs.
struct SinkConfig {
  bool ticker = false;
  bool tty = false;
  std::string json_path;
};

const SinkConfig& sink_config() {
  static const SinkConfig cfg = [] {
    SinkConfig c;
    c.ticker = util::env_bool("WLAN_PROGRESS", false);
    c.tty = isatty(fileno(stderr)) != 0;
    if (const char* v = std::getenv("WLAN_PROGRESS_JSON");
        v != nullptr && *v != '\0')
      c.json_path = v;
    return c;
  }();
  return cfg;
}

std::atomic<std::uint64_t> g_sweeps_completed{0};

}  // namespace

std::uint64_t sweeps_completed() {
  return g_sweeps_completed.load(std::memory_order_relaxed);
}

void note_sweep_completed() {
  g_sweeps_completed.fetch_add(1, std::memory_order_relaxed);
}

bool ProgressTracker::ticker_enabled() { return sink_config().ticker; }

const std::string& ProgressTracker::heartbeat_path() {
  return sink_config().json_path;
}

ProgressTracker::ProgressTracker(std::size_t total, std::size_t replayed)
    : total_(total),
      done_(replayed),
      replayed_(replayed),
      start_s_(steady_seconds()),
      last_done_s_(start_s_) {}

void ProgressTracker::job_finished(double wall_ms, bool failed) {
  std::lock_guard<std::mutex> lock(mu_);
  ++done_;
  if (failed) ++failed_;

  std::size_t bucket = 0;
  for (double edge = 2.0; bucket + 1 < kWallBuckets && wall_ms >= edge;
       edge *= 2.0)
    ++bucket;
  ++wall_hist_ms_[bucket];

  // EWMA over inter-completion gaps: stale history decays fast enough to
  // track a sweep whose late points are 10x slower than its early ones.
  const double now_s = steady_seconds();
  const double dt = now_s - last_done_s_ < 1e-6 ? 1e-6 : now_s - last_done_s_;
  last_done_s_ = now_s;
  rate_ = rate_ <= 0.0 ? 1.0 / dt : 0.8 * rate_ + 0.2 * (1.0 / dt);

  emit_locked(/*final_tick=*/false);
}

ProgressTracker::Snapshot ProgressTracker::snapshot_locked() const {
  Snapshot s;
  s.total = total_;
  s.done = done_;
  s.failed = failed_;
  s.replayed = replayed_;
  s.elapsed_s = steady_seconds() - start_s_;
  s.rate_jobs_per_s = rate_;
  const std::size_t remaining = total_ > done_ ? total_ - done_ : 0;
  s.eta_s = (remaining > 0 && rate_ > 0.0)
                ? static_cast<double>(remaining) / rate_
                : 0.0;
  s.wall_hist_ms = wall_hist_ms_;
  return s;
}

ProgressTracker::Snapshot ProgressTracker::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_locked();
}

std::string ProgressTracker::heartbeat_json(const Snapshot& snap) {
  const run_cache::Stats cs = run_cache::stats();
  const FaultStats fs = fault_stats();
  std::string out = "{";
  char buf[96];
  const auto field = [&](const char* key, double v, bool integral) {
    if (out.size() > 1) out += ", ";
    if (integral)
      std::snprintf(buf, sizeof(buf), "\"%s\": %lld", key,
                    static_cast<long long>(v));
    else
      std::snprintf(buf, sizeof(buf), "\"%s\": %.6g", key, v);
    out += buf;
  };
  field("total", static_cast<double>(snap.total), true);
  field("done", static_cast<double>(snap.done), true);
  field("failed", static_cast<double>(snap.failed), true);
  field("replayed", static_cast<double>(snap.replayed), true);
  field("retries", static_cast<double>(fs.job_retries), true);
  field("elapsed_seconds", snap.elapsed_s, false);
  field("rate_jobs_per_s", snap.rate_jobs_per_s, false);
  field("eta_seconds", snap.eta_s, false);
  field("cache_hits", static_cast<double>(cs.hits), true);
  field("cache_misses", static_cast<double>(cs.misses), true);
  field("sweeps_completed", static_cast<double>(sweeps_completed()), true);
  out += ", \"wall_hist_ms\": [";
  for (std::size_t i = 0; i < snap.wall_hist_ms.size(); ++i) {
    if (i > 0) out += ", ";
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(snap.wall_hist_ms[i]));
    out += buf;
  }
  out += "]}";
  return out;
}

void ProgressTracker::emit_locked(bool final_tick) {
  const SinkConfig& cfg = sink_config();
  if (!cfg.ticker && cfg.json_path.empty()) return;

  // Rate limit both sinks together: a terminal gets a smooth redraw, a log
  // file / heartbeat reader gets a line every few seconds.
  const double now_s = steady_seconds();
  const double interval = cfg.tty ? 0.1 : 5.0;
  if (!final_tick && now_s - last_emit_s_ < interval) return;
  last_emit_s_ = now_s;

  const Snapshot s = snapshot_locked();
  if (cfg.ticker) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "[sweep] %zu/%zu jobs (%zu failed, %zu replayed) "
                  "%.1f jobs/s eta %.0fs",
                  s.done, s.total, s.failed, s.replayed, s.rate_jobs_per_s,
                  s.eta_s);
    if (cfg.tty) {
      std::fprintf(stderr, "\r\x1b[2K%s", line);
      ticker_dirty_ = true;
      if (final_tick) {
        std::fputc('\n', stderr);
        ticker_dirty_ = false;
      }
    } else {
      std::fprintf(stderr, "%s\n", line);
    }
    std::fflush(stderr);
  }

  if (!cfg.json_path.empty()) {
    // tmp + rename: the aggregator polling this path never sees a torn
    // document, only the previous or the new complete one.
    const std::string tmp = cfg.json_path + ".tmp";
    if (std::FILE* f = std::fopen(tmp.c_str(), "w")) {
      const std::string doc = heartbeat_json(s);
      std::fwrite(doc.data(), 1, doc.size(), f);
      std::fputc('\n', f);
      std::fclose(f);
      std::rename(tmp.c_str(), cfg.json_path.c_str());
    }
  }
}

void ProgressTracker::finish() {
  std::lock_guard<std::mutex> lock(mu_);
  emit_locked(/*final_tick=*/true);
  if (ticker_dirty_) {
    std::fputc('\n', stderr);
    std::fflush(stderr);
    ticker_dirty_ = false;
  }
}

}  // namespace wlan::exp
