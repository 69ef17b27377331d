// Result store: memoizes run_sweep jobs on disk, keyed by a content hash
// of everything that determines the (bit-exact) outcome — the full
// ScenarioConfig (topology, PHY, traffic, seed, and the population
// schedule when it has steps), SchemeConfig (scheme kind + every
// controller option), and the RunOptions' warmup and measure windows.
// run_sweep is its only client: it looks every job up before it fans out
// and stores each freshly simulated job, so an interrupted sweep resumes
// from the entries it already stored. run_scenario never reads or writes
// it.
//
// Purpose: re-running a driver (or `bench/run_all.sh`) replays what an
// earlier run stored, and the few points several drivers share are
// simulated once: the connected and hidden r = 16 adaptive points of
// fig01, fig03, fig06 and table3, and the N = 20 points of ext_robustness
// and ext_rtscts_tradeoff. Since simulation output is deterministic and
// bit-identical across thread counts, a stored result is
// indistinguishable from a fresh run.
//
// Enabling: set WLAN_RUN_CACHE to a directory (created on demand).
// Unset/empty disables the store (the default — a store must be opted
// into because it can serve stale results across *code* changes that
// alter simulation behaviour). bench/run_all.sh opts in with an
// invocation-scoped directory under results/, wiped at startup unless
// WLAN_RUN_CACHE_KEEP asks for cross-invocation reuse, so a rebuilt
// binary never reads a previous build's physics.
//
// Sweeps that record time series (RunOptions::record_series) bypass the
// store: series are deliberately not serialized (they dwarf the scalar
// results and only the dynamic/series drivers want them).
//
// Each entry carries the run's per-run counters (RunResult::metrics minus
// the process-cumulative names, see obs::is_process_cumulative_metric),
// so a hit folds into SweepResult::metrics exactly like a fresh run.
//
// Storage: one little-endian binary file per key, written to a temp name
// and atomically renamed — concurrent drivers (run_all.sh runs many) may
// race on the same point and both compute it, but readers only ever see
// complete files. Every entry ends in an FNV-1a checksum over the payload
// bytes; a file that exists but fails the checksum (bit rot, a torn write
// surviving a crash, a foreign format) is QUARANTINED — renamed aside with
// a .quarantined suffix so it can be inspected but never read again — and
// the point is recomputed. Plain malformed/mis-keyed files read as misses.
//
// key_hash() enumerates every config field by hand; run_cache.cpp
// static_asserts the member count of every struct it reads, so a new
// field breaks the build until it is hashed (bump kFormatVersion if
// RunResult serialization changes shape).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/runner.hpp"

namespace wlan::exp::run_cache {

/// Bumped whenever the serialized RunResult layout or the key schema
/// changes; readers reject other versions as misses.
/// v2: FNV-1a content-checksum footer appended to every entry.
/// v3: metrics section (count + name/value pairs) after the delay
///     histogram.
/// v4: every entry fills the metrics section with the run's per-run
///     counters (v3 cache entries left it empty). The version is mixed
///     into key_hash, so counter-free v3 entries are never looked up.
inline constexpr std::uint32_t kFormatVersion = 4;

/// The cache directory from $WLAN_RUN_CACHE; empty = disabled. Re-read on
/// every call so tests (and long-lived tools) can retarget it.
std::string directory();

/// Content hash of a run's full identity (FNV-1a over a canonical field
/// serialization of the scenario, the scheme, and the options' warmup and
/// measure windows). An empty population schedule adds nothing, so a
/// static run's key is the one it had before schedules were keyed.
std::uint64_t key_hash(const ScenarioConfig& scenario,
                       const SchemeConfig& scheme, const RunOptions& options);

/// Reads the cached result for `key` from `dir`. False (and `out`
/// untouched) when absent or unreadable; a checksum-failing entry is
/// quarantined (renamed aside) before reporting the miss.
bool lookup(const std::string& dir, std::uint64_t key, RunResult& out);

/// Writes `result` for `key` under `dir` (created on demand), atomically,
/// with its per-run counters. Returns false when the write failed (the
/// run still succeeds — caching is best-effort).
bool store(const std::string& dir, std::uint64_t key,
           const RunResult& result);

/// The entry file that holds `key` under `dir`.
std::string entry_path(const std::string& dir, std::uint64_t key);

// --- Entry format ----------------------------------------------------------

/// Serializes (key, result) into the versioned entry byte stream:
/// magic+version header, key, scalar fields, sparse delay histogram, the
/// metrics section (result.metrics minus the process-cumulative names),
/// and a trailing FNV-1a checksum over everything before it.
std::vector<unsigned char> serialize_entry(std::uint64_t key,
                                           const RunResult& result);

/// Parse outcomes for an entry.
enum class EntryStatus {
  kOk,       // parsed, checksum verified, key matched
  kMissing,  // no file at the path
  kCorrupt,  // file exists but fails checksum/structure/key validation
};

/// Parses a serialize_entry buffer; kOk only when the checksum verifies,
/// the header/version/key match, the payload parses completely, and the
/// delay histogram passes stats::DelayHistogram::restore's validation.
EntryStatus deserialize_entry(const std::vector<unsigned char>& buf,
                              std::uint64_t key, RunResult& out);

/// Process-wide counters (exposed for tests and driver summaries).
struct Stats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stores = 0;
  std::uint64_t store_failures = 0;
  /// Checksum-failing cache entries renamed aside and recomputed.
  std::uint64_t quarantined = 0;
};
Stats stats();
void reset_stats();

}  // namespace wlan::exp::run_cache
