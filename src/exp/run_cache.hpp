// Result store: memoizes run_sweep jobs on disk, keyed by a content hash
// of everything that determines the (bit-exact) outcome: the source epoch
// of the build, the full ScenarioConfig (topology, PHY, traffic, seed and
// population schedule), SchemeConfig (scheme kind + every controller
// option) and every RunOptions field. run_sweep is its only client: it
// looks every job up before it fans out and stores each freshly simulated
// job, so an interrupted sweep resumes from the entries it already
// stored. run_scenario never reads or writes it.
//
// Purpose: re-running a driver (or `bench/run_all.sh`) replays what an
// earlier run stored, and the few points several drivers share are
// simulated once: the connected and hidden r = 16 adaptive points of
// fig01, fig03, fig06 and table3, and the N = 20 points of ext_robustness
// and ext_rtscts_tradeoff. Since simulation output is deterministic and
// bit-identical across thread counts, a stored result is
// indistinguishable from a fresh run.
//
// Source epoch: the build hashes every file under src/, CMakeLists.txt
// and the compiler id and version into kSourceEpoch
// (cmake/source_epoch.cmake). The epoch is mixed into every key and heads
// every entry, so an entry that other sources built is never read: a
// rebuilt simulator misses instead of serving stale physics. run_sweep
// files each epoch's entries in a directory of their own (directory()),
// so the entries a build cannot read sit apart: bench/run_all.sh deletes
// every other epoch's directory under its default store before it starts
// the drivers.
//
// Enabling: set WLAN_RUN_CACHE to a directory (created on demand).
// Unset/empty disables the store. bench/run_all.sh points it at
// results/run_cache and keeps it across invocations.
//
// Each entry carries the whole RunResult, time series and per-run
// counters included (RunResult::metrics minus the wall-clock profile.*
// buckets, see obs::is_wall_clock_metric), so a hit reads and folds into
// SweepResult::metrics exactly like the fresh run.
//
// Storage: one little-endian binary file per key, written to a temp name
// and atomically renamed — concurrent drivers (run_all.sh runs many) may
// race on the same point and both compute it, but readers only ever see
// complete files. Every entry ends in an FNV-1a checksum over the payload
// bytes; a file that exists but fails the checksum (bit rot, a torn write
// surviving a crash, a foreign format) is QUARANTINED — renamed aside with
// a .quarantined suffix so it can be inspected but never read again — and
// the point is recomputed. An entry that names another epoch or key is
// treated the same way.
//
// key_hash() enumerates every config field by hand, and serialize_entry()
// every RunResult field; run_cache.cpp static_asserts the member count of
// every struct they read, so a new field breaks the build until it is
// hashed or stored.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/runner.hpp"

namespace wlan::exp::run_cache {

/// The source epoch this build was compiled from (kSourceEpoch): mixed
/// into every key and written at the head of every entry.
std::uint64_t source_epoch();

/// This build's entry directory, $WLAN_RUN_CACHE/<source epoch as 16
/// lowercase hex digits>; empty when WLAN_RUN_CACHE is unset or empty
/// (store disabled). Re-read on every call so tests (and long-lived tools)
/// can retarget it.
std::string directory();

/// Content hash of a run's full identity (FNV-1a over the source epoch
/// and a canonical field serialization of the scenario, the scheme and
/// the options).
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

/// Serializes (key, result) into the entry byte stream: the source epoch,
/// the key, the scalar fields, the sparse delay histogram, the metrics
/// section (result.metrics minus the wall-clock names), the
/// series section (each series as a count and raw (t, value) pairs), and
/// a trailing FNV-1a checksum over everything before it.
std::vector<unsigned char> serialize_entry(std::uint64_t key,
                                           const RunResult& result);

/// Parse outcomes for an entry.
enum class EntryStatus {
  kOk,       // parsed, checksum verified, key matched
  kMissing,  // no file at the path
  kCorrupt,  // file exists but fails checksum/structure/key validation
};

/// Parses a serialize_entry buffer; kOk only when the checksum verifies,
/// the epoch and key match, the payload parses completely, and the
/// delay histogram passes stats::DelayHistogram::restore's validation.
EntryStatus deserialize_entry(const std::vector<unsigned char>& buf,
                              std::uint64_t key, RunResult& out);

/// The store's own process-wide counters: tests read them, and every
/// bench driver logs the hits and misses as it exits.
struct Stats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stores = 0;
  /// Checksum-failing cache entries renamed aside and recomputed.
  std::uint64_t quarantined = 0;
};
Stats stats();
void reset_stats();

}  // namespace wlan::exp::run_cache
