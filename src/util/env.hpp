// Environment-variable knobs that scale bench effort without recompiling.
//
// WLAN_BENCH_SECONDS — simulated seconds per data point (default varies per
//                      bench; this multiplies the default).
// WLAN_BENCH_SEEDS   — number of independent seeds averaged per point.
// WLAN_BENCH_FAST    — if set truthy, benches shrink sweeps for smoke runs.
// WLAN_THREADS       — lanes in the global par::ThreadPool used by
//                      exp::run_sweep / run_averaged (0/unset = hardware
//                      concurrency). A `--threads N` CLI flag wins over it.
//
// Malformed values are rejected loudly: a set-but-unparsable knob (e.g.
// WLAN_THREADS=abc) prints a one-line error to stderr and exits the
// process with status 2 — silently falling back to a default would make a
// typo indistinguishable from the default run it silently became. The
// parse_* helpers expose the underlying (non-exiting) parsers for tests.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace wlan::util {

/// Parses a complete base-10 floating-point literal; nullopt on malformed
/// or trailing garbage ("1.5x").
std::optional<double> parse_double(const std::string& text);

/// Parses a complete base-10 integer literal; nullopt on malformed input,
/// trailing garbage ("7seeds"), or out-of-range values.
std::optional<std::int64_t> parse_int(const std::string& text);

/// Parses a boolean: "1"/"true"/"yes"/"on" => true,
/// "0"/"false"/"no"/"off" => false (case-sensitive, matching the
/// documented knob spellings); nullopt otherwise.
std::optional<bool> parse_bool(const std::string& text);

/// Prints "error: environment variable NAME='RAW' is not EXPECTED" to
/// stderr and ends the process with status 2. Ends it with std::_Exit, so
/// no exit handler runs: a knob first read on a pool lane must not wait
/// for the global pool's destructor to join that same lane.
[[noreturn]] void reject_env(const std::string& name, const char* raw,
                             const char* expected);

/// Reads a double env var; returns `fallback` when unset or empty.
/// Exits(2) with a one-line error when set but unparsable.
double env_double(const std::string& name, double fallback);

/// Reads an integer env var; returns `fallback` when unset or empty.
/// Exits(2) with a one-line error when set but unparsable.
std::int64_t env_int(const std::string& name, std::int64_t fallback);

/// Reads a boolean env var; returns `fallback` when unset or empty.
/// Exits(2) with a one-line error when set but unparsable.
bool env_bool(const std::string& name, bool fallback);

/// Multiplier applied to bench simulated durations (WLAN_BENCH_SECONDS
/// interpreted as a scale factor; default 1.0).
double bench_time_scale();

/// Number of seeds benches average over (WLAN_BENCH_SEEDS, default given by
/// the bench).
int bench_seeds(int fallback);

/// True when WLAN_BENCH_FAST requests a reduced smoke-test sweep.
bool bench_fast();

/// Requested parallelism (WLAN_THREADS); 0 when unset or non-positive,
/// meaning "auto" (par::ThreadPool falls back to hardware concurrency).
int env_threads();

}  // namespace wlan::util
