// Process-isolated sweep shards: the crash-containing supervisor behind
// exp::run_sweep's multi-process mode (WLAN_SWEEP_PROCS / SweepSpec::
// processes).
//
// The in-process job guard (exp/fault.hpp) contains exceptions and
// watchdog timeouts, but a job that SEGFAULTs takes the whole process —
// and every sibling lane's half-finished work — with it, and a job that
// hangs without dispatching events is invisible to the event-loop
// watchdog. The supervisor closes both gaps by making the OS process the
// containment boundary:
//
//   * The expanded job grid is partitioned into contiguous index blocks,
//     one per shard, and each shard is a CHILD PROCESS (a re-exec of the
//     driver itself, told its block through a hidden --wlan-shard=
//     <work_dir>:<lo>:<hi> flag plus the WLAN_SHARD_SPEC environment).
//     The child recognises its sweep by fingerprint inside run_sweep,
//     executes its block with the normal in-process pool, stores each
//     completed job in the run cache (exp/run_cache.hpp: atomic
//     temp+rename with a checksum footer — the store IS the IPC
//     substrate; no pipes, no shared memory), and _Exit()s.
//
//   * Every sweep gets a work directory <store>/sweep_<fingerprint>/ that
//     holds only supervision state: tombstones, the poison list,
//     heartbeats and logs. Results live in the store itself, keyed by
//     run_cache::key_hash like every other entry.
//
//   * The supervisor watches exit codes and per-shard HEARTBEAT files.
//     A heartbeat freezes exactly when its process stops making progress
//     (it is fed by util::progress_tick(), bumped every few thousand
//     simulation events, plus a per-job completion count), so a stale
//     heartbeat separates "slow" from "hung" and the supervisor SIGKILLs
//     the child — catching the hard hangs the in-process watchdog cannot.
//
//   * A crashed or killed shard is respawned with exponential backoff; it
//     skips the jobs its block already stored and resumes at the first
//     unfinished one. A POISON job — one that kills its shard
//     `crash_limit` times in a row — is quarantined into the work
//     directory's poison list; the respawned shard skips it and the
//     parent folds it as a JobError{kind=kCrash} with deterministic
//     zeros, exactly like an exhausted in-process retry.
//
//   * The parent never simulates during supervision: when every shard is
//     done it looks the jobs up in the store in job-index order, so the
//     folded result is byte-identical to processes=1 at any thread count.
//
// Everything here is POSIX (fork/execve/waitpid/kill); on _WIN32 the
// policy resolves to processes=1 and run_sweep stays in-process.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "exp/fault.hpp"

namespace wlan::exp {
class ProgressTracker;
}

namespace wlan::exp::shard {

// --- Child-side plumbing ---------------------------------------------------

/// The block assignment a supervisor-spawned child carries: the sweep's
/// work directory (absolute; its basename is the sweep_%016llx
/// fingerprint that names the sweep, its parent is the store) and the
/// half-open job range [lo, hi) it owns.
struct ChildBlock {
  std::string dir;
  std::size_t lo = 0;
  std::size_t hi = 0;
  int index = 0;  // shard index, for heartbeat/log file names
};

/// The current process's shard assignment, latched from WLAN_SHARD_SPEC
/// ("<dir>:<lo>:<hi>", parsed from the right so the dir may contain ':')
/// and WLAN_SHARD_INDEX on first call — or from configure_child(). Null
/// when this process is not a shard child.
const ChildBlock* child_block();

/// Installs the shard assignment from a --wlan-shard flag value (same
/// "<dir>:<lo>:<hi>" syntax). bench::init calls this so every driver
/// gets shard mode for free; the environment transport makes it work
/// even for executables that never parse flags. No-op on empty/
/// malformed specs.
void configure_child(const std::string& spec);

/// Records the process's argv (bench::init) so the supervisor can re-exec
/// the same driver invocation for its children. Without a capture the
/// supervisor falls back to /proc/self/exe with no arguments.
void capture_argv(int argc, const char* const* argv);

// --- Supervisor policy -----------------------------------------------------

struct Policy {
  /// Shard process count; 1 = in-process (no supervisor).
  int processes = 1;
  /// Consecutive crashes blamed on the same job before it is poisoned.
  int crash_limit = 3;
  /// Heartbeat staleness that triggers a SIGKILL, in ms; 0 disables
  /// stall detection (crashes are still contained).
  std::int64_t stall_ms = 0;
  /// Supervisor poll / child heartbeat period in ms.
  std::int64_t poll_ms = 100;
  /// Base respawn backoff in ms (doubles per consecutive crash, 30 s cap).
  int backoff_ms = 100;
};

/// Resolves the supervisor policy: `spec_processes` >= 1 wins, else
/// $WLAN_SWEEP_PROCS (default 1), clamped to [1, 256]. crash_limit from
/// $WLAN_SHARD_CRASH_LIMIT (default 3, min 1), stall_ms from
/// $WLAN_SHARD_STALL_MS (default 0 = disabled), poll_ms from
/// $WLAN_SHARD_POLL_MS (default 100, clamped to [10, 10000]), backoff
/// from `spec_backoff_ms`. On _WIN32, processes is forced to 1.
Policy resolve_policy(int spec_processes, int spec_backoff_ms);

// --- Supervision -----------------------------------------------------------

struct SuperviseOutcome {
  /// Job indices quarantined as poison, ascending.
  std::vector<std::size_t> poisoned;
  std::uint64_t crashes = 0;      // child exits other than clean success
  std::uint64_t respawns = 0;     // re-spawns after a crash
  std::uint64_t stall_kills = 0;  // SIGKILLs for stale heartbeats
};

/// Fingerprint of a fully expanded job list: FNV-1a over the entry format
/// version, the job count, and each job's run_cache key hash in job order.
/// A child re-executes its whole driver; this is how it finds the one
/// sweep it was spawned for.
std::uint64_t sweep_fingerprint(const std::vector<std::uint64_t>& job_keys);

/// The work directory `<store>/sweep_<fingerprint>` of the sweep whose
/// jobs are keyed by `job_keys`.
std::string work_directory(const std::string& store,
                           const std::vector<std::uint64_t>& job_keys);

/// Runs the shard fleet over the jobs keyed by `job_keys` until every job
/// is resolved: it has a store entry (the store is the parent of
/// `work_dir`), a tombstone, or is poisoned. Blocks that are already
/// resolved are never spawned. Each child's environment names the store
/// through WLAN_RUN_CACHE, absolute, with WLAN_RUN_CACHE_MAX_MB dropped so
/// no child prunes its siblings' results before the parent reads them.
/// Feeds `progress` (nullable) with aggregate completion counts from the
/// heartbeats. Blocks until the fleet drains; the caller then looks the
/// jobs up for the final fold.
SuperviseOutcome supervise(const std::string& work_dir,
                           const std::vector<std::uint64_t>& job_keys,
                           const Policy& policy, ProgressTracker* progress);

/// An invocation-scoped store for supervised sweeps when WLAN_RUN_CACHE is
/// unset: created under the system temp directory and removed at parent
/// exit. The parent only hands it to its children (supervise sets their
/// WLAN_RUN_CACHE); its own environment is left alone. Returns the same
/// path on repeat calls; empty on failure (supervision then falls back to
/// in-process execution).
std::string scratch_store();

// --- Heartbeats (child side) -----------------------------------------------

/// RAII heartbeat writer: a background thread that rewrites
/// `<dir>/shard_<index>.hb` (atomic temp+rename) whenever the pair
/// (jobs done, util::progress_ticks()) has changed since the last beat —
/// so the file's CONTENT freezes exactly when the process stops making
/// progress, and the supervisor's stall detector never needs cross-
/// process clock agreement.
class Heartbeat {
 public:
  Heartbeat(const std::string& dir, int index);
  ~Heartbeat();
  Heartbeat(const Heartbeat&) = delete;
  Heartbeat& operator=(const Heartbeat&) = delete;

  /// Bump the completed-job count (worker threads).
  void note_job_done();

 private:
  struct Impl;
  Impl* impl_;
};

// --- Tombstones and the poison list ----------------------------------------

/// A terminally failed job's record (`job_<index>.fail`), written by the
/// child that exhausted its in-process retries so the parent can
/// materialize the JobError without re-running the job. Plain text:
/// first line `kind=<name> attempts=<n>`, remaining lines the what().
struct Tombstone {
  JobError::Kind kind = JobError::Kind::kException;
  int attempts = 0;
  std::string what;
};

/// Atomically writes `job_<job>.fail` under `work_dir`.
bool write_tombstone(const std::string& work_dir, std::size_t job,
                     const Tombstone& tomb);
/// Reads a tombstone; false when absent or malformed.
bool read_tombstone(const std::string& work_dir, std::size_t job,
                    Tombstone& out);

/// The supervisor's poison list (`poison.list`, one job index per line,
/// rewritten atomically; single writer — the supervisor). Children read
/// it at spawn and skip the listed jobs.
std::vector<std::size_t> read_poison_list(const std::string& work_dir);
bool append_poison(const std::string& work_dir, std::size_t job);

namespace testing {

/// Overrides the child command for tests (a gtest binary re-entering a
/// specific TEST instead of a driver re-exec); the shard assignment still
/// travels via environment. Empty restores the default. Also clears the
/// latched child_block() so one test process can play both roles.
void set_child_command(const std::vector<std::string>& argv);

/// Clears the latched child_block() (tests that set WLAN_SHARD_SPEC).
void reset_child_block();

}  // namespace testing

}  // namespace wlan::exp::shard
